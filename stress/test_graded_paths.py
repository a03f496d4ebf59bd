"""Weighted paths of order 220, weights 1e-9 to 1, seeds 0-299: the
``test_graded_path_splits_at_an_underflowed_coupling`` draw over 300 seeds,
each a bipartite block whose bidiagonal B is graded over nine decades."""

import math

import pytest
from graded import graded_weights, weighted_path

from randic import eigenvalues


@pytest.mark.parametrize("seed", range(300))
def test_graded_path_keeps_the_trace_of_its_square(seed):
    # the trace of M^2 is 2*sum(w^2)
    weights = graded_weights(seed, 219, 9)
    values = eigenvalues(weighted_path(weights, seed)).values
    got, want = math.fsum(x * x for x in values), 2.0 * math.fsum(w * w for w in weights)
    assert abs(got - want) <= 1e-13 * want
