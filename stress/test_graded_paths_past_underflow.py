"""Weighted paths of order 60-220, weights 10^U(-320, 0) with 1 and 1e-320
planted, seeds 0-299: the ``test_weighted_path_across_200_decades`` draw,
graded past the whole float range. Weights from 1e-320 are subnormal but not
zero, so the path stays one bipartite block, and about half of them are
below 1e-154 of the largest: their squares flush to 0 in
``_singular_values``, and dqds meets zero q_i, which it carries to the bottom
and deflates, and zero e_j, where a transform stops and the array splits.
The graded-path and graded-qd draws span at most 15 decades and never reach
that range."""

import math
import random

import pytest
from graded import graded_weights, weighted_path

from randic import eigenvalues


@pytest.mark.parametrize("seed", range(300))
def test_graded_path_past_underflow_keeps_the_trace_of_its_square(seed):
    # the trace of M^2 is 2*sum(w^2); a weight 1 and a weight 1e-320 at two
    # random positions make every draw span all 320 decades
    rng = random.Random(seed)
    weights = graded_weights(seed, rng.randint(59, 219), 320)
    top, bottom = rng.sample(range(len(weights)), 2)
    weights[top], weights[bottom] = 1.0, 1e-320
    assert 0.0 < min(weights) < 1e-308 * max(weights)
    values = eigenvalues(weighted_path(weights, seed)).values
    got, want = math.fsum(x * x for x in values), 2.0 * math.fsum(w * w for w in weights)
    assert len(values) == len(weights) + 1
    assert abs(got - want) <= 1e-13 * want
