"""qd arrays of orders 2-120, entries 1e-15 to 1, seeds 0-2999: the
``test_dqds_converges_on_graded_arrays`` draw over 3,000 seeds and twice the
order."""

import math

import pytest
from graded import graded_qd

from randic import spectral


@pytest.mark.parametrize("seed", range(3000))
def test_dqds_converges_on_graded_array(seed):
    # within ITERATION_CAP, n values >= 0 that add up to the trace of
    # B^T B, sum(q) + sum(e)
    q, e = graded_qd(seed, 120)
    trace = math.fsum(q + e)
    values = spectral._dqds(q, e)
    assert len(values) == len(q) and min(values) >= 0.0
    assert abs(math.fsum(values) - trace) <= 1e-12 * trace
