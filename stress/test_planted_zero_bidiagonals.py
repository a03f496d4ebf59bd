"""Bidiagonals of orders 1-60 with 0-3 zero diagonal entries, seeds 0-2999.
Unlike ``test_singular_values_of_bidiagonals_with_planted_zeros``, the
entries span 1-15 decades, a coin flip makes B square or m x (m+1), and
some draws plant no zero."""

import math
import random

import pytest

from randic import spectral


@pytest.mark.parametrize("seed", range(3000))
def test_singular_values_of_bidiagonal_with_planted_zeros(seed):
    # m values, none NaN, whose squares add up to the squared Frobenius
    # norm of B
    rng = random.Random(seed)
    m = rng.randint(1, 60)
    decades = rng.randint(1, 15)
    d = [10 ** rng.uniform(-decades, 0) for _ in range(m)]
    e = [10 ** rng.uniform(-decades, 0) for _ in range(m)]
    if rng.random() < 0.5:
        e[-1] = 0.0
    for j in rng.sample(range(m), min(m, rng.randint(0, 3))):
        d[j] = 0.0
    norm2 = math.fsum(x * x for x in d + e)
    values = spectral._singular_values(d, e)
    got = math.fsum(x * x for x in values)
    assert len(values) == m and not any(map(math.isnan, values))
    assert abs(got - norm2) <= 1e-12 * norm2
