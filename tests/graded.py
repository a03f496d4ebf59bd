"""Graded inputs for the eigensolver, shared by the tier-1 tests and the
stress tests under ``stress/``, which run the same draws over more seeds and
larger orders.

``graded_weights`` draws edge weights spread evenly in log scale over the
given number of decades below 1, and ``weighted_path`` places them on a
path relabeled at random: a matrix whose spectrum spans those decades.
``graded_qd`` draws the qd arrays of a bidiagonal whose entries span 15
decades, for ``spectral._dqds`` directly.
"""

import random

from randic import SymMatrix


def graded_weights(seed: int, count: int, decades: int) -> list[float]:
    """``count`` weights 10^U(-decades, 0) from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [10 ** rng.uniform(-decades, 0) for _ in range(count)]


def weighted_path(weights, seed):
    """A path with the given edge weights, as a matrix, relabeled at random."""
    n = len(weights) + 1
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    rows = [[0.0] * n for _ in range(n)]
    for i, w in enumerate(weights):
        rows[perm[i]][perm[i + 1]] = rows[perm[i + 1]][perm[i]] = w
    return SymMatrix(tuple(map(tuple, rows)))


def graded_qd(seed: int, max_order: int) -> tuple[list[float], list[float]]:
    """qd arrays (q, e) of an order n from 2 to ``max_order``, every entry
    10^U(-15, 0), from ``random.Random(seed)``."""
    rng = random.Random(seed)
    n = rng.randint(2, max_order)
    q = [10 ** rng.uniform(-15, 0) for _ in range(n)]
    e = [10 ** rng.uniform(-15, 0) for _ in range(n - 1)]
    return q, e
