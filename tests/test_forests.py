"""Forests against their Sachs polynomial.

A forest has no cycles, so Sachs' coefficient theorem leaves only matchings
in det(λD - A): ``oracles.weighted_matching_polynomial`` computes it in
integers from the graph alone, sharing nothing with the exact route, and
``oracles.matching_number`` gives the multiplicity n - 2ν of the eigenvalue 0
without either route.
"""

import math
import random

import pytest
from oracles import matching_number, weighted_matching_polynomial

from randic import Graph, RatPoly, charpoly_exact, eigenvalues, randic_matrix
from randic import spectral


def _forest(seed: int) -> Graph:
    """A relabeled forest of order 16-128 with 1-3 components, each grown
    vertex by vertex, every new vertex joined to one of the last ``width``
    before it: a path for width 1, a random recursive tree for the whole
    component. A quarter of the forests of two or more components have a
    lone vertex as one of them."""
    rng = random.Random(f"forest:{seed}")
    n = rng.randint(16, 128)
    cuts = sorted(rng.sample(range(2, n), rng.randint(0, 2)))
    if cuts and rng.random() < 0.25:
        cuts[0] = 1
    edges = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        width = rng.choice([1, 2, 4, hi - lo])
        edges += [(rng.randrange(max(lo, v - width), v), v) for v in range(lo + 1, hi)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


FORESTS = [_forest(seed) for seed in range(24)]


def _sachs(g: Graph) -> RatPoly:
    """det(λI - W) = det(λD - A) over the product of the degrees, with an
    isolated vertex's λ left as it is."""
    return RatPoly.from_numerators(weighted_matching_polynomial(g), math.prod(d for d in g.degrees if d))


def test_forests_cover_their_draw():
    orders = [g.n for g in FORESTS]
    components = [g.n - len(g.edges) for g in FORESTS]
    assert min(orders) < 32 and max(orders) > 100
    assert set(components) == {1, 2, 3}
    assert any(0 in g.degrees for g in FORESTS)


@pytest.mark.parametrize("g", FORESTS, ids=range(len(FORESTS)))
def test_forest_charpoly_is_its_weighted_matching_polynomial(g):
    assert charpoly_exact(g) == _sachs(g)


@pytest.mark.parametrize("g", FORESTS, ids=range(len(FORESTS)))
def test_forest_zero_eigenvalues_number_n_minus_twice_the_matching_number(g):
    # the numeric route's zeros are exact or within rounding; its least
    # nonzero |eigenvalue| on these forests is above 1e-2
    values = eigenvalues(randic_matrix(g)).values
    assert len(values) == g.n
    assert sum(abs(x) <= 1e-12 for x in values) == g.n - 2 * matching_number(g)


def test_forest_reference_sees_a_modulus_below_the_bound(monkeypatch):
    # forest 1, of order 128, has a coefficient bound above 2^61:
    # reduced modulo 2^61 - 1, its polynomial no longer lifts to the right one
    g = FORESTS[1]
    assert g.n == 128 and charpoly_exact(g) == _sachs(g)
    monkeypatch.setattr(spectral, "_modulus", lambda bound: (1 << 61) - 1)
    assert charpoly_exact(g) != _sachs(g)
