"""Unicyclic graphs against their Sachs polynomial.

An edge e = uv on the one cycle C of a graph G splits det(λD - A) by the
edge recurrence of Heilbronner and Schwenk (Cvetkovic, Doob and Sachs,
Spectra of Graphs, 1980, Thm 1.3; it leaves the diagonal as it is):

    N(G) = N(G - e) - N(G - u - v) - 2·N(G - V(C)),

and each term is a forest that keeps G's degrees on its diagonal, so
``oracles.weighted_matching_polynomial`` computes it in integers from the
graph alone, sharing nothing with the exact route or the eigensolver.
"""

import math
import random

import pytest
from oracles import _max_root_residual, is_connected, weighted_matching_polynomial

from randic import Graph, RatPoly, charpoly_exact, eigenvalues, randic_matrix
from randic import spectral

# one cycle length per graph: 3 to 31, odd and even
CYCLE_LENGTHS = (3, 4, 5, 6, 8, 11, 16, 20, 27, 31)


def _unicyclic(seed: int, k: int) -> tuple[Graph, list[int]]:
    """A relabeled connected graph of order 20-128 with one cycle, of length
    k, and that cycle's vertices in order. Trees grow on the cycle, vertex
    by vertex, each new vertex joined to one of the last ``width`` before
    it: long paths for width 1, a random recursive forest for all of them."""
    rng = random.Random(f"unicyclic:{seed}")
    n = rng.randint(max(20, k), 128)
    width = rng.choice([1, 2, 4, n])
    edges = [(v, (v + 1) % k) for v in range(k)]
    edges += [(rng.randrange(max(0, v - width), v), v) for v in range(k, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges]), perm[:k]


UNICYCLIC = [_unicyclic(seed, k) for seed, k in enumerate(CYCLE_LENGTHS)]


def _sachs(g: Graph, cycle: list[int]) -> RatPoly:
    """det(λI - W) = det(λD - A) over the product of the degrees, by the edge
    recurrence on the cycle edge (cycle[0], cycle[1])."""
    degs = g.degrees
    u, v = cycle[0], cycle[1]

    def forest(drop, edge=()) -> RatPoly:
        # G less the vertices ``drop`` and the edge ``edge``, relabeled, with G's degrees
        keep = [w for w in range(g.n) if w not in drop]
        index = {w: i for i, w in enumerate(keep)}
        edges = [(index[a], index[b]) for a, b in g.edges if a in index and b in index and {a, b} != set(edge)]
        nums = weighted_matching_polynomial(Graph.from_edges(len(keep), edges), [degs[w] for w in keep])
        return RatPoly.from_numerators(nums, math.prod(degs))

    return forest((), (u, v)) - forest((u, v)) - 2 * forest(set(cycle))


REFERENCES = [_sachs(g, cycle) for g, cycle in UNICYCLIC]


def _power_sums(poly: RatPoly, k: int) -> list:
    """Σλ^m over the roots of a monic polynomial, m = 1..k, by Newton's
    identities on its coefficients: exact, and no root is computed."""
    c = poly.coeffs
    e = [(-1) ** j * c[-1 - j] for j in range(k + 1)]
    p: list = []
    for m in range(1, k + 1):
        p.append((-1) ** (m - 1) * (m * e[m] + sum((-1) ** i * e[m - i] * p[i - 1] for i in range(1, m))))
    return p


def test_unicyclic_graphs_cover_their_draw():
    orders = [g.n for g, _ in UNICYCLIC]
    assert min(orders) < 32 and max(orders) > 100
    for (g, cycle), k in zip(UNICYCLIC, CYCLE_LENGTHS):
        # connected with as many edges as vertices: one cycle, this one
        assert is_connected(g) and len(g.edges) == g.n and len(cycle) == k
        assert all((min(a, b), max(a, b)) in g.edges for a, b in zip(cycle, cycle[1:] + cycle[:1]))


@pytest.mark.parametrize("i", range(len(UNICYCLIC)), ids=CYCLE_LENGTHS)
def test_unicyclic_charpoly_is_its_sachs_polynomial(i):
    assert charpoly_exact(UNICYCLIC[i][0]) == REFERENCES[i]


@pytest.mark.parametrize("i", range(len(UNICYCLIC)), ids=CYCLE_LENGTHS)
def test_unicyclic_eigenvalues_are_roots_of_the_sachs_polynomial(i):
    g = UNICYCLIC[i][0]
    spectrum = eigenvalues(randic_matrix(g))
    assert len(spectrum.values) == g.n
    assert _max_root_residual(REFERENCES[i], spectrum) < 1e-6
    # a Randic polynomial is small all over [-1, 1] at these orders, so the
    # residual misses even a value moved by 0.3; the power sums do not
    for m, want in enumerate(_power_sums(REFERENCES[i], 4), 1):
        assert math.fsum(x**m for x in spectrum.values) == pytest.approx(float(want), abs=1e-12 * g.n)


def test_unicyclic_reference_sees_a_modulus_below_the_bound(monkeypatch):
    # the largest graph's coefficient bound is above 2^61: reduced modulo
    # 2^61 - 1, its polynomial no longer lifts to the right one
    i = max(range(len(UNICYCLIC)), key=lambda j: UNICYCLIC[j][0].n)
    g = UNICYCLIC[i][0]
    assert g.n > 100 and charpoly_exact(g) == REFERENCES[i]
    monkeypatch.setattr(spectral, "_modulus", lambda bound: (1 << 61) - 1)
    assert charpoly_exact(g) != REFERENCES[i]
