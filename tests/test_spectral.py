import ast
import math
import random
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest
import oracles
from graded import graded_qd, graded_weights, weighted_path
from oracles import _max_root_residual, charpoly_at, charpoly_bruteforce, disjoint_union, randic_index

from randic import spectral
from randic import (
    ConvergenceError,
    DomainError,
    FamilySpec,
    Graph,
    RatPoly,
    SymMatrix,
    adjacency_matrix,
    charpoly_exact,
    closed_charpoly,
    closed_energy,
    delete_edge,
    eigenvalues,
    generate,
    graph_energy,
    permute_vertices,
    randic_energy,
    randic_matrix,
    sweep_specs,
)

SQRT2 = math.sqrt(2.0)

SMALL_SPECS = [
    FamilySpec("path", 2),
    FamilySpec("path", 5),
    FamilySpec("cycle", 3),
    FamilySpec("cycle", 6),
    FamilySpec("star", 5),
    FamilySpec("complete", 4),
    FamilySpec("complete_bipartite", 3, m=2),
    FamilySpec("friendship", 2),
    FamilySpec("dutch4", 2),
    FamilySpec("complete", 5, minus_edge=True),
    FamilySpec("complete_bipartite", 3, m=2, minus_edge=True),
    FamilySpec("star", 5, minus_edge=True),
]


# ---------------------------------------------------------------- matrices


def test_randic_matrix_path3():
    mat = randic_matrix(generate(FamilySpec("path", 3)))
    w = 1.0 / SQRT2
    assert mat.entries[0][1] == pytest.approx(0.7071067811865476, abs=1e-15)
    assert mat.entries[0][1] == mat.entries[1][0] == w
    assert mat.entries[1][2] == mat.entries[2][1] == w
    assert mat.entries[0][2] == 0.0
    assert all(mat.entries[i][i] == 0.0 for i in range(3))


def test_randic_matrix_complete3_and_star4():
    k3 = randic_matrix(generate(FamilySpec("complete", 3)))
    assert all(k3.entries[i][j] == 0.5 for i in range(3) for j in range(3) if i != j)
    s4 = randic_matrix(generate(FamilySpec("star", 4)))
    w = 1.0 / math.sqrt(3.0)
    assert all(s4.entries[0][j] == w for j in range(1, 4))
    assert s4.entries[1][2] == 0.0


def test_randic_matrix_isolated_rows_zero():
    g = delete_edge(generate(FamilySpec("star", 4)), 0, 1)
    mat = randic_matrix(g)
    assert all(v == 0.0 for v in mat.entries[1])


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_randic_matrix_exactly_symmetric(spec):
    mat = randic_matrix(generate(spec))
    assert mat.entries == tuple(zip(*mat.entries))


def test_randic_index_examples():
    assert randic_index(generate(FamilySpec("complete", 4))) == pytest.approx(2.0, abs=1e-15)
    assert randic_index(generate(FamilySpec("path", 3))) == pytest.approx(SQRT2, abs=1e-15)
    assert randic_index(generate(FamilySpec("cycle", 5))) == pytest.approx(2.5, abs=0)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_randic_index_is_half_matrix_sum(spec):
    g = generate(spec)
    mat = randic_matrix(g)
    total = sum(sum(row) for row in mat.entries)
    assert randic_index(g) == pytest.approx(total / 2.0, abs=1e-12)


# ---------------------------------------------------------------- exact charpoly


def test_charpoly_known_values():
    assert charpoly_exact(generate(FamilySpec("complete", 3))) == RatPoly(
        [Fr(-1, 4), Fr(-3, 4), 0, 1]
    )
    assert charpoly_exact(generate(FamilySpec("path", 3))) == RatPoly([0, -1, 0, 1])
    assert charpoly_exact(generate(FamilySpec("cycle", 4))) == RatPoly([0, 0, -1, 0, 1])
    assert charpoly_exact(generate(FamilySpec("path", 4))) == RatPoly(
        [Fr(1, 4), 0, Fr(-5, 4), 0, 1]
    )


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_charpoly_matches_cofactor_oracle(spec):
    g = generate(spec)
    if g.n > 7:
        pytest.skip("oracle limited to small orders")
    assert charpoly_exact(g) == charpoly_bruteforce(g)


def test_charpoly_oracle_on_deleted_edges():
    for base, edge in [
        (FamilySpec("path", 5), (1, 2)),
        (FamilySpec("star", 5), (0, 1)),
        (FamilySpec("cycle", 5), (0, 1)),
    ]:
        g = delete_edge(generate(base), *edge)
        assert charpoly_exact(g) == charpoly_bruteforce(g)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_charpoly_monic_degree_and_coefficient_identities(spec):
    g = generate(spec)
    p = charpoly_exact(g)
    assert p.degree == g.n
    assert p.coeffs[g.n] == 1
    # zero trace and the exact second coefficient identity
    assert p.coeffs[g.n - 1] == 0
    expected = -sum(Fr(1, g.degrees[u] * g.degrees[v]) for u, v in g.edges)
    assert p.coeffs[g.n - 2] == expected


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_charpoly_label_invariant(spec):
    g = generate(spec)
    p = charpoly_exact(g)
    rng = random.Random(hash(spec) & 0xFFFF)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert charpoly_exact(permute_vertices(g, perm)) == p


def test_charpoly_isolated_vertices_factor_lambda():
    g = delete_edge(generate(FamilySpec("star", 4)), 0, 1)
    p = charpoly_exact(g)
    assert p.coeffs[0] == 0
    assert p == charpoly_exact(generate(FamilySpec("star", 3))).shift(1)


def test_charpoly_empty_and_edgeless_graphs():
    from randic import Graph

    assert charpoly_exact(Graph(0, frozenset())) == RatPoly.one()
    assert charpoly_exact(Graph(3, frozenset())) == RatPoly([0, 0, 0, 1])


def test_charpoly_order_cap(monkeypatch):
    g = generate(FamilySpec("path", 130))
    with pytest.raises(DomainError, match=r"capped at order 128 \(got 130\)"):
        charpoly_exact(g)
    # the cap is read when the function runs
    monkeypatch.setattr(spectral, "EXACT_ORDER_CAP", 130)
    assert charpoly_exact(g).degree == 130


# ---------------------------------------------------------------- modular kernel


@pytest.mark.parametrize(
    "p, a", spectral.CERTIFIED_PRIMES, ids=[f"{p.bit_length()}bit" for p, _ in spectral.CERTIFIED_PRIMES]
)
def test_proth_entries_are_prime(p, a):
    # Proth: p = k·2^e + 1 with k odd, k < 2^e, is prime if a^((p-1)/2) = -1 mod p
    e = ((p - 1) & (1 - p)).bit_length() - 1
    k = (p - 1) >> e
    assert k % 2 == 1 and k < 1 << e
    assert pow(a, (p - 1) // 2, p) == p - 1


def test_certified_primes_table_shape():
    # entry i has exactly 30(i + 2) bits, one 30-bit digit of a Python int
    # more than the entry before it
    bits = [p.bit_length() for p, _ in spectral.CERTIFIED_PRIMES]
    assert bits == [30 * j for j in range(2, len(bits) + 2)]


def test_certified_primes_reach_the_exact_order_cap():
    # the coefficient bound 2·P'·C(k', k'/2) of a quotient of order k' <= c
    # is at most complete(c)'s, since each degree is at most c - 1. The table
    # ends at the first prime above it: raising EXACT_ORDER_CAP needs primes
    # added, and a prime past that one could never be chosen.
    c = spectral.EXACT_ORDER_CAP
    bound = 2 * (c - 1) ** c * math.comb(c, c // 2)
    primes = [p for p, _ in spectral.CERTIFIED_PRIMES]
    assert primes[-2] <= bound < primes[-1]


@pytest.mark.parametrize(
    "bound, bits",
    [(0, 60), ((1 << 53) - 1, 60), (65487 << 44, 60), ((65487 << 44) + 1, 90), (1 << 151, 180), (1 << 1019, 1020)],
)
def test_modulus_is_smallest_certified_prime_above_bound(bound, bits):
    p = spectral._modulus(bound)
    assert p > bound and p.bit_length() == bits
    assert all(q <= bound for q, _ in spectral.CERTIFIED_PRIMES if q < p)


def test_modulus_steps_at_each_table_prime():
    # a bound just below entry i gets entry i, the entry itself gets entry
    # i + 1, and the last entry is past the table
    primes = [p for p, _ in spectral.CERTIFIED_PRIMES]
    for p, q in zip(primes, primes[1:]):
        assert spectral._modulus(p - 1) == p
        assert spectral._modulus(p) == q
    assert spectral._modulus(primes[-1] - 1) == primes[-1]
    with pytest.raises(DomainError, match="largest certified prime has 1020 bits"):
        spectral._modulus(primes[-1])


def _random_graph(rng, n, isolated):
    core = n - isolated
    pairs = [(u, v) for u in range(core) for v in range(u + 1, core)]
    edges = rng.sample(pairs, rng.randint(1, len(pairs)))
    perm = list(range(n))
    rng.shuffle(perm)
    return permute_vertices(Graph.from_edges(n, edges), perm)


@pytest.mark.parametrize("seed", range(12))
def test_charpoly_matches_cofactor_oracle_random(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    g = _random_graph(rng, n, isolated=seed % 3 if n > 3 else 0)
    assert charpoly_exact(g) == charpoly_bruteforce(g)


@pytest.mark.parametrize(
    "g",
    [
        # each of these needs at least one pivot swap in the Hessenberg
        # reduction (a star: its two leaves come first, so W[1][0] = 0)
        generate(FamilySpec("star", 6)),
        generate(FamilySpec("dutch4", 2)),
        delete_edge(generate(FamilySpec("star", 5)), 0, 1),
        Graph.from_edges(7, [(0, 3), (3, 1), (3, 2), (2, 4), (4, 5)]),
    ],
)
def test_charpoly_pivot_swap_matches_cofactor_oracle(g):
    assert charpoly_exact(g) == charpoly_bruteforce(g)


@pytest.mark.parametrize(
    "g",
    [
        # columns whose first nonzero row lies far above the diagonal, so the
        # determinant recurrence runs its longest and its shortened inner loops
        Graph.from_edges(9, [(i, 8) for i in range(8)]),  # star, center last
        generate(FamilySpec("complete", 9)),
        _random_graph(random.Random(2024), 11, isolated=0),
        disjoint_union(
            disjoint_union(generate(FamilySpec("path", 3)), generate(FamilySpec("path", 4))),
            generate(FamilySpec("path", 5)),
        ),
    ],
)
def test_charpoly_far_from_tridiagonal_matches_cofactor_oracle(g):
    assert charpoly_exact(g) == charpoly_bruteforce(g)


@pytest.mark.parametrize("seed", range(6))
def test_hessenberg_kernel_sparse_random_matches_cofactor_oracle(seed):
    # a non-symmetric matrix with most entries zero, so after the reduction
    # columns start at scattered rows; compared with det(λI - H) over Q mod p
    rng = random.Random(seed)
    n, p = 9, 10007
    h = [[rng.randrange(1, p) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)]
    lam = RatPoly.x()
    mat = [
        [(lam if i == j else RatPoly.zero()) - RatPoly([h[i][j]]) for j in range(n)]
        for i in range(n)
    ]
    want = [int(c) % p for c in oracles.det_poly(mat).coeffs]
    assert spectral._hessenberg_charpoly([row[:] for row in h], p) == want


def test_hessenberg_kernel_pivot_swap():
    # h[1][0] = 0 but h[2][0] != 0, so the first step swaps rows/columns 1, 2
    p = spectral.CERTIFIED_PRIMES[0][0]
    h = [[1, 2, 3], [0, 4, 5], [6, 7, 8]]
    # det(λI - H) = λ^3 - tr·λ^2 + (sum of principal 2-minors)·λ - det
    minors = (1 * 4 - 2 * 0) + (1 * 8 - 3 * 6) + (4 * 8 - 5 * 7)
    det = 1 * (4 * 8 - 5 * 7) - 2 * (0 * 8 - 5 * 6) + 3 * (0 * 7 - 4 * 6)
    want = [-det % p, minors % p, -13 % p, 1]
    assert spectral._hessenberg_charpoly(h, p) == want


KERNEL_PRIMES = [101] + [p for p, _ in spectral.CERTIFIED_PRIMES[:2]]
# the structural cases also run modulo the table's last, 1,020-bit prime,
# the one a quotient near EXACT_ORDER_CAP is reduced by
STRUCTURE_PRIMES = KERNEL_PRIMES + [spectral.CERTIFIED_PRIMES[-1][0]]
STRUCTURE_PRIME_IDS = [f"{p.bit_length()}bit" for p in STRUCTURE_PRIMES]


def _random_mod_p(rng, n, per_row, p):
    """An n x n matrix over Z/p with ``per_row`` nonzeros in each row."""
    h = [[0] * n for _ in range(n)]
    for row in h:
        for j in rng.sample(range(n), per_row):
            row[j] = rng.randrange(1, p)
    return h


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 40])
@pytest.mark.parametrize("density", ["one", "third", "dense"])
def test_hessenberg_kernel_matches_interpolated_determinant(n, density):
    # from one nonzero per row, where most steps find a lone row or none to
    # eliminate, through a third of each row, to dense, where every row
    # operation reads a full tail; p = 101 makes entries cancel to 0 on the
    # way. The reference shares no code with the kernel (oracles.py)
    rng = random.Random(f"kernel:{n}:{density}")
    per_row = {"one": 1, "third": max(1, n // 3), "dense": n}[density]
    p = rng.choice(KERNEL_PRIMES)
    h = _random_mod_p(rng, n, per_row, p)
    assert spectral._hessenberg_charpoly([row[:] for row in h], p) == oracles.charpoly_mod_p(h, p)


@pytest.mark.parametrize("p", STRUCTURE_PRIMES, ids=STRUCTURE_PRIME_IDS)
def test_hessenberg_kernel_block_triangular_splits(p):
    # H = [[A, B], [0, C]]: column 6 is zero below row 7, so the reduction
    # skips that step and the Hessenberg form splits into A's and C's
    rng = random.Random(f"split:{p}")
    n, k = 16, 7
    h = _random_mod_p(rng, n, 6, p)
    for row in h[k:]:
        row[:k] = [0] * k
    assert spectral._hessenberg_charpoly([row[:] for row in h], p) == oracles.charpoly_mod_p(h, p)


@pytest.mark.parametrize("p", STRUCTURE_PRIMES, ids=STRUCTURE_PRIME_IDS)
def test_hessenberg_kernel_swaps_for_a_zero_first_column_entry(p):
    # h[1][0] = 0 and only h[5][0] is nonzero below it: the first step swaps
    # rows and columns 1 and 5 and then has no row to eliminate
    rng = random.Random(f"swap:{p}")
    h = _random_mod_p(rng, 12, 5, p)
    for i in range(1, 12):
        h[i][0] = 0
    h[5][0] = rng.randrange(1, p)
    assert spectral._hessenberg_charpoly([row[:] for row in h], p) == oracles.charpoly_mod_p(h, p)


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("complete", 128),
        FamilySpec("complete_bipartite", 64, m=64),
        FamilySpec("complete", 100, minus_edge=True),
    ],
)
def test_charpoly_largest_coefficients_match_closed_form(spec):
    assert charpoly_exact(generate(spec)) == closed_charpoly(spec)


def _connected_graph(rng, n, m):
    """A random tree on n vertices plus random edges up to m in all."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph.from_edges(n, edges)


def _shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permute_vertices(g, perm)


def test_charpoly_label_invariant_order_100():
    rng = random.Random(100)
    g = _connected_graph(rng, 100, 150)
    assert charpoly_exact(_shuffled(rng, g)) == charpoly_exact(g)


@pytest.mark.parametrize("seed", range(3))
def test_charpoly_sparse_order_64_against_elimination(seed):
    # coefficient bounds of ~150 bits, each lifted modulo a prime of 150 or
    # 180 bits
    rng = random.Random(f"sparse-64:{seed}")
    g = _connected_graph(rng, 64, 96)
    p = charpoly_exact(g)
    for x in (0, 2, Fr(-1, 2)):
        assert p(x) == charpoly_at(g, x)
    assert charpoly_exact(_shuffled(rng, g)) == p


@pytest.fixture(scope="module")
def lift_cases():
    # each graph with its polynomial and the prime its unpatched lift chose
    graphs = [generate(spec) for spec in sweep_specs(24)]
    graphs.append(_connected_graph(random.Random("lift:48"), 48, 72))
    modulus, chosen = spectral._modulus, []

    def recording(bound):
        chosen.append(modulus(bound))
        return chosen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_modulus", recording)
        want = [charpoly_exact(g) for g in graphs]
    assert len(chosen) == len(graphs)
    return graphs, want, chosen


def test_sweep_graphs_lift_modulo_the_60_bit_prime(lift_cases):
    # every sweep_specs(24) bound is below 2^60, so its residues are two
    # 30-bit digits wide; a table whose first prime had 61 bits made them three
    graphs, _, chosen = lift_cases
    assert {p.bit_length() for p in chosen[:-1]} == {60}
    assert len(chosen[:-1]) == len(sweep_specs(24))


@pytest.mark.parametrize("pick", ["next", "last"])
def test_charpoly_lift_does_not_depend_on_the_prime(monkeypatch, lift_cases, pick):
    # any certified prime above the bound lifts to the same polynomial: here
    # the table's next prime above the one chosen, or its 1,020-bit last one
    primes = [p for p, _ in spectral.CERTIFIED_PRIMES]
    modulus = spectral._modulus
    chosen = []

    def other(bound):
        chosen.append(bound)
        return primes[primes.index(modulus(bound)) + 1] if pick == "next" else primes[-1]

    monkeypatch.setattr(spectral, "_modulus", other)
    graphs, want, _ = lift_cases
    assert [charpoly_exact(g) for g in graphs] == want
    assert len(chosen) == len(graphs)


def _complement(g):
    return Graph.from_edges(
        g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in g.edges]
    )


def test_charpoly_beyond_largest_modulus_is_domain_error(monkeypatch):
    # the complement of a path of order >= 4 is twin-free, so its quotient is
    # itself: 2·18^2·17^18·C(20, 10) has 101 bits, more than the 90-bit
    # largest prime of the table cut after its second entry
    monkeypatch.setattr(spectral, "CERTIFIED_PRIMES", spectral.CERTIFIED_PRIMES[:2])
    g = _complement(generate(FamilySpec("path", 20)))
    with pytest.raises(DomainError, match="modulus above a 101-bit bound; the largest certified prime has 90 bits"):
        charpoly_exact(g)


def test_charpoly_twin_quotient_needs_no_modulus_for_its_twins(monkeypatch):
    # complete(460) is one class of closed twins: a 1 x 1 quotient, where the
    # whole graph's bound would exceed the largest certified prime
    monkeypatch.setattr(spectral, "EXACT_ORDER_CAP", 460)
    spec = FamilySpec("complete", 460)
    assert charpoly_exact(generate(spec)) == closed_charpoly(spec)


# ---------------------------------------------------------------- twin quotient


def _cloned(rng, g, clones, kind):
    """``g`` with ``clones`` vertices added one at a time, each a twin of a
    random earlier vertex: open (its neighbours, not adjacent to it), closed
    (its neighbours and itself) or either, by ``kind``."""
    for _ in range(clones):
        v = rng.randrange(g.n)
        closed = kind == "closed" or (kind == "mixed" and rng.random() < 0.5)
        new = [(u, g.n) for u in oracles.neighbours(g)[v]] + ([(v, g.n)] if closed else [])
        g = Graph.from_edges(g.n + 1, [*g.edges, *new])
    return g


def _threshold(rng, n, isolated=0):
    """A threshold graph: each vertex joins all earlier ones (dominating) or
    none (isolated). The last of the first n - ``isolated`` vertices
    dominates, so only the ``isolated`` vertices after it are isolated."""
    core = n - isolated
    joins = [False] + [rng.random() < 0.5 for _ in range(core - 2)] + [True]
    edges = [(u, v) for v in range(core) if joins[v] for u in range(v)]
    return _shuffled(rng, Graph.from_edges(n, edges))


def _twin_classes_of(g):
    """Sizes of the classes of two or more vertices with one open or one
    closed neighbourhood, non-isolated vertices only."""
    keys = {}
    for v, nbrs in enumerate(oracles.neighbours(g)):
        if nbrs:
            for key in (frozenset(nbrs), frozenset(nbrs) | {v}):
                keys.setdefault(key, []).append(v)
    return sorted(len(m) for m in keys.values() if len(m) > 1)


@pytest.mark.parametrize("kind", ["open", "closed", "mixed"])
@pytest.mark.parametrize("seed", range(5))
def test_charpoly_twin_quotient_matches_cofactor_oracle(kind, seed):
    # a random graph of 3-5 vertices, 2-4 clones (of clones too), and up to
    # two isolated vertices beside them
    rng = random.Random(f"clones:{kind}:{seed}")
    base = _random_graph(rng, rng.randint(3, 5), isolated=0)
    g = _cloned(rng, base, rng.randint(2, 4), kind)
    g = _shuffled(rng, Graph.from_edges(g.n + seed % 3, g.edges))
    assert _twin_classes_of(g)
    assert charpoly_exact(g) == charpoly_bruteforce(g)


@pytest.mark.parametrize("seed", range(6))
def test_charpoly_threshold_graph_matches_cofactor_oracle(seed):
    rng = random.Random(f"threshold:{seed}")
    g = _threshold(rng, rng.randint(4, 9), isolated=seed % 3)
    assert charpoly_exact(g) == charpoly_bruteforce(g)


def _check_against_elimination(g, rng):
    p = charpoly_exact(g)
    for x in (2, Fr(-1, 2), Fr(3, 7)):
        assert p(x) == charpoly_at(g, x)
    assert p.degree == g.n and p.coeffs[g.n - 1] == 0
    assert p.coeffs[g.n - 2] == -sum(Fr(1, g.degrees[u] * g.degrees[v]) for u, v in g.edges)
    # another labeling picks other class representatives
    assert charpoly_exact(_shuffled(rng, g)) == p


@pytest.mark.parametrize("kind", ["open", "closed", "mixed"])
def test_charpoly_twin_quotient_against_elimination(kind):
    rng = random.Random(f"clones-40:{kind}")
    g = _shuffled(rng, _cloned(rng, _connected_graph(rng, 16, 24), 24, kind))
    assert max(_twin_classes_of(g)) >= 3
    _check_against_elimination(g, rng)


@pytest.mark.parametrize("seed", range(2))
def test_charpoly_threshold_graph_against_elimination(seed):
    rng = random.Random(f"threshold-40:{seed}")
    _check_against_elimination(_threshold(rng, 40), rng)


def test_charpoly_twin_free_dense_graph_against_elimination():
    # the complement of path(40) has no twins, so all 40 vertices go through
    # the pivoting Hessenberg kernel
    rng = random.Random("complement-path-40")
    g = _shuffled(rng, _complement(generate(FamilySpec("path", 40))))
    assert not _twin_classes_of(g)
    _check_against_elimination(g, rng)


# ---------------------------------------------------------------- bipartite quotient


def _bipartite_graph(rng, n, m):
    """A random connected bipartite graph: a random tree (which is
    bipartite) plus random edges between its two colour classes up to m."""
    g = _connected_graph(rng, n, n - 1)
    depth = [0] * n
    for u, v in sorted(g.edges, key=max):
        depth[v] = depth[u] + 1
    edges = set(g.edges)
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        if depth[u] % 2 != depth[v] % 2:
            edges.add((u, v))
    return Graph.from_edges(n, edges)


def _union(*graphs):
    g = graphs[0]
    for h in graphs[1:]:
        g = disjoint_union(g, h)
    return g


# each vertex of the first half is a nonempty subset of {0, 1, 2}, joined to
# its elements in the second half: twin-free, with halves of 7 and 3
SUBSETS_3 = Graph.from_edges(
    10, [(s - 1, 7 + e) for s in range(1, 8) for e in range(3) if s >> e & 1]
)


def _crown(n):
    """K_n x K_2: K(n, n) minus a perfect matching, dense and twin-free."""
    return Graph.from_edges(2 * n, [(i, n + j) for i in range(n) for j in range(n) if i != j])


@pytest.mark.parametrize("seed", range(4))
def test_bipartite_quotient_with_open_twins_matches_cofactor_oracle(seed):
    # an open clone keeps a graph bipartite, and a closed one would not
    rng = random.Random(f"bipartite-clones:{seed}")
    g = _shuffled(rng, _cloned(rng, _bipartite_graph(rng, 6, 7), 3, "open"))
    assert _twin_classes_of(g)
    assert charpoly_exact(g) == charpoly_bruteforce(g)


@pytest.mark.parametrize(
    "g",
    [
        # three isolated vertices beside a twin-free path and C_4
        Graph.from_edges(12, [(i, i + 1) for i in range(4)] + [(6, 7), (7, 8), (8, 9), (9, 6)]),
        # a K_2 component, whose closed class sends the union the full route
        _union(generate(FamilySpec("path", 2)), generate(FamilySpec("cycle", 4)), generate(FamilySpec("path", 5))),
        _union(generate(FamilySpec("path", 2)), generate(FamilySpec("path", 2)), generate(FamilySpec("path", 4))),
        # halves far apart: t - s = 5 in the graph and 0 in its quotient
        generate(FamilySpec("star", 7)),
        generate(FamilySpec("complete_bipartite", 7, m=2)),
        # t - s = 4 in the quotient itself
        SUBSETS_3,
        # the larger half of path 0-1-2-3-4 has even depth, that of path
        # 6-5-7-8-9 (first visited from 5) odd
        Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (5, 7), (7, 8), (8, 9)]),
    ],
)
def test_bipartite_quotient_matches_cofactor_oracle(g):
    want = charpoly_bruteforce(g)
    assert charpoly_exact(g) == want
    assert charpoly_exact(_shuffled(random.Random(g.n), g)) == want


@pytest.mark.parametrize("seed", range(3))
def test_bipartite_union_with_halves_on_opposite_parities_matches_cofactor_oracle(seed):
    # star(5) and two twin-free paths, relabeled at random, so the breadth-first
    # roots, and with them the parity of each component's larger half, vary
    rng = random.Random(f"bipartite-union:{seed}")
    g = _union(*(generate(FamilySpec(f, n)) for f, n in (("star", 5), ("path", 4), ("path", 5))))
    assert charpoly_exact(_shuffled(rng, g)) == charpoly_bruteforce(g)


@pytest.mark.parametrize("seed", range(3))
def test_bipartite_order_64_against_elimination(seed):
    rng = random.Random(f"bipartite-64:{seed}")
    _check_against_elimination(_shuffled(rng, _bipartite_graph(rng, 64, 80 + 20 * seed)), rng)


def test_crown_order_64_against_elimination():
    # a full 32 x 32 XY; one point, since elimination on the dense matrix
    # is slow over Fractions
    g = _shuffled(random.Random("crown-32"), _crown(32))
    assert not _twin_classes_of(g)
    assert charpoly_exact(g)(Fr(3, 7)) == charpoly_at(g, Fr(3, 7))


def test_crown_at_the_exact_order_cap_matches_its_spectrum():
    # K_n x K_2 has Randic eigenvalues ±1 and ±1/(n-1), each of the latter
    # n - 1 times: φ = (λ² - 1)(λ² - 1/(n-1)²)^(n-1)
    n = 64
    want = RatPoly([-1, 0, 1]) * RatPoly([Fr(-1, (n - 1) ** 2), 0, 1]) ** (n - 1)
    assert charpoly_exact(_crown(n)) == want


def test_bipartite_quotient_takes_the_half_order_bound(monkeypatch):
    # the bound decides the modulus; a quotient sent the full route would
    # give the same polynomial under a larger one
    bounds = []
    modulus = spectral._modulus
    monkeypatch.setattr(spectral, "_modulus", lambda bound: bounds.append(bound) or modulus(bound))
    path2, path4 = (generate(FamilySpec("path", n)) for n in (2, 4))
    for g in (generate(FamilySpec("path", 64)), SUBSETS_3, _union(path2, path4), generate(FamilySpec("cycle", 5))):
        charpoly_exact(g)
    assert bounds == [
        # path(64): halves of 32, P' = 2^62
        2 * 2**62 * math.comb(32, 16),
        # halves of 7 and 3, P' = 1·1·1·2·2·2·3 · 4·4·4
        2 * 1536 * math.comb(3, 1),
        # P_2 ∪ P_4: P_2's closed class is next to itself, so all 5 classes
        2 * 4 * math.comb(5, 2),
        # an odd cycle is not bipartite
        2 * 2**5 * math.comb(5, 2),
    ]


# ---------------------------------------------------------------- eigensolver


def _supports(mat):
    """The support of each row of ``mat``, its nonzero columns as a bitmask."""
    return [sum(1 << j for j, x in enumerate(r) if x) for r in mat.entries]


def test_eigenvalues_exchange_matrix():
    spec = eigenvalues(SymMatrix(((0.0, 1.0), (1.0, 0.0))))
    assert spec.values == pytest.approx((1.0, -1.0), abs=1e-12)


def test_eigenvalues_randic_k3():
    spec = eigenvalues(randic_matrix(generate(FamilySpec("complete", 3))))
    assert spec.values == pytest.approx((1.0, -0.5, -0.5), abs=1e-12)


def test_eigenvalues_randic_c4():
    spec = eigenvalues(randic_matrix(generate(FamilySpec("cycle", 4))))
    assert spec.values == pytest.approx((1.0, 0.0, 0.0, -1.0), abs=1e-12)


@pytest.mark.parametrize("n", [3, 5, 8, 12, 31, 200, 201])
def test_eigenvalues_cycle_analytic(n):
    # normalized cycle matrix has spectrum cos(2πk/n)
    got = eigenvalues(randic_matrix(generate(FamilySpec("cycle", n)))).values
    want = sorted((math.cos(2.0 * math.pi * k / n) for k in range(n)), reverse=True)
    assert got == pytest.approx(want, abs=1e-11)


@pytest.mark.parametrize("n", [2, 4, 7, 12, 150])
def test_eigenvalues_path_adjacency_analytic(n):
    got = eigenvalues(adjacency_matrix(generate(FamilySpec("path", n)))).values
    want = sorted((2.0 * math.cos(j * math.pi / (n + 1)) for j in range(1, n + 1)), reverse=True)
    assert got == pytest.approx(want, abs=1e-11)


def test_eigenvalues_sorted_and_sized():
    spec = eigenvalues(randic_matrix(generate(FamilySpec("dutch4", 3))))
    vals = spec.values
    assert len(vals) == 10
    assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))


def test_sym_matrix_stores_list_rows_as_tuples():
    listed = SymMatrix([[0.0, 1.0], [1.0, 0.0]])
    built = SymMatrix(((0.0, 1.0), (1.0, 0.0)))
    assert listed == built and hash(listed) == hash(built)
    assert eigenvalues(listed).values == (1.0, -1.0)


@pytest.mark.parametrize(
    "rows, text",
    [
        ([[0.0, 1.0], [1.0]], "must be square"),
        ([[math.nan, 1.0], [1.0]], "must be square"),
        # rows are scanned in order, each for a non-finite entry first
        ([[math.nan, 1.0], [0.5, 0.0]], "non-finite"),
        ([[0.0, math.inf], [math.inf, 0.0]], "non-finite"),
        ([[math.inf, 1.0], [1.0, 0.0]], "non-finite"),
        ([[0.0, -math.inf], [-math.inf, 0.0]], "non-finite"),
        ([[math.nan, 1.0], [1.0, 0.0]], "non-finite"),
        ([[0.0, 1.0], [0.5, math.nan]], "not symmetric"),
        ([[0.0, 1.0], [0.5, 0.0]], "not symmetric"),
    ],
)
def test_sym_matrix_rejects_bad_rows_at_construction(rows, text):
    for entries in (rows, tuple(map(tuple, rows))):
        with pytest.raises(ValueError, match=text):
            SymMatrix(entries)


def test_eigenvalues_trivial_orders():
    assert eigenvalues(SymMatrix(())).values == ()
    assert eigenvalues(SymMatrix(((3.5,),))).values == (3.5,)


# ---------------------------------------------------------------- energies


def test_randic_energy_examples():
    assert randic_energy(generate(FamilySpec("complete", 5))) == pytest.approx(2.0, abs=1e-10)
    assert randic_energy(generate(FamilySpec("friendship", 3))) == pytest.approx(4.0, abs=1e-10)
    assert randic_energy(generate(FamilySpec("path", 5))) == pytest.approx(
        3.414213562373095, abs=1e-10
    )


def test_graph_energy_examples():
    assert graph_energy(generate(FamilySpec("complete", 2))) == pytest.approx(2.0, abs=1e-10)
    assert graph_energy(generate(FamilySpec("path", 3))) == pytest.approx(
        2.8284271247461903, abs=1e-10
    )
    assert graph_energy(generate(FamilySpec("cycle", 4))) == pytest.approx(4.0, abs=1e-10)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_spectrum_trace_and_frobenius(spec):
    g = generate(spec)
    vals = eigenvalues(randic_matrix(g)).values
    assert sum(vals) == pytest.approx(0.0, abs=1e-9)
    frob = sum(2.0 / (g.degrees[u] * g.degrees[v]) for u, v in g.edges)
    assert sum(v * v for v in vals) == pytest.approx(frob, abs=1e-9)


@pytest.mark.parametrize(
    "spec",
    [FamilySpec("path", 9), FamilySpec("cycle", 7), FamilySpec("friendship", 4)],
)
def test_connected_randic_spectrum_peaks_at_one(spec):
    vals = eigenvalues(randic_matrix(generate(spec))).values
    assert vals[0] == pytest.approx(1.0, abs=1e-9)
    assert all(-1.0 - 1e-9 <= v <= 1.0 + 1e-9 for v in vals)


def test_energy_additive_over_disjoint_union():
    rng = random.Random(5)
    pool = [
        generate(FamilySpec("path", 4)),
        generate(FamilySpec("cycle", 5)),
        generate(FamilySpec("star", 6)),
        generate(FamilySpec("friendship", 2)),
    ]
    for _ in range(6):
        g1, g2 = rng.choice(pool), rng.choice(pool)
        whole = randic_energy(disjoint_union(g1, g2))
        assert whole == pytest.approx(randic_energy(g1) + randic_energy(g2), abs=1e-9)


def _core(g):
    # g less its isolated vertices, the others relabeled in order
    keep = [v for v in range(g.n) if g.degrees[v]]
    index = {v: i for i, v in enumerate(keep)}
    return Graph.from_edges(len(keep), [(index[u], index[v]) for u, v in g.edges])


def _graphs_with_isolated_vertices():
    rng = random.Random(31)
    graphs = []
    for _ in range(20):
        n = rng.randint(3, 40)
        graphs.append(_random_graph(rng, n, rng.randint(1, n - 2)))
    return graphs


@pytest.mark.parametrize("energy, build", [(randic_energy, randic_matrix), (graph_energy, adjacency_matrix)])
def test_energies_sum_the_spectrum_of_their_core_bit_for_bit(energy, build):
    # the energies sum the spectrum of their core's matrix by math.fsum, the
    # library's one rule for a float total: the same float as summing it here
    isolated = _graphs_with_isolated_vertices()
    assert all(0 in g.degrees for g in isolated)
    for g in [generate(spec) for spec in sweep_specs(24)] + isolated:
        assert energy(g) == math.fsum(abs(v) for v in eigenvalues(build(_core(g))).values)


def test_energies_call_the_solver_without_the_input_scan(monkeypatch):
    # a matrix built from a Graph skips SymMatrix's checking constructor, and
    # the energies reach the solver through eigenvalues alone
    g = _graphs_with_isolated_vertices()[0]
    want = randic_energy(g), graph_energy(g)

    def scan(self, entries):
        raise AssertionError("a matrix built from a Graph needs no input scan")

    orders = []
    solve = spectral.eigenvalues
    monkeypatch.setattr(SymMatrix, "__init__", scan)
    monkeypatch.setattr(spectral, "eigenvalues", lambda mat: orders.append(mat.order) or solve(mat))
    assert (randic_energy(g), graph_energy(g)) == want
    assert orders == [_core(g).n] * 2


# ---------------------------------------------------------------- eigensolver at larger orders


@pytest.mark.parametrize(
    "spec, want",
    [
        # F_n: 1 once, 1/2 with multiplicity n-1, -1/2 with multiplicity n+1
        (FamilySpec("friendship", 20), [1.0] + [0.5] * 19 + [-0.5] * 21),
        (FamilySpec("complete", 60), [1.0] + [-1.0 / 59] * 59),
        # rank 2: after two reflections the trailing block is rounding residue
        # that shrinks towards underflow at every later step
        (FamilySpec("complete_bipartite", 40, m=40), [1.0] + [0.0] * 78 + [-1.0]),
    ],
)
def test_eigenvalues_degenerate_clusters(spec, want):
    got = eigenvalues(randic_matrix(generate(spec))).values
    assert got == pytest.approx(want, abs=1e-11)


def test_eigenvalues_isolated_vertices_scattered():
    parts = [generate(FamilySpec("cycle", 7)), generate(FamilySpec("star", 5)), Graph(4, frozenset())]
    g = disjoint_union(disjoint_union(parts[0], parts[1]), parts[2])
    perm = list(range(g.n))
    random.Random(11).shuffle(perm)
    g = permute_vertices(g, perm)
    mat = randic_matrix(g)
    assert sum(1 for row in mat.entries if not any(row)) == 4
    want = sorted(
        [v for p in parts[:2] for v in eigenvalues(randic_matrix(p)).values] + [0.0] * 4,
        reverse=True,
    )
    assert eigenvalues(mat).values == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("offset", [0.0, -10.0])
def test_eigenvalues_random_symmetric_trace_and_frobenius(offset):
    # an offset of -10 puts the whole spectrum, and the LDL^T shift below
    # it, far below zero
    rng = random.Random(2014)
    n = 60
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.uniform(-1.0, 1.0) + (offset if i == j else 0.0)
    vals = eigenvalues(SymMatrix(tuple(tuple(r) for r in rows))).values
    assert len(vals) == n
    assert sum(vals) == pytest.approx(sum(rows[i][i] for i in range(n)), abs=1e-11)
    frob = sum(x * x for r in rows for x in r)
    assert sum(v * v for v in vals) == pytest.approx(frob, rel=1e-13)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-150, 1e150, 1e200, 1e300, 2.0**1015, 2.0**1020])
def test_eigenvalues_scale_with_the_matrix(scale):
    # every deflation test is relative, and a bipartite block's entries are
    # scaled by a power of two before they are squared, so a matrix scaled
    # far from 1 keeps its spectrum to the same relative accuracy on both
    # block routes, up to SymMatrix's limit: order times the largest |entry|
    # at most 2^1020 (2^1015 times 20 entries below 1 is within it, 2^1020
    # times them is past it)
    rng = random.Random(17)
    n = 20
    for bipartite in (False, True):
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if not bipartite or i < 9 <= j:
                    rows[i][j] = rows[j][i] = rng.uniform(-1.0, 1.0)
        scaled = tuple(tuple(scale * x for x in r) for r in rows)
        if n * max(abs(x) for r in scaled for x in r) > 2.0**1020:
            with pytest.raises(ValueError, match=r"exceeds 2\^1020"):
                SymMatrix(scaled)
            continue
        want = eigenvalues(SymMatrix(tuple(map(tuple, rows)))).values
        got = eigenvalues(SymMatrix(scaled)).values
        assert [x / scale for x in got] == pytest.approx(want, abs=1e-13)


def test_eigenvalues_random_graph_roots_of_exact_charpoly():
    rng = random.Random(7)
    n = 30
    edges = {(i - 1, i) for i in range(1, n)}  # a path keeps every degree positive
    while len(edges) < 55:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    g = Graph.from_edges(n, edges)
    spectrum = eigenvalues(randic_matrix(g))
    assert _max_root_residual(charpoly_exact(g), spectrum) < 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_wide_irregular_band_roots_of_exact_charpoly(seed):
    # a random connected non-bipartite graph of order 64-80 under a random
    # labeling: its one block, ordered by Cuthill-McKee, has a band some 25
    # wide and ragged. The exact polynomial is a reference that shares no
    # code with the chase, as a rotated matrix's spectrum does not
    rng = random.Random(f"wide-band:{seed}")
    n = 64 + 8 * (seed % 3)
    g = _shuffled(rng, _connected_graph(rng, n, 3 * n // 2))
    mat = randic_matrix(g)
    ((layers, bipartite),) = spectral._blocks(_supports(mat))
    assert not bipartite
    position = {v: i for i, v in enumerate(v for layer in layers for v in layer)}
    assert 20 <= max(abs(position[u] - position[v]) for u, v in g.edges) <= 35
    spectrum = eigenvalues(mat)
    assert _max_root_residual(charpoly_exact(g), spectrum) < 1e-9
    # the trace of R is 0 and that of R^2 is twice the sum of 1/(d_u*d_v) over the edges
    degs = g.degrees
    assert math.fsum(spectrum.values) == pytest.approx(0.0, abs=1e-12)
    want = 2.0 * math.fsum(1.0 / (degs[u] * degs[v]) for u, v in g.edges)
    assert math.fsum(x * x for x in spectrum.values) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------- twin split


def _random_orthogonal(rng, n):
    """Rows of a random orthogonal matrix: Gram-Schmidt, run twice, on
    Gaussian rows."""
    q = []
    for _ in range(n):
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        for _ in range(2):
            for u in q:
                dot = sum(a * b for a, b in zip(u, v))
                v = [a - dot * b for a, b in zip(v, u)]
        norm = math.sqrt(sum(a * a for a in v))
        q.append([a / norm for a in v])
    return q


def _rotated(mat, seed):
    """Q M Q^T for a seeded random orthogonal Q, symmetrized exactly."""
    n = mat.order
    q = _random_orthogonal(random.Random(seed), n)
    qm = [[sum(qi[k] * mat.entries[k][j] for k in range(n)) for j in range(n)] for qi in q]
    b = [[sum(a * c for a, c in zip(row, qj)) for qj in q] for row in qm]
    return SymMatrix(tuple(tuple(0.5 * (b[i][j] + b[j][i]) for j in range(n)) for i in range(n)))


def _assert_matches_rotation(mat, seed=0):
    got = eigenvalues(mat).values
    rotated = _rotated(mat, seed)
    # the rotation leaves no twins and no bipartite block, so this spectrum
    # comes from the tridiagonal's LDL^T alone
    assert _twin_classes(rotated) == []
    want = eigenvalues(rotated).values
    assert got == pytest.approx(want, abs=1e-12 * max(mat.order, 1))


def _twin_classes(mat):
    """The twin classes found in one pass over ``mat``, sorted."""
    return sorted(spectral._twin_classes(mat.entries, _supports(mat)))


def _with_planted_twins(rng, n, m, copies):
    """A random graph on n vertices and m edges plus ``copies`` added
    vertices, each a duplicate (same neighbours) or a co-duplicate (same
    neighbours and the original) of an earlier vertex."""
    edges = set()
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for new in range(n, n + copies):
        old = rng.randrange(new)
        adj[new] = set(adj[old]) | ({old} if rng.random() < 0.5 else set())
        for w in adj[new]:
            adj[w].add(new)
    return Graph.from_edges(n + copies, {(min(u, v), max(u, v)) for u in adj for v in adj[u]})


TWIN_GRAPHS = [
    generate(FamilySpec("complete", 9)),
    generate(FamilySpec("complete", 9, minus_edge=True)),
    generate(FamilySpec("complete_bipartite", 4, m=7)),
    generate(FamilySpec("complete_bipartite", 5, m=5, minus_edge=True)),
    generate(FamilySpec("friendship", 6)),
    delete_edge(generate(FamilySpec("friendship", 6)), 1, 2),
    generate(FamilySpec("dutch4", 5)),
    delete_edge(generate(FamilySpec("dutch4", 5)), 0, 1),
    generate(FamilySpec("star", 12)),
    generate(FamilySpec("star", 12, minus_edge=True)),
] + [_with_planted_twins(random.Random(seed), 14, 24, 8) for seed in range(4)]


@pytest.mark.parametrize("g", TWIN_GRAPHS, ids=range(len(TWIN_GRAPHS)))
@pytest.mark.parametrize("build", [randic_matrix, adjacency_matrix])
def test_twin_split_matches_rotated_spectrum(g, build):
    _assert_matches_rotation(build(g), seed=g.n)


def _planted_matrix(rng, n, classes):
    """A random symmetric matrix with a nonzero diagonal in which each
    (members, c) of ``classes`` is a twin class with inner entry c."""
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.choice([0.0, rng.uniform(-1.0, 1.0)])
        rows[i][i] = rng.uniform(0.5, 2.0)
    for members, c in classes:
        first = members[0]
        for v in members:
            for j in range(n):
                if j not in members:
                    rows[v][j] = rows[j][v] = rows[first][j]
            rows[v][v] = rows[first][first]
            for w in members:
                if w != v:
                    rows[v][w] = c
    return SymMatrix(tuple(tuple(r) for r in rows))


@pytest.mark.parametrize("seed", range(4))
def test_twin_split_nonzero_diagonal_matches_rotated_spectrum(seed):
    rng = random.Random(seed)
    classes = [([0, 3, 7], 0.0), ([1, 5], 0.0), ([2, 8, 9, 11], -0.375), ([4, 10], 1.5)]
    mat = _planted_matrix(rng, 13, classes)
    assert _twin_classes(mat) == sorted(members for members, _ in classes)
    _assert_matches_rotation(mat, seed)


@pytest.mark.parametrize(
    "spec, u, v, want",
    [
        # blade (1, 2) of friendship(4) stops being a twin pair when the
        # entry 1-0 or the diagonal of 1 moves by one ulp
        (FamilySpec("friendship", 4), 1, 0, [[3, 4], [5, 6], [7, 8]]),
        (FamilySpec("friendship", 4), 1, 1, [[3, 4], [5, 6], [7, 8]]),
        # in complete(6), the entry 1-5 parts 1 and 5 from the rest, a
        # difference past both indices of the pair (0, 1)
        (FamilySpec("complete", 6), 1, 5, [[0, 2, 3, 4], [1, 5]]),
    ],
)
def test_near_twins_one_ulp_apart_are_not_split(spec, u, v, want):
    entries = [list(r) for r in randic_matrix(generate(spec)).entries]
    entries[u][v] = entries[v][u] = math.nextafter(entries[u][v], 1.0)
    mat = SymMatrix(tuple(tuple(r) for r in entries))
    assert _twin_classes(mat) == want
    _assert_matches_rotation(mat)


def test_twin_split_class_structure():
    def classes(spec):
        return _twin_classes(randic_matrix(generate(spec)))

    assert classes(FamilySpec("complete", 5)) == [[0, 1, 2, 3, 4]]
    assert classes(FamilySpec("complete_bipartite", 3, m=2)) == [[0, 1], [2, 3, 4]]
    # friendship splits its blades in pairs first, then merges the blades
    assert classes(FamilySpec("friendship", 3)) == [[1, 2], [3, 4], [5, 6]]
    assert classes(FamilySpec("cycle", 7)) == []


def test_twin_split_exact_values(monkeypatch):
    values = eigenvalues(randic_matrix(generate(FamilySpec("complete", 128)))).values
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert values[1:] == (-1.0 / 127,) * 127
    assert randic_energy(generate(FamilySpec("friendship", 63))) == pytest.approx(64.0, abs=1e-9)
    # complete and complete bipartite graphs split down to one index: no dqds transform
    monkeypatch.setattr(spectral, "ITERATION_CAP", 0)
    for spec in (FamilySpec("complete", 40), FamilySpec("complete_bipartite", 20, m=30)):
        assert len(eigenvalues(randic_matrix(generate(spec)))) == spec.n + (spec.m or 0)


# ---------------------------------------------------------------- blocks


def _random_bipartite(rng, p, q, m, isolated):
    """A random graph with m edges between halves of p and q vertices, plus
    ``isolated`` vertices, all relabeled at random."""
    edges = set()
    while len(edges) < m:
        edges.add((rng.randrange(p), p + rng.randrange(q)))
    n = p + q + isolated
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, {(perm[u], perm[v]) for u, v in edges})


def _shuffled_union(seed, *specs):
    """Disjoint union of family graphs, relabeled at random."""
    g = Graph(0, frozenset())
    for spec in specs:
        g = disjoint_union(g, generate(spec))
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return permute_vertices(g, perm)


BLOCK_GRAPHS = [
    generate(FamilySpec("cycle", 10)),
    generate(FamilySpec("cycle", 11)),
    generate(FamilySpec("path", 9)),
    generate(FamilySpec("path", 12)),
    generate(FamilySpec("complete_bipartite", 6, m=3, minus_edge=True)),
    generate(FamilySpec("complete_bipartite", 2, m=7, minus_edge=True)),
    generate(FamilySpec("dutch4", 4)),
    _random_bipartite(random.Random(1), 5, 9, 16, 2),
    _random_bipartite(random.Random(2), 8, 3, 14, 3),
    _random_bipartite(random.Random(3), 4, 12, 20, 1),
    _shuffled_union(4, FamilySpec("path", 5), FamilySpec("cycle", 5), FamilySpec("dutch4", 3)),
    _shuffled_union(5, FamilySpec("cycle", 6), FamilySpec("complete", 4), FamilySpec("path", 1), FamilySpec("star", 5)),
    _shuffled_union(6, FamilySpec("friendship", 3), FamilySpec("path", 7), FamilySpec("cycle", 7)),
    disjoint_union(generate(FamilySpec("path", 4)), generate(FamilySpec("path", 7))),
]


@pytest.mark.parametrize("g", BLOCK_GRAPHS, ids=range(len(BLOCK_GRAPHS)))
@pytest.mark.parametrize("build", [randic_matrix, adjacency_matrix])
def test_block_split_matches_rotated_spectrum(g, build):
    _assert_matches_rotation(build(g), seed=g.n)


def _with_diagonal(mat, i, x):
    rows = [list(r) for r in mat.entries]
    rows[i][i] = x
    return SymMatrix(tuple(tuple(r) for r in rows))


def _blocks(mat):
    return [(sorted(v for layer in layers for v in layer), bipartite) for layers, bipartite in spectral._blocks(_supports(mat))]


def test_bipartite_support_with_a_diagonal_entry_takes_the_tridiagonal_route():
    path = adjacency_matrix(disjoint_union(generate(FamilySpec("path", 6)), generate(FamilySpec("cycle", 8))))
    assert _blocks(path) == [(list(range(6)), True), (list(range(6, 14)), True)]
    mat = _with_diagonal(path, 9, 0.5)
    assert _blocks(mat) == [(list(range(6)), True), (list(range(6, 14)), False)]
    _assert_matches_rotation(mat)


def test_negative_zero_diagonal_is_bipartite():
    cycle = randic_matrix(generate(FamilySpec("cycle", 10)))
    mat = _with_diagonal(cycle, 3, -0.0)
    assert _blocks(mat) == [(list(range(10)), True)]
    assert eigenvalues(mat).values == eigenvalues(cycle).values
    _assert_matches_rotation(mat)


def test_tridiagonal_block_is_read_off_without_a_rotation(monkeypatch):
    # a shuffled path with a nonzero diagonal is one non-bipartite block,
    # tridiagonal once ordered from an end: the chase makes no rotation. An
    # odd cycle, bandwidth 2 in that order, needs rotations
    hypot = math.hypot
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return hypot(x, y)

    for family, n in (("path", 48), ("cycle", 49)):
        rng = random.Random(n)
        rows = [list(r) for r in randic_matrix(_shuffled(rng, generate(FamilySpec(family, n)))).entries]
        for i in range(n):
            rows[i][i] = rng.uniform(-1.0, 1.0)
        mat = SymMatrix(tuple(map(tuple, rows)))
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(math, "hypot", counted)
            values = eigenvalues(mat).values
        assert bool(calls) is (family == "cycle")
        assert math.fsum(values) == pytest.approx(math.fsum(rows[i][i] for i in range(n)), abs=1e-13)
        _assert_matches_rotation(mat, seed=n)


@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_bidiagonalization_of_a_path_is_its_own_weights(n):
    # B, odd vertices by even ones, is already upper bidiagonal: no rotation
    mat = randic_matrix(generate(FamilySpec("path", n)))
    odd, even = range(1, n, 2), range(0, n, 2)
    b = [[mat.entries[i][j] for j in even] for i in odd]
    weights = [mat.entries[i][i + 1] for i in range(n - 1)] + [0.0] * (1 - n % 2)
    assert spectral._band_bidiagonalize(b) == (weights[0::2], weights[1::2])


def _one_block_bidiagonal(mat):
    """The bidiagonal the band route makes of a connected bipartite matrix."""
    ((layers, bipartite),) = spectral._blocks(_supports(mat))
    assert bipartite
    return spectral._block_bidiagonal(mat.entries, layers)


def test_band_route_reads_a_shuffled_path_off_its_weights():
    # whatever the labels, halves in breadth-first order from an end of the
    # path make B upper bidiagonal: its weights come back untouched, in order
    g = generate(FamilySpec("path", 64))
    natural = randic_matrix(g).entries
    weights = [natural[i][i + 1] for i in range(63)] + [0.0]
    shuffled = randic_matrix(_shuffled(random.Random(64), g))
    assert shuffled != natural
    assert _one_block_bidiagonal(shuffled) == (weights[0::2], weights[1::2])


@pytest.mark.parametrize("n", [5, 9, 31, 65])
def test_odd_path_folds_its_extra_column(n):
    # B is p x (p+1); a zero row appended makes it square, and the one zero
    # of the spectrum is emitted exactly
    mat = randic_matrix(_shuffled(random.Random(n), generate(FamilySpec("path", n))))
    a, b = _one_block_bidiagonal(mat)
    assert len(a) == len(b) == n // 2
    assert b[-1] != 0.0
    assert eigenvalues(mat).values.count(0.0) == 1
    _assert_matches_rotation(mat, seed=n)


# twin-free, halves of 6 and 6, nullity 2: its B is singular
SINGULAR_TREE = Graph.from_edges(
    12, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 8), (5, 6), (5, 11), (6, 7), (7, 9), (8, 10)]
)


def test_tree_with_nullity_beyond_its_halves_deflates_a_zero_diagonal():
    assert charpoly_exact(SINGULAR_TREE).coeffs[:3] == (0, 0, Fr(-1, 24))
    mat = randic_matrix(SINGULAR_TREE)
    assert _twin_classes(mat) == []
    a, _ = _one_block_bidiagonal(mat)
    assert len(a) == 6 and 0.0 in a
    assert sorted(map(abs, eigenvalues(mat).values))[:3] == [0.0, 0.0, pytest.approx(0.3766581318, abs=1e-9)]
    _assert_matches_rotation(mat)
    _assert_matches_rotation(adjacency_matrix(SINGULAR_TREE))


def _bipartite_forest(rng, cut):
    """A random tree of order 8 to 40 whose colour classes differ in size by
    0 to 3, relabeled at random, less ``cut`` random edges. Each vertex after
    a path of four joins an earlier vertex of the other class, one with no
    leaf neighbour where there is one, so that few leaves are twins and some
    zero singular values are left for dqds."""
    skew = rng.randint(0, 3)
    small = rng.randint(4, (40 - skew) // 2)
    n = 2 * small + skew
    colours = [0, 1, 0, 1] + rng.sample([0] * (small + skew - 2) + [1] * (small - 2), n - 4)
    adj = [{1}, {0, 2}, {1, 3}, {2}] + [set() for _ in range(n - 4)]
    for v in range(4, n):
        other = [u for u in range(v) if colours[u] != colours[v]]
        free = [u for u in other if all(len(adj[w]) > 1 for w in adj[u])]
        u = rng.choice(free or other)
        adj[u].add(v)
        adj[v].add(u)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    for _ in range(cut):
        edges.remove(rng.choice(edges))
    return _shuffled(rng, Graph.from_edges(n, edges))


@pytest.mark.parametrize(
    "g", [_bipartite_forest(random.Random(f"forest:{seed}"), seed % 4) for seed in range(24)] + [SINGULAR_TREE]
)
@pytest.mark.parametrize("build", [randic_matrix, adjacency_matrix])
def test_zero_eigenvalues_of_trees_and_forests_match_the_exact_nullity(g, build):
    # the multiplicity of the root 0 of the exact characteristic polynomial
    # counts the zeros: |p - q| of each block's halves, the twins' and those
    # of a singular B, which dqds splits off as zero q_i
    coeffs = charpoly_exact(g).coeffs
    nullity = next(i for i, c in enumerate(coeffs) if c)
    mat = build(g)
    assert sum(abs(x) < 1e-12 for x in eigenvalues(mat).values) == nullity
    _assert_matches_rotation(mat, seed=g.n)


def test_planted_tiny_singular_value_keeps_its_relative_accuracy():
    # weights 0.5, 1, 0.5, ..., 0.5 make B = 0.5*I + N, 33 x 33: the product
    # of its singular values is det B = 0.5^33, and the least is 8.7e-11
    mat = weighted_path([0.5, 1.0] * 32 + [0.5], seed=66)
    positive = eigenvalues(mat).values[:33]
    assert 8.7e-11 < positive[-1] < 8.8e-11
    assert math.prod(positive) == pytest.approx(0.5**33, rel=1e-13)
    _assert_matches_rotation(mat, seed=66)


def _frexp_product(xs):
    """The product of positive floats as (mantissa, exponent), free of
    underflow."""
    m, k = 1.0, 0
    for x in xs:
        m, j = math.frexp(m * x)
        k += j
    return m, k


def test_graded_path_splits_at_an_underflowed_coupling():
    # weights from 1e-9 to 1 on a path of order 220: the spectrum keeps the
    # trace of M^2 and the determinant of B. A coupling e_j underflows to 0
    # in mid array, but this test passes without dqds's split at a zero e_j;
    # test_weighted_path_across_200_decades, the planted-zero tests and
    # test_dqds_splits_exactly_at_zero_couplings are the ones that need it
    weights = graded_weights(20, 219, 9)
    values = eigenvalues(weighted_path(weights, seed=20)).values
    # the trace of M^2 is 2*sum(w^2), and the positive values multiply to
    # |det B|, the product of B's diagonal weights
    assert math.fsum(x * x for x in values) == pytest.approx(2.0 * math.fsum(w * w for w in weights), rel=1e-13)
    (m, k), (want, k0) = _frexp_product(values[:110]), _frexp_product(weights[0::2])
    assert math.ldexp(m, k - k0) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("seed", range(300))
def test_weighted_path_across_200_decades(seed):
    # a weight below 1e-154 of the largest squares to below the least normal
    # float and is taken as 0: a zero q_i leaves through dqds and a zero e_j
    # splits the array, where a subnormal one would stall or give NaN; the
    # trace of M^2 is 2*sum(w^2)
    weights = graded_weights(seed, 59, 200)
    values = eigenvalues(weighted_path(weights, seed)).values
    got, want = math.fsum(x * x for x in values), 2.0 * math.fsum(w * w for w in weights)
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("p, q", [(6, 6), (5, 9)])
def test_planted_tiny_singular_value_matches_rotated_spectrum(p, q):
    # B = U diag(sigma) V^T with sigma_1 = 1e-10: a dense bipartite block
    rng = random.Random(p * q)
    sigma = [1e-10] + [rng.uniform(0.5, 2.0) for _ in range(p - 1)]
    u, v = _random_orthogonal(rng, p), _random_orthogonal(rng, q)
    rows = [[0.0] * (p + q) for _ in range(p + q)]
    for i in range(p):
        for j in range(q):
            rows[i][p + j] = rows[p + j][i] = sum(u[i][k] * sigma[k] * v[k][j] for k in range(p))
    mat = SymMatrix(tuple(map(tuple, rows)))
    values = sorted(map(abs, eigenvalues(mat).values))
    assert values[: q - p] == [0.0] * (q - p)
    assert values[q - p : q - p + 2] == [pytest.approx(1e-10, abs=1e-14)] * 2
    _assert_matches_rotation(mat, seed=p + q)


@pytest.mark.parametrize("n", range(3, 17))
def test_crown_runs_the_chase_through_a_full_square_band(n):
    # dense, twin-free and bipartite: B is n x n with its band full from the
    # first step, and the chase ends on a last row with no superdiagonal
    g = _shuffled(random.Random(n), _crown(n))
    mat = randic_matrix(g)
    assert _twin_classes(mat) == []
    a, b = _one_block_bidiagonal(mat)
    assert len(a) == n and b[-1] == 0.0
    # (n-1)-regular, so R = A/(n-1): eigenvalues ±1 and ±1/(n-1), n-1 times each
    want = [1.0] + [1.0 / (n - 1)] * (n - 1) + [-1.0 / (n - 1)] * (n - 1) + [-1.0]
    assert list(eigenvalues(mat).values) == pytest.approx(want, abs=1e-13)
    assert randic_energy(g) == pytest.approx(4.0, abs=1e-9)
    assert graph_energy(g) == pytest.approx(4.0 * (n - 1), abs=1e-9)


@pytest.mark.parametrize("n", [10, 9], ids=["bipartite", "non-bipartite"])
def test_iteration_cap_raises_with_a_finite_residual(monkeypatch, n):
    # a twin-free cycle needs dqds transforms, on the singular values of its
    # bidiagonal or on the LDL^T of its tridiagonal; with a cap of 0 none is
    # allowed
    monkeypatch.setattr(spectral, "ITERATION_CAP", 0)
    with pytest.raises(ConvergenceError, match="dqds did not converge in 0 iterations") as err:
        eigenvalues(randic_matrix(generate(FamilySpec("cycle", n))))
    assert math.isfinite(err.value.residual) and err.value.residual > 0.0
    # K2 is a twin pair: split off exactly, with no transform
    assert eigenvalues(SymMatrix(((0.0, 1.0), (1.0, 0.0)))).values == (1.0, -1.0)


def test_dqds_converges_well_inside_the_iteration_cap(monkeypatch):
    # the least caps that converge are 5, 5, 10 and 9: a shift that
    # converges more slowly fails here before it reaches the cap of 30
    monkeypatch.setattr(spectral, "ITERATION_CAP", 12)
    for spec in (FamilySpec("path", 255), FamilySpec("cycle", 256), FamilySpec("cycle", 63), FamilySpec("cycle", 127)):
        assert randic_energy(generate(spec)) == pytest.approx(closed_energy(spec), abs=1e-9)


def _count_shifts(monkeypatch):
    """Wrap ``_dqds_shift``, ``_dqds`` and ``_singular_values``: the shifts
    asked for, and the values of every dqds array less the zero row each
    ``_singular_values`` call appends, as a dict of two running counts."""
    counts = {"shifts": 0, "values": 0}
    shift, dqds, singular_values = spectral._dqds_shift, spectral._dqds, spectral._singular_values

    def counted_shift(*args):
        counts["shifts"] += 1
        return shift(*args)

    def counted_dqds(q, e):
        counts["values"] += len(q)
        return dqds(q, e)

    def counted_singular_values(d, e):
        counts["values"] -= 1
        return singular_values(d, e)

    monkeypatch.setattr(spectral, "_dqds_shift", counted_shift)
    monkeypatch.setattr(spectral, "_dqds", counted_dqds)
    monkeypatch.setattr(spectral, "_singular_values", counted_singular_values)
    return counts


@pytest.mark.parametrize("n, most", [(255, 1035), (127, 554)])
def test_dqds_shift_calls_on_odd_cycles(monkeypatch, n, most):
    # 1.2 times the shifts of the DLASQ4 port (863 and 462): the bound from
    # the bottom 2 x 2 serves the bottom left after a deflation as well
    counts = _count_shifts(monkeypatch)
    randic_energy(generate(FamilySpec("cycle", n)))
    assert counts["values"] == n
    assert counts["shifts"] <= most


def test_dqds_shift_calls_per_value_over_the_sweep(monkeypatch):
    # 1.2 times the 3.19 per value of the DLASQ4 port
    from randic.verify import verify_all

    counts = _count_shifts(monkeypatch)
    verify_all(24)
    assert counts["shifts"] <= 3.83 * counts["values"]


@pytest.mark.parametrize("seed", range(200))
def test_dqds_converges_on_graded_arrays(seed):
    # entries across 15 decades: several values deflate between two
    # transforms, and the shift reads what is left of the last one's d_j;
    # the eigenvalues of B^T B add up to its trace, sum(q) + sum(e)
    q, e = graded_qd(seed, 60)
    trace = math.fsum(q + e)
    values = spectral._dqds(q, e)
    assert len(values) == len(q) and min(values) >= 0.0
    assert math.fsum(values) == pytest.approx(trace, rel=1e-12)


@pytest.mark.parametrize("seed", range(500))
def test_dqds_splits_exactly_at_zero_couplings(seed):
    # 2 to 4 qd arrays of order 1 to 25, entries 10^U(-8, 0), joined by
    # zero couplings: the first transform to meet a zero e_j splits the
    # array there, and each part gives, bit for bit, the values it gives
    # alone
    rng = random.Random(seed)
    parts = []
    for _ in range(rng.randint(2, 4)):
        k = rng.randint(1, 25)
        parts.append(([10 ** rng.uniform(-8, 0) for _ in range(k)], [10 ** rng.uniform(-8, 0) for _ in range(k - 1)]))
    q = [x for part, _ in parts for x in part]
    e = [x for _, part in parts for x in part + [0.0]][:-1]
    want = sorted(x for part in parts for x in spectral._dqds(*part))
    assert sorted(spectral._dqds(q, e)) == want


def test_dqds_writes_neither_list():
    rng = random.Random(12)
    q = [rng.uniform(0.1, 1.0) for _ in range(12)]
    e = [rng.uniform(0.1, 1.0) for _ in range(11)]
    q0, e0 = q[:], e[:]
    assert len(spectral._dqds(q, e)) == 12
    assert q == q0 and e == e0


def test_qd_pair_leaves_a_negligible_coupling_and_a_zero_t_alone():
    tol2 = (100.0 * sys.float_info.epsilon) ** 2
    # b <= c*tol^2: the coupling adds nothing, in either order of a and c
    assert spectral._qd_pair(1.0, 1e-40, 0.5, tol2) == (1.0, 0.5)
    assert spectral._qd_pair(0.5, 1e-40, 1.0, tol2) == (1.0, 0.5)
    # b > c*tol^2 = 0, but t = 0.5*b rounds to 0: no division by t
    tiny = 2.0**-1074
    assert 0.5 * tiny == 0.0
    assert spectral._qd_pair(0.0, tiny, 0.0, tol2) == (0.0, 0.0)


@pytest.mark.parametrize("seed", range(60))
def test_singular_values_of_bidiagonals_with_planted_zeros(seed):
    # m values, square or m x (m+1), with 1 to 3 zero diagonal entries; a
    # superdiagonal with no zero leaves rank at least m - 1, so a square B
    # has exactly one zero singular value and an m x (m+1) one none
    rng = random.Random(seed)
    m = rng.randint(1, 30)
    square = seed % 2 == 0
    d = [rng.uniform(0.1, 1.0) for _ in range(m)]
    e = [rng.uniform(0.1, 1.0) for _ in range(m - 1)] + [0.0 if square else rng.uniform(0.1, 1.0)]
    for j in rng.sample(range(m), min(m, rng.randint(1, 3))):
        d[j] = 0.0
    values = spectral._singular_values(d, e)
    assert len(values) == m and min(values) >= 0.0
    assert values.count(0.0) == int(square)
    got, want = math.fsum(x * x for x in values), math.fsum(x * x for x in d + e)
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize(
    "spec",
    [FamilySpec("cycle", n) for n in (3, 4, 5, 64, 129, 255, 256, 511)]
    + [FamilySpec("path", n) for n in (3, 4, 63, 128, 255, 256)]
    + [FamilySpec("dutch4", n) for n in (2, 3, 21, 85)],
    ids=FamilySpec.label,
)
def test_block_route_energy_matches_closed_form(spec):
    assert randic_energy(generate(spec)) == pytest.approx(closed_energy(spec), abs=1e-9)


def test_energies_order_cap():
    cap = spectral.ENERGY_ORDER_CAP
    # a perfect matching is twin pairs, so the solve at the cap is quick
    at_cap = Graph.from_edges(cap + 3, [(2 * i, 2 * i + 1) for i in range(cap // 2)])
    assert randic_energy(at_cap) == pytest.approx(cap, abs=1e-9)
    assert graph_energy(at_cap) == pytest.approx(cap, abs=1e-9)
    above = Graph.from_edges(cap + 2, [(2 * i, 2 * i + 1) for i in range(cap // 2 + 1)])
    for energy in (randic_energy, graph_energy):
        with pytest.raises(DomainError, match="capped"):
            energy(above)


def test_exact_and_numeric_routes_share_no_name_of_the_module():
    # each name defined at the top level of spectral.py, followed through
    # every name its definition reads; imports such as Graph are not followed
    tree = ast.parse(Path(spectral.__file__).read_text(encoding="utf-8"))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                defined[target.id] = node

    def reachable(*roots):
        seen, todo = set(), list(roots)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo += [n.id for n in ast.walk(defined[name]) if isinstance(n, ast.Name) and n.id in defined]
        return seen

    exact = reachable("charpoly_exact")
    numeric = reachable("eigenvalues", "randic_energy", "graph_energy", "randic_matrix", "adjacency_matrix")
    assert "_hessenberg_charpoly" in exact and "_dqds" in numeric
    assert exact & numeric == set()
