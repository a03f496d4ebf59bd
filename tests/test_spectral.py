import math
import random
from fractions import Fraction as Fr

import pytest
import oracles
from oracles import charpoly_at, charpoly_bruteforce

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
    disjoint_union,
    eigenvalues,
    generate,
    graph_energy,
    permute_vertices,
    randic_energy,
    randic_index,
    randic_matrix,
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


MERSENNE_ENTRIES = [p for p, a in spectral.CERTIFIED_PRIMES if a is None]
PROTH_ENTRIES = [(p, a) for p, a in spectral.CERTIFIED_PRIMES if a is not None]


@pytest.mark.parametrize("e", [p.bit_length() for p in MERSENNE_ENTRIES])
def test_mersenne_exponents_are_prime(e):
    # Lucas-Lehmer: for an odd prime e, 2^e - 1 is prime iff s_{e-2} = 0
    assert e > 2 and all(e % q for q in range(2, math.isqrt(e) + 1))
    p = (1 << e) - 1
    assert p in MERSENNE_ENTRIES
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % p
    assert s == 0


@pytest.mark.parametrize("p, a", PROTH_ENTRIES, ids=[f"{p.bit_length()}bit" for p, _ in PROTH_ENTRIES])
def test_proth_entries_are_prime(p, a):
    # Proth: p = k·2^e + 1 with k odd, k < 2^e, is prime if a^((p-1)/2) = -1 mod p
    e = ((p - 1) & (1 - p)).bit_length() - 1
    k = (p - 1) >> e
    assert k % 2 == 1 and k < 1 << e
    assert pow(a, (p - 1) // 2, p) == p - 1


def test_certified_primes_table_shape():
    primes = [p for p, _ in spectral.CERTIFIED_PRIMES]
    assert primes == sorted(set(primes))
    assert primes[0] == (1 << 61) - 1
    # each entry is at most 32 bits above the one before it
    assert all(b < a << 32 for a, b in zip(primes, primes[1:]))


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
    [(0, 61), ((1 << 53) - 1, 61), ((1 << 61) - 2, 61), ((1 << 61) - 1, 89), (1 << 151, 180), (1 << 1019, 1020)],
)
def test_modulus_is_smallest_certified_prime_above_bound(bound, bits):
    p = spectral._modulus(bound)
    assert p > bound and p.bit_length() == bits
    assert all(q <= bound for q, _ in spectral.CERTIFIED_PRIMES if q < p)


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
    p = (1 << 61) - 1
    h = [[1, 2, 3], [0, 4, 5], [6, 7, 8]]
    # det(λI - H) = λ^3 - tr·λ^2 + (sum of principal 2-minors)·λ - det
    minors = (1 * 4 - 2 * 0) + (1 * 8 - 3 * 6) + (4 * 8 - 5 * 7)
    det = 1 * (4 * 8 - 5 * 7) - 2 * (0 * 8 - 5 * 6) + 3 * (0 * 7 - 4 * 6)
    want = [-det % p, minors % p, -13 % p, 1]
    assert spectral._hessenberg_charpoly(h, p) == want


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
    # coefficient bounds of ~150 bits, between the Mersenne primes 2^127 - 1
    # and 2^521 - 1
    rng = random.Random(f"sparse-64:{seed}")
    g = _connected_graph(rng, 64, 96)
    p = charpoly_exact(g)
    for x in (0, 2, Fr(-1, 2)):
        assert p(x) == charpoly_at(g, x)
    assert charpoly_exact(_shuffled(rng, g)) == p


def _complement(g):
    return Graph.from_edges(
        g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in g.edges]
    )


def test_charpoly_beyond_largest_modulus_is_domain_error(monkeypatch):
    # the complement of a path of order >= 4 is twin-free, so its quotient is
    # itself: 2·18^2·17^18·C(20, 10) has 101 bits, more than 2^89 - 1, the
    # largest prime of the table cut after its second entry
    monkeypatch.setattr(spectral, "CERTIFIED_PRIMES", spectral.CERTIFIED_PRIMES[:2])
    g = _complement(generate(FamilySpec("path", 20)))
    with pytest.raises(DomainError, match="modulus above a 101-bit bound; the largest certified prime has 89 bits"):
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
        new = [(u, g.n) for u in g.adjacency[v]] + ([(v, g.n)] if closed else [])
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
    for v in range(g.n):
        if g.adjacency[v]:
            for key in (frozenset(g.adjacency[v]), frozenset(g.adjacency[v]) | {v}):
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


# ---------------------------------------------------------------- eigensolver


def test_eigenvalues_exchange_matrix():
    spec = eigenvalues(SymMatrix(((0.0, 1.0), (1.0, 0.0))))
    assert spec.values == pytest.approx((1.0, -1.0), abs=1e-12)


def test_eigenvalues_randic_k3():
    spec = eigenvalues(randic_matrix(generate(FamilySpec("complete", 3))))
    assert spec.values == pytest.approx((1.0, -0.5, -0.5), abs=1e-12)


def test_eigenvalues_randic_c4():
    spec = eigenvalues(randic_matrix(generate(FamilySpec("cycle", 4))))
    assert spec.values == pytest.approx((1.0, 0.0, 0.0, -1.0), abs=1e-12)


@pytest.mark.parametrize("n", [3, 5, 8, 12, 200])
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


def test_eigenvalues_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues(SymMatrix(((0.0, 1.0), (0.5, 0.0))))
    with pytest.raises(ValueError):
        eigenvalues(SymMatrix(((1.0,),)), tol=0.0)


def test_eigenvalues_trivial_orders():
    assert eigenvalues(SymMatrix(())).values == ()
    assert eigenvalues(SymMatrix(((3.5,),))).values == (3.5,)


def test_convergence_error_carries_residual(monkeypatch):
    # no twins (the diagonals differ), so the QL iteration is needed
    monkeypatch.setattr(spectral, "QL_ITERATION_CAP", 0)
    mat = SymMatrix(((0.0, 1.0), (1.0, 1.0)))
    with pytest.raises(ConvergenceError, match="in 0 iterations") as err:
        eigenvalues(mat)
    assert err.value.residual == pytest.approx(SQRT2, abs=1e-12)
    # K2 is a twin pair: split off exactly, with no QL iteration
    assert eigenvalues(SymMatrix(((0.0, 1.0), (1.0, 0.0)))).values == (1.0, -1.0)


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


def test_eigenvalues_random_symmetric_trace_and_frobenius():
    rng = random.Random(2014)
    n = 60
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.uniform(-1.0, 1.0)
    vals = eigenvalues(SymMatrix(tuple(tuple(r) for r in rows))).values
    assert len(vals) == n
    assert sum(vals) == pytest.approx(sum(rows[i][i] for i in range(n)), abs=1e-11)
    frob = sum(x * x for r in rows for x in r)
    assert sum(v * v for v in vals) == pytest.approx(frob, rel=1e-13)


def test_eigenvalues_random_graph_roots_of_exact_charpoly():
    from randic.verify import _max_root_residual

    rng = random.Random(7)
    n = 30
    edges = {(i - 1, i) for i in range(1, n)}  # a path keeps every degree positive
    while len(edges) < 55:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    g = Graph.from_edges(n, edges)
    spectrum = eigenvalues(randic_matrix(g))
    assert _max_root_residual(charpoly_exact(g), spectrum) < 1e-9


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
    # the rotation leaves no twins, so this spectrum comes from QL alone
    assert _twin_classes(rotated) == []
    want = eigenvalues(rotated).values
    assert got == pytest.approx(want, abs=1e-12 * max(mat.order, 1))


def _twin_classes(mat):
    """The twin classes found in one pass over ``mat``, sorted."""
    supports = [sum(1 << j for j, x in enumerate(r) if x) for r in mat.entries]
    return sorted(spectral._twin_classes(mat.entries, supports))


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
    # complete and complete bipartite graphs split down to one index: no QL step
    monkeypatch.setattr(spectral, "QL_ITERATION_CAP", 0)
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
    supports = [sum(1 << j for j, x in enumerate(r) if x) for r in mat.entries]
    return [(sorted(even + odd), bipartite) for (even, odd), bipartite in spectral._blocks(supports)]


def test_bipartite_support_with_a_diagonal_entry_takes_householder():
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


@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_bidiagonalization_of_a_path_is_its_own_weights(n):
    # B, odd vertices by even ones, is already upper bidiagonal: no reflection
    mat = randic_matrix(generate(FamilySpec("path", n)))
    odd, even = range(1, n, 2), range(0, n, 2)
    b = [[mat.entries[i][j] for j in even] for i in odd]
    weights = [mat.entries[i][i + 1] for i in range(n - 1)]
    assert spectral._bidiagonalize(b, len(even)) == weights + [0.0] * (2 * len(odd) - n + 1)


@pytest.mark.parametrize(
    "spec",
    [FamilySpec("cycle", n) for n in (3, 4, 5, 64, 129, 256)]
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


@pytest.mark.parametrize(
    "entries",
    [
        ((0.0, math.inf), (math.inf, 0.0)),
        ((math.inf, 1.0), (1.0, 0.0)),
        ((0.0, -math.inf), (-math.inf, 0.0)),
        ((math.nan, 1.0), (1.0, 0.0)),
    ],
)
def test_eigenvalues_rejects_nonfinite_entries(entries):
    with pytest.raises(ValueError, match="non-finite"):
        eigenvalues(SymMatrix(entries))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-12, 0.0])
def test_eigenvalues_rejects_nonfinite_or_nonpositive_tol(tol):
    with pytest.raises(ValueError):
        eigenvalues(SymMatrix(((0.0, 1.0), (1.0, 0.0))), tol=tol)
