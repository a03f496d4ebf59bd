import math
import random
from fractions import Fraction as Fr

import pytest
from oracles import charpoly_bruteforce

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
    assert mat.is_symmetric()


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
    assert p.is_monic
    # zero trace and the exact second coefficient identity
    assert p.coefficient(g.n - 1) == 0
    expected = -sum(Fr(1, g.degrees[u] * g.degrees[v]) for u, v in g.edges)
    assert p.coefficient(g.n - 2) == expected


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
    assert p.coefficient(0) == 0
    assert p == charpoly_exact(generate(FamilySpec("star", 3))).shift(1)


def test_charpoly_empty_and_edgeless_graphs():
    from randic import Graph

    assert charpoly_exact(Graph(0, frozenset())) == RatPoly.one()
    assert charpoly_exact(Graph(3, frozenset())) == RatPoly.monomial(3)


def test_charpoly_order_cap():
    g = generate(FamilySpec("path", 130))
    with pytest.raises(DomainError):
        charpoly_exact(g)
    assert charpoly_exact(g, order_cap=130).degree == 130


# ---------------------------------------------------------------- modular kernel


@pytest.mark.parametrize("e", spectral.MERSENNE_EXPONENTS)
def test_mersenne_exponents_are_prime(e):
    # Lucas-Lehmer: for an odd prime e, 2^e - 1 is prime iff s_{e-2} = 0
    assert e > 2 and all(e % q for q in range(2, math.isqrt(e) + 1))
    p = (1 << e) - 1
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % p
    assert s == 0


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


def test_charpoly_label_invariant_order_100():
    rng = random.Random(100)
    n = 100
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < 150:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    g = Graph.from_edges(n, edges)
    perm = list(range(n))
    rng.shuffle(perm)
    assert charpoly_exact(permute_vertices(g, perm)) == charpoly_exact(g)


def test_charpoly_beyond_largest_modulus_is_domain_error():
    # 2·459^460·C(460, 230) has more bits than 2^4423 - 1
    g = generate(FamilySpec("complete", 460))
    with pytest.raises(DomainError, match="modulus"):
        charpoly_exact(g, order_cap=460)


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


def test_convergence_error_carries_residual():
    mat = SymMatrix(((0.0, 1.0), (1.0, 0.0)))
    with pytest.raises(ConvergenceError) as err:
        eigenvalues(mat, max_sweeps=0)
    assert err.value.residual == pytest.approx(SQRT2, abs=1e-12)


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
