import math
import random

import pytest

from randic import (
    DomainError,
    EdgeNotFoundError,
    FamilySpec,
    Graph,
    UnsupportedFamilyError,
    delete_edge,
    format_edge_list,
    generate,
    is_bipartite,
    parse_edge_list,
    permute_vertices,
)

from oracles import bfs_order_and_depths, disjoint_union, is_connected

from randic import graphs, spectral
from randic.graphs import EDGE_LIST_MAX_ORDER, FAMILY_MAX_EDGES


def test_path_canonical_labels():
    g = generate(FamilySpec("path", 3))
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_friendship_two_triangles():
    g = generate(FamilySpec("friendship", 2))
    assert g.n == 5
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)})


def test_dutch4_two_blades():
    g = generate(FamilySpec("dutch4", 2))
    assert g.n == 7
    assert len(g.edges) == 8
    assert g.degrees == (4, 2, 2, 2, 2, 2, 2)
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)})


def test_star_and_complete_bipartite_labels():
    star = generate(FamilySpec("star", 4))
    assert star.edges == frozenset({(0, 1), (0, 2), (0, 3)})
    kmn = generate(FamilySpec("complete_bipartite", 3, m=2))
    assert kmn.n == 5
    assert kmn.edges == frozenset({(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)})


@pytest.mark.parametrize("n", range(1, 9))
def test_friendship_counts(n):
    g = generate(FamilySpec("friendship", n))
    assert (g.n, len(g.edges)) == (2 * n + 1, 3 * n)


@pytest.mark.parametrize("n", range(1, 9))
def test_dutch4_counts(n):
    g = generate(FamilySpec("dutch4", n))
    assert (g.n, len(g.edges)) == (3 * n + 1, 4 * n)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 5), (4, 4), (3, 7)])
def test_complete_bipartite_counts(m, n):
    g = generate(FamilySpec("complete_bipartite", n, m=m))
    assert (g.n, len(g.edges)) == (m + n, m * n)


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("path", 0),
        FamilySpec("cycle", 2),
        FamilySpec("star", 1),
        FamilySpec("complete", 0),
        FamilySpec("complete_bipartite", 0, m=2),
        FamilySpec("complete_bipartite", 3),  # missing m
        FamilySpec("friendship", 0),
        FamilySpec("dutch4", 0),
        FamilySpec("path", 3, m=2),  # m on a non-bipartite family
        FamilySpec("nonsense", 3),
        FamilySpec("path", 1, minus_edge=True),  # no edge to delete
        FamilySpec("complete", 1, minus_edge=True),
    ],
)
def test_generate_domain_errors(spec):
    with pytest.raises(DomainError):
        generate(spec)


def test_family_edge_limit_admits_every_energy_order():
    assert FAMILY_MAX_EDGES == math.comb(spectral.ENERGY_ORDER_CAP, 2)
    graphs._validate_spec(FamilySpec("complete", spectral.ENERGY_ORDER_CAP))
    with pytest.raises(DomainError, match="limit"):
        generate(FamilySpec("complete", spectral.ENERGY_ORDER_CAP + 1))


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("path", FAMILY_MAX_EDGES + 2),
        FamilySpec("cycle", FAMILY_MAX_EDGES + 1),
        FamilySpec("cycle", FAMILY_MAX_EDGES + 2, minus_edge=True),
        FamilySpec("star", 10**12),
        FamilySpec("complete", 100_000),
        FamilySpec("complete_bipartite", 1024, m=512),
        FamilySpec("friendship", FAMILY_MAX_EDGES // 3 + 1),
        FamilySpec("dutch4", FAMILY_MAX_EDGES // 4 + 1),
    ],
    ids=FamilySpec.label,
)
def test_family_above_edge_limit_is_domain_error(spec):
    # rejected from n and m alone: none of these is ever built
    with pytest.raises(DomainError, match="limit"):
        generate(spec)


@pytest.mark.parametrize("family", sorted(graphs.FAMILIES))
@pytest.mark.parametrize("minus_edge", [False, True])
def test_family_size_matches_generated_graph(family, minus_edge):
    for n in range(1, 8):
        spec = FamilySpec(family, n, m=3 if family == "complete_bipartite" else None, minus_edge=minus_edge)
        try:
            g = generate(spec)
        except (DomainError, UnsupportedFamilyError):
            continue
        assert graphs._family_size(spec) == (g.n, len(g.edges))


@pytest.mark.parametrize("family", sorted(graphs.FAMILIES))
@pytest.mark.parametrize("minus_edge", [False, True])
def test_family_core_size_matches_generated_graph(family, minus_edge):
    # the non-isolated vertices, as the energy sweep's order check counts
    # them without building the graph
    for n in range(1, 8):
        for m in [1, 2, 3] if family == "complete_bipartite" else [None]:
            spec = FamilySpec(family, n, m=m, minus_edge=minus_edge)
            try:
                g = generate(spec)
            except (DomainError, UnsupportedFamilyError):
                continue
            assert graphs._family_core_size(spec) == g.n - g.degrees.count(0), spec.label()


@pytest.mark.parametrize("family", ["friendship", "dutch4"])
def test_minus_edge_unsupported(family):
    with pytest.raises(UnsupportedFamilyError):
        generate(FamilySpec(family, 3, minus_edge=True))


def test_minus_edge_canonical_deletions():
    assert (0, 1) not in generate(FamilySpec("path", 4, minus_edge=True)).edges
    assert (0, 1) not in generate(FamilySpec("cycle", 5, minus_edge=True)).edges
    assert (0, 1) not in generate(FamilySpec("star", 4, minus_edge=True)).edges
    assert (0, 1) not in generate(FamilySpec("complete", 4, minus_edge=True)).edges
    kmn = generate(FamilySpec("complete_bipartite", 3, m=2, minus_edge=True))
    assert (0, 2) not in kmn.edges
    assert len(kmn.edges) == 5


@pytest.mark.parametrize("family", sorted(graphs.FAMILIES - graphs.WINDMILL_CYCLE.keys()))
def test_minus_edge_is_the_full_graph_less_its_canonical_edge(family):
    ms = range(1, 6) if family == "complete_bipartite" else [None]
    checked = 0
    for n in range(1, 13):
        for m in ms:
            spec = FamilySpec(family, n, m=m, minus_edge=True)
            try:
                got = generate(spec)
            except DomainError:
                continue
            canonical = (0, m) if m is not None else (0, 1)
            assert got == delete_edge(generate(FamilySpec(family, n, m=m)), *canonical), spec.label()
            checked += 1
    assert checked >= 10


def test_delete_edge_cycle_gives_path_shape():
    g = delete_edge(generate(FamilySpec("cycle", 4)), 0, 1)
    assert sorted(g.degrees) == [1, 1, 2, 2]
    assert is_connected(g)


def test_delete_edge_star_isolates_leaf():
    g = delete_edge(generate(FamilySpec("star", 4)), 0, 1)
    assert g.degrees == (2, 0, 1, 1)
    assert not is_connected(g)


def test_delete_edge_splits_path():
    g = delete_edge(generate(FamilySpec("path", 5)), 1, 2)
    assert sorted(g.degrees) == [1, 1, 1, 1, 2]
    assert not is_connected(g)


def test_delete_edge_absent_raises():
    g = generate(FamilySpec("path", 4))
    with pytest.raises(EdgeNotFoundError):
        delete_edge(g, 0, 2)


@pytest.mark.parametrize(
    "spec", [FamilySpec("cycle", 6), FamilySpec("complete", 5), FamilySpec("friendship", 3)]
)
def test_delete_edge_degree_drop(spec):
    g = generate(spec)
    for u, v in sorted(g.edges):
        h = delete_edge(g, u, v)
        for w in range(g.n):
            expected = g.degrees[w] - (1 if w in (u, v) else 0)
            assert h.degrees[w] == expected


def test_disjoint_union_examples():
    k2 = generate(FamilySpec("complete", 2))
    u = disjoint_union(k2, k2)
    assert u.n == 4
    assert u.edges == frozenset({(0, 1), (2, 3)})
    p3 = generate(FamilySpec("path", 3))
    assert disjoint_union(p3, Graph(0, frozenset())) == p3
    p2 = generate(FamilySpec("path", 2))
    assert disjoint_union(p2, p3).degrees == (1, 1, 1, 2, 1)


def test_disjoint_union_counts_add():
    rng = random.Random(11)
    pool = [
        generate(FamilySpec("path", rng.randint(1, 6))) for _ in range(4)
    ] + [generate(FamilySpec("cycle", rng.randint(3, 6))) for _ in range(4)]
    for g1 in pool:
        for g2 in pool:
            u = disjoint_union(g1, g2)
            assert u.n == g1.n + g2.n
            assert len(u.edges) == len(g1.edges) + len(g2.edges)
            assert sum(u.degrees) == 2 * len(u.edges)


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("path", 7),
        FamilySpec("cycle", 5),
        FamilySpec("star", 6, minus_edge=True),
        FamilySpec("dutch4", 3),
        FamilySpec("complete_bipartite", 4, m=2),
    ],
)
def test_degree_sum_is_twice_edges(spec):
    g = generate(spec)
    assert sum(g.degrees) == 2 * len(g.edges)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))  # stored pairs must be sorted
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        Graph(-1, frozenset())
    assert Graph.from_edges(3, [(2, 1)]).edges == frozenset({(1, 2)})


def test_permute_vertices_preserves_structure():
    g = generate(FamilySpec("path", 5))
    h = permute_vertices(g, [4, 2, 0, 1, 3])
    assert sorted(h.degrees) == sorted(g.degrees)
    with pytest.raises(ValueError):
        permute_vertices(g, [0, 0, 1, 2, 3])


def test_bipartite_detection():
    assert is_bipartite(generate(FamilySpec("path", 6)))
    assert is_bipartite(generate(FamilySpec("cycle", 8)))
    assert not is_bipartite(generate(FamilySpec("cycle", 7)))
    assert not is_bipartite(generate(FamilySpec("friendship", 2)))
    assert is_bipartite(generate(FamilySpec("complete_bipartite", 3, m=3)))
    assert not is_bipartite(generate(FamilySpec("complete", 4)))


def test_bfs_order_and_depths():
    # components in the order of their smallest vertex, each visited from
    # it with neighbours ascending; the isolated vertex 3 is a component
    g = Graph.from_edges(8, [(7, 4), (0, 5), (6, 5), (4, 1), (0, 2), (2, 5)])
    order, depth = graphs._bfs(graphs._neighbour_masks(g))
    assert order == [0, 2, 5, 6, 1, 4, 7, 3]
    assert depth == [0, 0, 1, 0, 1, 1, 2, 2]


def test_bfs_matches_a_search_over_sorted_neighbour_lists():
    # the mask walk visits vertices in the order of the plain search, which
    # fixes the labeling, and so the matrix, that charpoly_exact reduces
    rng = random.Random(20261021)
    for _ in range(20):
        n = rng.randint(10, 128)
        core = rng.sample(range(n), rng.randint(max(6, n // 2), n - 2))  # the rest isolated
        parts = [core[i::3] for i in range(3)]  # three vertex sets, no edge between
        edges = [
            (u, v)
            for part in parts
            for _ in range(rng.randint(len(part) - 1, 2 * len(part)))
            for u, v in [rng.sample(part, 2)]
        ]
        g = Graph.from_edges(n, edges)
        assert graphs._bfs(graphs._neighbour_masks(g)) == bfs_order_and_depths(g)


def test_bipartite_detection_matches_two_colourings():
    # a graph is bipartite when some 2-colouring leaves no edge inside a colour
    rng = random.Random(20261018)
    for _ in range(200):
        n = rng.randint(1, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, min(len(pairs), n + 2))))
        two_colourable = any(
            all((mask >> u & 1) != (mask >> v & 1) for u, v in g.edges) for mask in range(1 << n)
        )
        assert is_bipartite(g) == two_colourable, g


def test_edge_list_round_trip():
    g = generate(FamilySpec("dutch4", 2))
    text = format_edge_list(g)
    assert parse_edge_list(text) == g
    assert text.splitlines()[0] == "7 8"


def test_edge_list_comments_and_blanks():
    text = "# a graph\n\n3 2\n0 1\n\n# interior comment\n1 2\n"
    assert parse_edge_list(text) == generate(FamilySpec("path", 3))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n0 1",
        "3 2\n0 1",  # missing edge line
        "3 1\n0 0",  # self loop
        "3 2\n0 1\n0 1",  # duplicate
        "2 1\n0 5",  # out of range
    ],
)
def test_edge_list_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


def test_edge_list_rejects_an_edge_line_of_three_fields():
    with pytest.raises(ValueError, match=r"edge line must be 'u v', got '0 1 2'"):
        parse_edge_list("3 1\n0 1 2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 x\n", "header must be two integers 'n m', got '2 x'"),
        ("2 1\n0 x\n", "edge line must be two integers 'u v', got '0 x'"),
        ("2 1\n0 1.0\n", "edge line must be two integers 'u v', got '0 1.0'"),
    ],
)
def test_edge_list_names_the_line_with_a_non_integer_token(text, message):
    with pytest.raises(ValueError) as err:
        parse_edge_list(text)
    assert str(err.value) == message


def test_edge_list_header_order_limit():
    assert parse_edge_list(f"{EDGE_LIST_MAX_ORDER} 1\n0 1\n").n == EDGE_LIST_MAX_ORDER
    with pytest.raises(ValueError, match="limit"):
        parse_edge_list(f"{EDGE_LIST_MAX_ORDER + 1} 1\n0 1\n")
