"""Graph representation, named-family generators, and graph surgery.

Vertices are 0-indexed. Family generators use fixed canonical labelings so
every downstream computation is reproducible bit-for-bit:

* path / cycle: vertices 0..n-1 in order
* star: center 0
* complete bipartite: parts {0..m-1} and {m..m+n-1}
* friendship and dutch4 are the windmills D_3^(n) and D_4^(n): n copies of
  the cycle C_k (k = 3, 4) sharing the center 0, cycle i running through
  0, (k-1)(i-1)+1, ..., (k-1)i in order, so friendship has triangle i on
  {2i-1, 2i} and dutch4 has 4-cycle i through {3i-2, 3i-1, 3i}

``Graph`` and ``FamilySpec`` are immutable, hashable value classes that
compare field by field.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

from ._record import FrozenRecord
from .errors import DomainError, EdgeNotFoundError, UnsupportedFamilyError

PATH = "path"
CYCLE = "cycle"
STAR = "star"
COMPLETE = "complete"
COMPLETE_BIPARTITE = "complete_bipartite"
FRIENDSHIP = "friendship"
DUTCH4 = "dutch4"

FAMILIES = frozenset(
    {PATH, CYCLE, STAR, COMPLETE, COMPLETE_BIPARTITE, FRIENDSHIP, DUTCH4}
)

# Windmill families: cycle length k of the n cycles that share the center.
WINDMILL_CYCLE = {FRIENDSHIP: 3, DUTCH4: 4}

# Smallest n each family generator accepts (complete_bipartite also needs m >= 1).
_MIN_N = {
    PATH: 1,
    CYCLE: 3,
    STAR: 2,
    COMPLETE: 1,
    COMPLETE_BIPARTITE: 1,
    FRIENDSHIP: 1,
    DUTCH4: 1,
}


class Graph(FrozenRecord):
    """Simple undirected graph: vertex count plus a set of sorted vertex pairs.

    Immutable and hashable; ``degrees`` and ``adjacency`` are computed on
    first use and cached on the instance.
    """

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        self.__dict__.update(n=n, edges=edges)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph, normalizing each pair to (min, max)."""
        normalized = frozenset((u, v) if u < v else (v, u) for u, v in edges)
        return cls(n, normalized)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists, each sorted ascending."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


class FamilySpec(FrozenRecord):
    """A named graph family instance, optionally with its canonical edge deleted.

    ``m`` is meaningful only for complete_bipartite (part sizes m and n).
    Immutable and hashable.
    """

    _fields = ("family", "n", "m", "minus_edge")

    def __init__(self, family: str, n: int, m: int | None = None, minus_edge: bool = False):
        self.__dict__.update(family=family, n=n, m=m, minus_edge=minus_edge)

    def label(self) -> str:
        base = f"{self.family}({self.m},{self.n})" if self.m is not None else f"{self.family}({self.n})"
        return base + "-e" if self.minus_edge else base


# Most edges a family instance may have. Generating a graph builds its edge
# set, so the limit is checked on the count worked out from n and m before
# anything is built. It is C(1024, 2), the edges of the largest complete
# graph whose energies the numeric route accepts (spectral.ENERGY_ORDER_CAP).
FAMILY_MAX_EDGES = 523_776


def _family_size(spec: FamilySpec) -> tuple[int, int]:
    """Vertex and edge counts of a family instance, from its parameters alone."""
    fam, n = spec.family, spec.n
    if fam == COMPLETE_BIPARTITE:
        order, size = spec.m + n, spec.m * n
    elif fam in WINDMILL_CYCLE:
        k = WINDMILL_CYCLE[fam]
        order, size = (k - 1) * n + 1, k * n
    elif fam == COMPLETE:
        order, size = n, n * (n - 1) // 2
    else:
        order, size = n, n if fam == CYCLE else n - 1
    return order, size - 1 if spec.minus_edge else size


def _family_core_size(spec: FamilySpec) -> int:
    """Non-isolated vertices of a family instance, from its parameters alone:
    its order, less each end of the deleted edge that had no other edge (0
    for an instance with no edge at all)."""
    order, size = _family_size(spec)
    if not size:
        return 0
    if not spec.minus_edge:
        return order
    # the degrees of the canonical edge's ends, (0, 1) or (0, m), before it goes
    fam, n = spec.family, spec.n
    if fam == COMPLETE_BIPARTITE:
        ends = (n, spec.m)
    elif fam == PATH:
        ends = (1, 2)
    elif fam == STAR:
        ends = (n - 1, 1)
    else:
        ends = (n - 1, n - 1) if fam == COMPLETE else (2, 2)
    return order - ends.count(1)


def _validate_spec(spec: FamilySpec) -> None:
    if spec.family not in FAMILIES:
        raise DomainError(f"unknown family {spec.family!r}")
    if spec.family == COMPLETE_BIPARTITE:
        if spec.m is None:
            raise DomainError("complete_bipartite requires the m parameter")
        if spec.m < 1 or spec.n < 1:
            raise DomainError("complete_bipartite requires m >= 1 and n >= 1")
    else:
        if spec.m is not None:
            raise DomainError(f"m parameter is only valid for complete_bipartite, not {spec.family}")
        if spec.n < _MIN_N[spec.family]:
            raise DomainError(f"{spec.family} requires n >= {_MIN_N[spec.family]} (got n={spec.n})")
    if spec.minus_edge:
        if spec.family in WINDMILL_CYCLE:
            raise UnsupportedFamilyError(f"minus_edge is not supported for {spec.family}")
        if spec.family in (PATH, COMPLETE) and spec.n < 2:
            raise DomainError(f"{spec.family} with minus_edge requires n >= 2 (needs an edge)")
    edges = _family_size(spec)[1]
    if edges > FAMILY_MAX_EDGES:
        raise DomainError(f"{spec.label()} has {edges} edges; the limit is {FAMILY_MAX_EDGES}")


def generate(spec: FamilySpec) -> Graph:
    """Build the canonical labeled graph for a family spec.

    When ``minus_edge`` is set, the canonical edge is removed: (0,1) for
    path/cycle/star/complete and (0,m) for complete_bipartite.
    """
    _validate_spec(spec)
    fam, n = spec.family, spec.n
    edges: list[tuple[int, int]]
    if fam == PATH:
        edges = [(i, i + 1) for i in range(n - 1)]
    elif fam == CYCLE:
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif fam == STAR:
        edges = [(0, i) for i in range(1, n)]
    elif fam == COMPLETE:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif fam == COMPLETE_BIPARTITE:
        m = spec.m
        edges = [(i, m + j) for i in range(m) for j in range(n)]
    else:  # windmill
        k = WINDMILL_CYCLE[fam]
        edges = []
        for i in range(n):
            cycle = [0, *range((k - 1) * i + 1, (k - 1) * (i + 1) + 1)]
            edges += zip(cycle, cycle[1:] + [0])
    order, _ = _family_size(spec)
    g = Graph.from_edges(order, edges)
    if spec.minus_edge:
        u, v = (0, spec.m) if fam == COMPLETE_BIPARTITE else (0, 1)
        g = delete_edge(g, u, v)
    return g


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """Remove one edge; the vertex set is unchanged (may isolate vertices)."""
    key = (min(u, v), max(u, v))
    if key not in g.edges:
        raise EdgeNotFoundError(f"edge ({u},{v}) not in graph")
    return Graph(g.n, g.edges - {key})


def permute_vertices(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel vertex v to perm[v]; perm must be a permutation of range(n)."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    return Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def _bfs(g: Graph) -> tuple[list[int], list[int]]:
    """Breadth-first visiting order of all vertices, and each vertex's depth:
    each component from its smallest vertex on, neighbours ascending."""
    depth = [-1] * g.n
    order: list[int] = []
    for start in range(g.n):
        if depth[start] < 0:
            depth[start] = 0
            queue = [start]
            for u in queue:
                for w in g.adjacency[u]:
                    if depth[w] < 0:
                        depth[w] = depth[u] + 1
                        queue.append(w)
            order += queue
    return order, depth


def is_bipartite(g: Graph) -> bool:
    """Whether no edge joins two vertices of equal breadth-first depth."""
    depth = _bfs(g)[1]
    return all(depth[u] != depth[v] for u, v in g.edges)


def format_edge_list(g: Graph) -> str:
    """Serialize as the plain text edge-list format: "n m" then one "u v" per edge."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


# Largest vertex count an edge-list header may declare. The exact route is
# capped at 128 non-isolated vertices and the dense numeric one is cubic, so a
# graph this large could only be mostly isolated vertices; the limit rejects an
# absurd header before anything is sized by it.
EDGE_LIST_MAX_ORDER = 100_000


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; blank lines and lines starting with '#' are ignored.

    Raises ValueError on malformed input, and DomainError (a ValueError) on a
    header vertex count above ``EDGE_LIST_MAX_ORDER``.
    """
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    if n > EDGE_LIST_MAX_ORDER:
        raise DomainError(f"header declares {n} vertices; the limit is {EDGE_LIST_MAX_ORDER}")
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges: set[tuple[int, int]] = set()
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"edge line must be 'u v', got {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ValueError(f"self-loop {ln!r} not allowed")
        key = (min(u, v), max(u, v))
        if key in edges:
            raise ValueError(f"duplicate edge {ln!r}")
        edges.add(key)
    return Graph.from_edges(n, edges)
