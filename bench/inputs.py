"""Workload inputs, generated from the seed with the standard library only.

Both sides of the benchmark build the same inputs from the same seed: the
worker hands them to ``randic`` and the runner hands them to the oracle.
Named-family graphs use the canonical labelings documented in
``randic.graphs`` but are built here, so the program only ever sees edge
lists. Random graphs and unions get a seeded vertex relabeling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

VERIFY_MAX_N = 24
VERIFY_WITNESS_MAX = 20  # the CLI default for --witness-max
CLI_GRAPHS = 340
CLI_MAX_ORDER = 12
CLI_COMMANDS = ("charpoly", "energy", "energy-adjacency")


@dataclass(frozen=True)
class Family:
    """A named family instance, in the parameters of ``randic.FamilySpec``."""

    family: str
    n: int
    m: Optional[int] = None
    minus_edge: bool = False

    def label(self) -> str:
        base = f"{self.family}({self.n})" if self.m is None else f"{self.family}({self.m},{self.n})"
        return base + "-e" if self.minus_edge else base


@dataclass(frozen=True)
class GraphInput:
    """An edge list plus the named families it is a disjoint union of.

    ``parts`` is empty for random graphs, which have no closed form.
    """

    label: str
    n: int
    edges: tuple[tuple[int, int], ...]
    parts: tuple[Family, ...] = ()


@dataclass(frozen=True)
class Case:
    """One operation: ``kind`` names the call, ``graph`` its input."""

    kind: str
    graph: GraphInput


def family_edges(f: Family) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a named family, canonically labeled."""
    n = f.n
    if f.family == "path":
        order, edges = n, [(i, i + 1) for i in range(n - 1)]
    elif f.family == "cycle":
        order, edges = n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif f.family == "star":
        order, edges = n, [(0, i) for i in range(1, n)]
    elif f.family == "complete":
        order, edges = n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif f.family == "complete_bipartite":
        order, edges = f.m + n, [(i, f.m + j) for i in range(f.m) for j in range(n)]
    elif f.family == "friendship":
        order, edges = 2 * n + 1, []
        for i in range(1, n + 1):
            edges += [(0, 2 * i - 1), (0, 2 * i), (2 * i - 1, 2 * i)]
    elif f.family == "dutch4":
        order, edges = 3 * n + 1, []
        for i in range(1, n + 1):
            a, b, c = 3 * i - 2, 3 * i - 1, 3 * i
            edges += [(0, a), (a, b), (b, c), (0, c)]
    else:
        raise ValueError(f"unknown family {f.family!r}")
    if f.minus_edge:
        edges.remove((0, f.m) if f.family == "complete_bipartite" else (0, 1))
    return order, edges


def named(f: Family) -> GraphInput:
    n, edges = family_edges(f)
    return GraphInput(f.label(), n, tuple(edges), (f,))


def _relabel(rng: random.Random, n: int, edges) -> tuple[tuple[int, int], ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))


def union(rng: random.Random, families: list[Family]) -> GraphInput:
    """Disjoint union of named families, relabeled at random."""
    edges, off = [], 0
    for f in families:
        n, es = family_edges(f)
        edges += [(u + off, v + off) for u, v in es]
        off += n
    label = " + ".join(f.label() for f in families)
    return GraphInput(label, off, _relabel(rng, off, edges), tuple(families))


def random_graph(rng: random.Random, n: int, m: int, connected: bool) -> GraphInput:
    """Uniform graph with n vertices and m edges; with ``connected`` it
    starts from a random tree, so it has one component."""
    edges: set[tuple[int, int]] = set()
    if connected:
        edges.update((rng.randrange(v), v) for v in range(1, n))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    kind = "connected" if connected else "random"
    return GraphInput(f"{kind}({n},{m})", n, _relabel(rng, n, edges))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# Orders are fixed so that the seed changes the graphs but not the size of
# the work; degenerate spectra (friendship, dutch4) sit beside distinct ones.
_ENERGY_NAMED = [
    ("re", Family("path", 80)),
    ("re", Family("cycle", 80)),
    ("re", Family("star", 80)),
    ("re", Family("complete", 80)),
    ("re", Family("complete_bipartite", 40, m=40)),
    ("re", Family("friendship", 26)),
    ("re", Family("dutch4", 18)),
    ("e", Family("path", 48)),
    ("e", Family("cycle", 48)),
    ("e", Family("star", 80)),
    ("e", Family("complete", 80)),
    ("e", Family("complete_bipartite", 40, m=40)),
]
_UNION_FAMILIES = [
    lambda k: Family("path", 3 * k),
    lambda k: Family("cycle", 3 * k),
    lambda k: Family("star", 3 * k),
    lambda k: Family("complete", 3 * k),
    lambda k: Family("complete_bipartite", k, m=2 * k),
    lambda k: Family("friendship", (3 * k - 1) // 2),
    lambda k: Family("dutch4", k),
]


def energy_large(seed: int) -> list[Case]:
    rng = _rng("energy-large", seed)
    cases = [Case(kind, named(f)) for kind, f in _ENERGY_NAMED]
    cases += [Case("spectrum", random_graph(rng, 80, 120, connected=False)) for _ in range(2)]
    picks = rng.sample(_UNION_FAMILIES, 3)
    cases.append(Case("spectrum", union(rng, [pick(8) for pick in picks])))
    return cases


_EXACT_NAMED = [
    Family("path", 64),
    Family("cycle", 64),
    Family("star", 64),
    Family("friendship", 31),
    Family("dutch4", 21),
    Family("complete_bipartite", 32, m=32),
    Family("complete", 64),
    Family("complete", 56, minus_edge=True),
]


def exact_large(seed: int) -> list[Case]:
    rng = _rng("exact-large", seed)
    cases = [Case("charpoly", named(f)) for f in _EXACT_NAMED]
    cases += [Case("charpoly", random_graph(rng, 64, 96, connected=True)) for _ in range(3)]
    return cases


def cli_small(seed: int) -> list[GraphInput]:
    """Edge lists of 2..12 vertices in a fixed order mix; every fourth one
    has one or two isolated vertices."""
    rng = _rng("cli-small", seed)
    graphs = []
    for i in range(CLI_GRAPHS):
        n = 2 + i % (CLI_MAX_ORDER - 1)
        core = n - (1 + (i // 4) % 2 if i % 4 == 0 and n > 3 else 0)
        pairs = [(u, v) for u in range(core) for v in range(u + 1, core)]
        m = rng.randint(1, len(pairs))
        graphs.append(GraphInput(f"g{i:03d}", n, _relabel(rng, n, rng.sample(pairs, m))))
    return graphs


def cli_file(directory: Path, g: GraphInput) -> Path:
    return directory / f"{g.label}.txt"


def prepare(workload: str, seed: int, directory: Path) -> None:
    """Write the input files a workload's operations read: cli-small's edge
    lists, in the CLI's format ("n m", then one "u v" line per edge)."""
    directory.mkdir(parents=True)
    if workload == "cli-small":
        for g in cli_small(seed):
            text = "".join([f"{g.n} {len(g.edges)}\n"] + [f"{u} {v}\n" for u, v in g.edges])
            cli_file(directory, g).write_text(text, encoding="utf-8")


def cli_argv(graph_file: str, command: str) -> list[str]:
    if command == "charpoly":
        return ["charpoly", "--input", graph_file, "--format", "json"]
    argv = ["energy", "--input", graph_file, "--format", "json"]
    return argv + ["--adjacency"] if command == "energy-adjacency" else argv


def verify_argv(report_file: str) -> list[str]:
    return ["verify", "--max-n", str(VERIFY_MAX_N), "--report", report_file]


# The work `randic verify --max-n N` must do, written out here so that a
# change that drops part of the sweep fails the check instead of reading as
# a speed-up. A spec is (family, n, m, minus_edge), as in the report.

def verify_sweep_specs(max_n: int) -> list[tuple]:
    """The 252 family instances of the sweep at max_n = 24."""
    specs = [("path", n, None, False) for n in range(2, max_n + 1)]
    specs += [("cycle", n, None, False) for n in range(3, max_n + 1)]
    specs += [("star", n, None, False) for n in range(2, max_n + 1)]
    specs += [("complete", n, None, False) for n in range(2, min(max_n, 30) + 1)]
    specs += [("complete_bipartite", n, m, False) for m in range(2, 13) for n in range(m, 13)]
    specs += [("friendship", n, None, False) for n in range(2, 13)]
    specs += [("dutch4", n, None, False) for n in range(2, 13)]
    specs += [("complete", n, None, True) for n in range(3, 31)]
    specs += [("complete_bipartite", n, m, True) for m in range(2, 11) for n in range(m, 11)]
    return specs


def verify_lemma_records(max_n: int) -> list[tuple]:
    """The 320 edge-deletion lemma records at max_n = 24, as (spec, notes):
    every split of path(n) for n = 2..N, cycle(n) - e and star(n) - e for
    n = 3..N."""
    records = [
        (("path", n, None, True), f"path split r={r} s={n - r}")
        for n in range(2, max_n + 1)
        for r in range(1, n)
    ]
    records += [(("cycle", n, None, True), "cycle minus edge vs path") for n in range(3, max_n + 1)]
    records += [(("star", n, None, True), "star minus edge vs 2") for n in range(3, max_n + 1)]
    return records


def verify_witness_notes(witness_max: int) -> list[str]:
    """Notes of the integer-energy witness records, m = 2..witness_max."""
    return [f"integer energy witness m={m}" for m in range(2, witness_max + 1)]
