"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output section on failure). The family sweep shared by the first
criteria is computed once per module.
"""

import json
import math
import random
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from randic import (
    FamilySpec,
    Graph,
    RatPoly,
    charpoly_exact,
    check_edge_deletion_lemmas,
    closed_charpoly,
    closed_energy,
    eigenvalues,
    generate,
    graph_energy,
    is_bipartite,
    lambda_poly,
    path_graph_energy,
    randic_energy,
    randic_matrix,
    verify_all,
)
from randic.cli import main as cli_main

from oracles import cheb_u, disjoint_union, is_connected

ENERGY_TOL = 1e-9
RESIDUAL_TOL = 1e-6


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL {name}")
        raise
    print(f"[criterion {num:02d}] PASS {name}")


def acceptance_specs() -> list[FamilySpec]:
    specs: list[FamilySpec] = []
    specs += [FamilySpec("path", n) for n in range(5, 41)]
    specs += [FamilySpec("cycle", n) for n in range(3, 41)]
    specs += [FamilySpec("star", n) for n in range(2, 41)]
    specs += [FamilySpec("complete", n) for n in range(2, 31)]
    specs += [FamilySpec("complete_bipartite", n, m=m) for m in range(2, 13) for n in range(m, 13)]
    specs += [FamilySpec("friendship", n) for n in range(2, 13)]
    specs += [FamilySpec("dutch4", n) for n in range(2, 13)]
    specs += [FamilySpec("complete", n, minus_edge=True) for n in range(3, 31)]
    specs += [
        FamilySpec("complete_bipartite", n, m=m, minus_edge=True)
        for m in range(2, 11)
        for n in range(m, 11)
    ]
    return specs


@dataclass
class SweptInstance:
    spec: FamilySpec
    graph: Graph
    exact: RatPoly
    closed: RatPoly
    values: tuple[float, ...]
    re_numeric: float
    re_closed: float


@dataclass
class SweepData:
    instances: list[SweptInstance]
    poly_seconds: float


@pytest.fixture(scope="module")
def sweep() -> SweepData:
    partial = []
    t0 = time.perf_counter()
    for spec in acceptance_specs():
        g = generate(spec)
        partial.append((spec, g, charpoly_exact(g), closed_charpoly(spec)))
    poly_seconds = time.perf_counter() - t0
    instances = []
    for spec, g, exact, closed in partial:
        values = eigenvalues(randic_matrix(g)).values
        instances.append(
            SweptInstance(
                spec=spec,
                graph=g,
                exact=exact,
                closed=closed,
                values=values,
                re_numeric=sum(abs(v) for v in values),
                re_closed=closed_energy(spec),
            )
        )
    return SweepData(instances, poly_seconds)


def test_criterion_01_exact_formula_reproduction(sweep):
    with criterion(1, "closed charpoly equals exact charpoly on the full sweep"):
        assert len(sweep.instances) == 303
        for inst in sweep.instances:
            assert inst.closed == inst.exact, f"charpoly mismatch for {inst.spec.label()}"
        assert sweep.poly_seconds < 60.0, f"sweep took {sweep.poly_seconds:.1f}s"


def test_criterion_02_energy_closed_forms(sweep):
    with criterion(2, "numeric energies match closed forms within 1e-9"):
        for inst in sweep.instances:
            err = abs(inst.re_numeric - inst.re_closed)
            assert err < ENERGY_TOL, f"energy mismatch for {inst.spec.label()}: {err:.3e}"
        # the particular closed values
        for n in range(2, 31):
            assert closed_energy(FamilySpec("complete", n)) == 2.0
        for n in range(2, 41):
            assert closed_energy(FamilySpec("star", n)) == 2.0
        for m in range(2, 13):
            assert closed_energy(FamilySpec("complete_bipartite", 12, m=m)) == 2.0
        for n in range(3, 31):
            assert closed_energy(FamilySpec("complete", n, minus_edge=True)) == 2.0
        for n in range(2, 13):
            assert closed_energy(FamilySpec("friendship", n)) == float(n + 1)
            assert closed_energy(FamilySpec("dutch4", n)) == pytest.approx(
                2.0 + (n - 1) * math.sqrt(2.0), abs=1e-15
            )
        for m in range(2, 11):
            for n in range(m, 11):
                spec = FamilySpec("complete_bipartite", n, m=m, minus_edge=True)
                assert closed_energy(spec) == pytest.approx(
                    2.0 + 2.0 / math.sqrt(m * n), abs=1e-15
                )


def test_criterion_03_path_lemma(sweep):
    with criterion(3, "path energy lemma for 5 <= n <= 40, analytic and numeric"):
        re_by_n = {
            inst.spec.n: inst.re_numeric
            for inst in sweep.instances
            if inst.spec.family == "path" and not inst.spec.minus_edge
        }
        for n in range(5, 41):
            sub_analytic = path_graph_energy(n - 2)
            sub_numeric = graph_energy(generate(FamilySpec("path", n - 2)))
            assert abs(sub_analytic - sub_numeric) < ENERGY_TOL
            assert abs(re_by_n[n] - (2.0 + 0.5 * sub_analytic)) < ENERGY_TOL
            assert abs(re_by_n[n] - (2.0 + 0.5 * sub_numeric)) < ENERGY_TOL


def test_criterion_04_even_cycle_lemma(sweep):
    with criterion(4, "even cycle energy lemma for 2 <= n <= 20"):
        re_by_n = {
            inst.spec.n: inst.re_numeric
            for inst in sweep.instances
            if inst.spec.family == "cycle" and not inst.spec.minus_edge
        }
        for h in range(2, 21):
            formula = (
                2.0 * math.sin((h // 2 + 0.5) * math.pi / h) / math.sin(math.pi / (2 * h))
            )
            assert abs(re_by_n[2 * h] - formula) < ENERGY_TOL


def test_criterion_05_edge_deletion_lemmas():
    with criterion(5, "edge deletion lemmas for paths, cycles, stars up to n=20"):
        report = check_edge_deletion_lemmas(20)
        assert report.n_fail == 0
        assert len(report.records) > 0
        for rec in report.records:
            assert rec.charpoly_match
            assert rec.energy_abs_err < ENERGY_TOL


def union_part(spec: FamilySpec) -> tuple[Graph, RatPoly, float]:
    """A graph with its expected polynomial and energy, from the closed forms
    or, where they stop short, from a definition written out here."""
    g = generate(spec)
    if g.n == 1:  # K_1 = P_1, an isolated vertex
        return g, RatPoly.x(), 0.0
    if spec.family == "star" and spec.minus_edge:  # λ·φ(star(n-1)), energy 2
        return g, closed_charpoly(FamilySpec("star", spec.n - 1)).shift(1), 2.0
    return g, closed_charpoly(spec), closed_energy(spec)


def test_criterion_06_union_additivity():
    with criterion(6, "exact polynomial and energy additivity on 53 disjoint unions"):
        specs: list[FamilySpec] = []
        specs += [FamilySpec("path", n) for n in range(2, 9)]
        specs += [FamilySpec("cycle", n) for n in range(3, 9)]
        specs += [FamilySpec("star", n) for n in range(2, 9)]
        specs += [FamilySpec("complete", n) for n in range(2, 7)]
        specs += [
            FamilySpec("complete_bipartite", n, m=m) for m, n in [(2, 2), (2, 3), (3, 3), (2, 4)]
        ]
        specs += [FamilySpec("friendship", n) for n in (2, 3, 4)]
        specs += [FamilySpec("dutch4", n) for n in (2, 3)]
        specs += [
            FamilySpec("complete", 5, minus_edge=True),
            FamilySpec("star", 6, minus_edge=True),
            FamilySpec("complete_bipartite", 3, m=2, minus_edge=True),
        ]
        pool = [union_part(spec) for spec in specs]
        rng = random.Random(20260808)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(50)]
        examples = [("path", 2, 3), ("complete", 3, 1), ("friendship", 2, 2)]
        pairs += [
            (union_part(FamilySpec(family, n)), union_part(FamilySpec(family, k)))
            for family, n, k in examples
        ]
        for (g1, p1, e1), (g2, p2, e2) in pairs:
            union = disjoint_union(g1, g2)
            assert charpoly_exact(union) == p1 * p2
            assert abs(randic_energy(union) - e1 - e2) < ENERGY_TOL


def test_criterion_07_integer_energy_witnesses():
    with criterion(7, "integer energy witnesses for 2 <= m <= 20"):
        report = verify_all(5)
        witnesses = [r for r in report.records if r.notes.startswith("integer energy witness")]
        assert [r.notes for r in witnesses] == [
            f"integer energy witness m={m}" for m in range(2, 21)
        ]
        for rec in witnesses:
            assert rec.passed()
            assert rec.energy_abs_err < ENERGY_TOL


def test_criterion_08_chebyshev_oracle():
    with criterion(8, "tridiagonal determinants scale to Chebyshev U_k, k <= 32"):
        for k in range(1, 33):
            assert lambda_poly(k) * 2**k == cheb_u(k)


def test_criterion_09_spectral_property_suite(sweep):
    with criterion(9, "trace/range/Frobenius/symmetry/peak/residual on every instance"):
        for inst in sweep.instances:
            g, vals = inst.graph, inst.values
            label = inst.spec.label()
            assert abs(sum(vals)) < ENERGY_TOL, f"trace off for {label}"
            assert all(-1.0 - ENERGY_TOL <= v <= 1.0 + ENERGY_TOL for v in vals), label
            frob = sum(2.0 / (g.degrees[u] * g.degrees[v]) for u, v in g.edges)
            assert abs(sum(v * v for v in vals) - frob) < ENERGY_TOL, label
            if is_bipartite(g):
                n = len(vals)
                sym = max(abs(vals[i] + vals[n - 1 - i]) for i in range(n))
                assert sym < ENERGY_TOL, f"spectrum not symmetric for {label}"
            if is_connected(g) and g.edges:
                assert abs(vals[0] - 1.0) < ENERGY_TOL, f"peak not 1 for {label}"
            residual = max(abs(float(inst.exact(v))) for v in vals)
            assert residual < RESIDUAL_TOL, f"root residual {residual:.3e} for {label}"


def test_criterion_10_verify_determinism(tmp_path, capsys):
    with criterion(10, "consecutive verify runs are byte-identical modulo meta"):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            code = cli_main(
                ["verify", "--max-n", "5", "--report", str(p)]
            )
            assert code == 0
        capsys.readouterr()
        raw1, raw2 = (p.read_text() for p in paths)

        def strip_timestamp(text: str) -> str:
            return re.sub(r'^\s*"generated_at": .*$', "", text, flags=re.MULTILINE)

        assert strip_timestamp(raw1) == strip_timestamp(raw2)
        d1, d2 = json.loads(raw1), json.loads(raw2)
        meta1 = d1.pop("meta")
        d2.pop("meta")
        assert {"tool", "version", "generated_at"} <= set(meta1)
        assert json.dumps(d1, indent=2) == json.dumps(d2, indent=2)
