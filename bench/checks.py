"""Output checks, run by the runner after the clock has stopped.

The first round's outputs are checked against the oracle or against
properties every correct output has; each later round must repeat the
first round's outputs exactly (verify reports outside ``meta``). Each check
returns a list of problems; an empty list means correct. Outputs of
operations that raised are skipped: those are counted as failed instead.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction

import inputs
import oracle

TOL = 1e-9  # the library's report tolerance for energies and symmetry
IDENTITY_POINTS = 2


def _close(got: float, want: float, tol: float = TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def spectrum_problems(g: inputs.GraphInput, values: list[float]) -> list[str]:
    """Properties of every Randic spectrum: length n, values in [-1, 1],
    trace 0, Σλ² = 2Σ 1/(d_u d_v), λ_max = 1 with multiplicity equal to the
    number of components with an edge, and ± symmetry when bipartite."""
    out = []
    vals = sorted(values, reverse=True)
    n = g.n
    if len(vals) != n:
        return [f"{g.label}: {len(vals)} eigenvalues for order {n}"]
    if not all(-1 - TOL <= v <= 1 + TOL for v in vals):
        out.append(f"{g.label}: eigenvalue outside [-1, 1]")
    if abs(math.fsum(vals)) > TOL * n:
        out.append(f"{g.label}: trace {math.fsum(vals):.3e} is not 0")
    squares = 2 * float(oracle.randic_square_sum(n, g.edges))
    if not _close(math.fsum(v * v for v in vals), squares, TOL * n):
        out.append(f"{g.label}: Σλ² differs from 2Σ1/(d_u d_v) = {squares}")
    if g.edges and not _close(vals[0], 1.0):
        out.append(f"{g.label}: λ_max = {vals[0]!r}, not 1")
    ones = sum(1 for v in vals if abs(v - 1) < 1e-6)
    components = oracle.nontrivial_components(n, g.edges)
    if ones != components:
        out.append(f"{g.label}: eigenvalue 1 has multiplicity {ones}, components with an edge {components}")
    if oracle.is_bipartite(n, g.edges):
        err = max(abs(vals[i] + vals[n - 1 - i]) for i in range(n))
        if err > TOL:
            out.append(f"{g.label}: bipartite spectrum not symmetric (err {err:.3e})")
    return out


def check_energy_large(seed: int, first: dict) -> list[str]:
    out = []
    for case, got in zip(inputs.energy_large(seed), first["outputs"]):
        g = case.graph
        if got is None:
            continue
        if case.kind == "re":
            want = math.fsum(oracle.randic_energy(f) for f in g.parts)
        elif case.kind == "e":
            want = math.fsum(oracle.adjacency_energy(f) for f in g.parts)
        else:
            out += spectrum_problems(g, got)
            if not g.parts:
                continue
            got = math.fsum(abs(v) for v in got)
            want = math.fsum(oracle.randic_energy(f) for f in g.parts)
        if not _close(got, want):
            out.append(f"{g.label} {case.kind}: {got!r}, analytic {want!r}")
    return out


def polynomial_problems(g: inputs.GraphInput, coeffs: list[Fraction], points) -> list[str]:
    """Monic of degree n, no λ^(n-1) term, [λ^(n-2)] = -Σ 1/(d_u d_v),
    p(1) = 0, and p(x) = det(xI - W) at the given integer points."""
    n = g.n
    if len(coeffs) != n + 1 or coeffs[n] != 1:
        return [f"{g.label}: not monic of degree {n}"]
    out = []
    if coeffs[n - 1] != 0:
        out.append(f"{g.label}: coefficient of λ^(n-1) is {coeffs[n - 1]}")
    if coeffs[n - 2] != -oracle.randic_square_sum(n, g.edges):
        out.append(f"{g.label}: coefficient of λ^(n-2) is {coeffs[n - 2]}")
    if g.edges and oracle.evaluate(coeffs, 1) != 0:
        out.append(f"{g.label}: p(1) != 0")
    for x in points:
        if oracle.evaluate(coeffs, x) != oracle.char_value(n, g.edges, x):
            out.append(f"{g.label}: p({x}) != det({x}I - W)")
    return out


def check_exact_large(seed: int, first: dict) -> list[str]:
    out = []
    rng = random.Random(f"identity:{seed}")
    relabeled = first["extras"]
    for i, (case, got) in enumerate(zip(inputs.exact_large(seed), first["outputs"])):
        g = case.graph
        points = [rng.randrange(2, 10**6) for _ in range(IDENTITY_POINTS)]
        if got is None:
            continue
        coeffs = [Fraction(c) for c in got["poly"]]
        out += polynomial_problems(g, coeffs, points)
        if g.parts and got["closed_equal"] is not True:
            out.append(f"{g.label}: exact polynomial differs from closed_charpoly")
        if not g.parts and relabeled.get(str(i)) != got["poly"]:
            out.append(f"{g.label}: polynomial changes under a relabeling")
    return out


def _json(text: str, label: str, problems: list[str]):
    try:
        return json.loads(text)
    except ValueError:
        problems.append(f"{label}: output is not JSON: {text!r}")
        return None


def check_cli_small(seed: int, first: dict) -> list[str]:
    out: list[str] = []
    ops = [(g, c) for g in inputs.cli_small(seed) for c in inputs.CLI_COMMANDS]
    spectra: dict[tuple[str, bool], tuple[list[Fraction], float]] = {}

    def oracle_for(g, walk):
        key = (g.label, walk)
        if key not in spectra:
            p = oracle.charpoly(g.n, g.edges, walk)
            spectra[key] = (p, oracle.poly_energy(p))
        return spectra[key]

    for (g, command), got in zip(ops, first["outputs"]):
        if got is None:
            continue
        label = f"{command} {g.label}"
        if got["code"] != 0:
            out.append(f"{label}: exit code {got['code']}")
            continue
        data = _json(got["stdout"], label, out)
        if data is None:
            continue
        if command == "charpoly":
            p, _ = oracle_for(g, True)
            if data.get("degree") != g.n or [Fraction(c) for c in data.get("coeffs_ascending", [])] != p:
                out.append(f"{label}: polynomial differs from the oracle")
            continue
        if not _close(data.get("re", math.nan), oracle_for(g, True)[1]):
            out.append(f"{label}: Randic energy {data.get('re')!r}, oracle {oracle_for(g, True)[1]!r}")
        if command == "energy-adjacency" and not _close(data.get("e", math.nan), oracle_for(g, False)[1]):
            out.append(f"{label}: adjacency energy {data.get('e')!r}, oracle {oracle_for(g, False)[1]!r}")
    return out


def report_body(text: str) -> str:
    """The report text before its final ``meta`` member."""
    cut = text.rfind('\n  "meta": ')
    return text if cut < 0 else text[:cut]


def check_verify_sweep(seed: int, first: dict) -> list[str]:
    got = first["outputs"][0]
    if got is None:
        return []
    out = []
    if got["code"] != 0:
        out.append(f"verify exit code {got['code']}")
    text = first["extras"]["report"]
    if text is None:
        return out + ["verify wrote no report"]
    report = _json(text, "verify report", out)
    if report is None:
        return out
    if list(report) != ["tolerance", "summary", "records", "meta"]:
        out.append(f"report keys {list(report)}")
    records = report["records"]
    if report["summary"]["fail"] != 0 or report["summary"]["pass"] != len(records):
        out.append(f"report summary {report['summary']} for {len(records)} records")
    # The expected work is pinned in bench/inputs.py; randic.sweep_specs must agree with it.
    specs = inputs.verify_sweep_specs(inputs.VERIFY_MAX_N)
    lemmas = inputs.verify_lemma_records(inputs.VERIFY_MAX_N)
    witnesses = inputs.verify_witness_notes(inputs.VERIFY_WITNESS_MAX)
    if [tuple(s) for s in first["extras"]["specs"]] != specs:
        out.append(f"randic.sweep_specs({inputs.VERIFY_MAX_N}) differs from the {len(specs)} expected specs")
    expected = len(specs) + len(lemmas) + len(witnesses)
    if len(records) != expected:
        out.append(f"{len(records)} records, expected {expected}")
    lemma_notes = {notes for _, notes in lemmas}
    want = Counter([(s, None) for s in specs] + lemmas + [(None, w) for w in witnesses])
    got = Counter()
    for r in records:
        spec = (r["family"], r["n"], r["m"], r["minus_edge"])
        if r["notes"].startswith("integer energy witness"):
            got[(None, r["notes"])] += 1
        else:
            got[(spec, r["notes"] if r["notes"] in lemma_notes else None)] += 1
    for key in sorted(set(want) | set(got), key=repr):
        if got[key] != want[key]:
            out.append(f"record {key} appears {got[key]} times, expected {want[key]}")
    return out


FIRST_ROUND_CHECKS = {
    "verify-sweep": check_verify_sweep,
    "energy-large": check_energy_large,
    "exact-large": check_exact_large,
    "cli-small": check_cli_small,
}


def check(workload: str, seed: int, rounds: list[dict]) -> list[str]:
    """Check the first round in full and every later round for repeats."""
    first = rounds[0]
    problems = FIRST_ROUND_CHECKS[workload](seed, first)
    for k, later in enumerate(rounds[1:], start=1):
        for i, (a, b) in enumerate(zip(first["outputs"], later["outputs"])):
            if a is not None and b is not None and a != b:
                problems.append(f"round {k}: operation {i} output differs from round 0")
        if workload == "verify-sweep":
            a, b = first["extras"]["report"], later["extras"]["report"]
            if a is not None and b is not None and report_body(a) != report_body(b):
                problems.append(f"round {k}: report body differs from round 0 outside meta")
        elif later["extras"] != first["extras"]:
            problems.append(f"round {k}: program-side check results differ from round 0")
    return problems
