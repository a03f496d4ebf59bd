"""Cross-check harness: numeric spectra vs. exact polynomials vs. closed forms.

Each swept instance is checked three ways: the exact characteristic
polynomial must equal the closed form coefficient-for-coefficient (never by
tolerance), the numeric energy must match the closed-form energy within the
report tolerance, and every numeric eigenvalue must be a root of the exact
polynomial within the residual limit. Failures are recorded, not raised;
the Report is the contract.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from . import __version__
from .closed_forms import closed_charpoly, closed_energy
from .errors import ConvergenceError, DomainError, UnsupportedFamilyError
from .graphs import (
    COMPLETE,
    COMPLETE_BIPARTITE,
    CYCLE,
    DUTCH4,
    FRIENDSHIP,
    PATH,
    STAR,
    FamilySpec,
    Graph,
    delete_edge,
    disjoint_union,
    generate,
    is_bipartite,
)
from .ratpoly import RatPoly
from .spectral import (
    DEFAULT_SOLVER_TOL,
    Spectrum,
    charpoly_exact,
    eigenvalues,
    randic_energy,
    randic_matrix,
)

DEFAULT_REPORT_TOL = 1e-9
ROOT_RESIDUAL_LIMIT = 1e-6


@dataclass
class VerdictRecord:
    """Outcome of the cross-checks for one instance.

    ``charpoly_match`` is exact coefficient equality. ``energy_abs_err`` is
    None when no closed-form energy exists for the spec (the remaining
    checks still count). ``spectrum_sym_err`` is filled for bipartite
    instances only.
    """

    spec: FamilySpec
    charpoly_match: bool
    energy_abs_err: Optional[float]
    max_root_residual: float
    spectrum_sym_err: Optional[float]
    elapsed: float
    notes: str = ""
    hard_failure: bool = False

    def passed(self, tol: float) -> bool:
        if self.hard_failure or not self.charpoly_match:
            return False
        if self.energy_abs_err is not None and not self.energy_abs_err < tol:
            return False
        if not self.max_root_residual < ROOT_RESIDUAL_LIMIT:
            return False
        if self.spectrum_sym_err is not None and not self.spectrum_sym_err < tol:
            return False
        return True

    def to_dict(self) -> dict:
        # non-finite residuals (hard failures) serialize as null; strict JSON
        # has no Infinity token
        residual = self.max_root_residual if math.isfinite(self.max_root_residual) else None
        return {
            "family": self.spec.family,
            "n": self.spec.n,
            "m": self.spec.m,
            "minus_edge": self.spec.minus_edge,
            "charpoly_match": self.charpoly_match,
            "energy_abs_err": self.energy_abs_err,
            "max_root_residual": residual,
            "notes": self.notes,
        }


@dataclass
class Report:
    """Aggregated verdicts plus pass/fail summary and tool metadata."""

    tolerance: float
    records: list[VerdictRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.records if r.passed(self.tolerance))

    @property
    def n_fail(self) -> int:
        return len(self.records) - self.n_pass

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "summary": {"pass": self.n_pass, "fail": self.n_fail},
            "records": [r.to_dict() for r in self.records],
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"


def _report_meta() -> dict:
    # timestamp metadata is isolated here so the rest of the report is
    # byte-deterministic across runs
    return {
        "tool": "randic",
        "version": __version__,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _max_root_residual(poly: RatPoly, spectrum: Spectrum) -> float:
    if not spectrum.values:
        return 0.0
    # Horner in floats on coefficients converted once; bit-identical to
    # float(poly(v)), where Fraction.__radd__ does float(c) + acc every step
    coeffs = [float(c) for c in reversed(poly.coeffs)]

    def at(v: float) -> float:
        acc = 0.0
        for c in coeffs:
            acc = acc * v + c
        return acc

    return max(abs(at(v)) for v in spectrum.values)


def _check_tol(tol: float) -> None:
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite (got {tol!r})")


def _symmetry_err(spectrum: Spectrum) -> float:
    vals = spectrum.values
    n = len(vals)
    if n == 0:
        return 0.0
    return max(abs(vals[i] + vals[n - 1 - i]) for i in range(n))


def verify_instance(spec: FamilySpec, tol: float = DEFAULT_REPORT_TOL) -> VerdictRecord:
    """Run the full three-way cross-check on one family instance."""
    start = time.perf_counter()
    notes: list[str] = []
    try:
        g = generate(spec)
        p_exact = charpoly_exact(g)
        p_closed = closed_charpoly(spec)
        spectrum = eigenvalues(randic_matrix(g), DEFAULT_SOLVER_TOL)
        re_numeric = sum(abs(v) for v in spectrum.values)
        energy_abs_err: Optional[float]
        try:
            energy_abs_err = abs(re_numeric - closed_energy(spec))
        except DomainError:
            energy_abs_err = None
            notes.append("no closed energy below validity range")
    except (DomainError, UnsupportedFamilyError, ConvergenceError) as exc:
        return VerdictRecord(
            spec=spec,
            charpoly_match=False,
            energy_abs_err=None,
            max_root_residual=float("inf"),
            spectrum_sym_err=None,
            elapsed=time.perf_counter() - start,
            notes=f"error: {exc}",
            hard_failure=True,
        )
    return VerdictRecord(
        spec=spec,
        charpoly_match=p_exact == p_closed,
        energy_abs_err=energy_abs_err,
        max_root_residual=_max_root_residual(p_exact, spectrum),
        spectrum_sym_err=_symmetry_err(spectrum) if is_bipartite(g) else None,
        elapsed=time.perf_counter() - start,
        notes="; ".join(notes),
    )


def check_union_additivity(g1: Graph, g2: Graph, tol: float = DEFAULT_REPORT_TOL) -> bool:
    """True iff the energy of the disjoint union equals the sum of the parts."""
    _check_tol(tol)
    combined = randic_energy(disjoint_union(g1, g2))
    return abs(combined - randic_energy(g1) - randic_energy(g2)) < tol


def _deletion_record(
    spec: FamilySpec,
    g_del: Graph,
    reference_energy: float,
    poly_ok: bool,
    note: str,
    start: float,
) -> VerdictRecord:
    p_exact = charpoly_exact(g_del)
    spectrum = eigenvalues(randic_matrix(g_del), DEFAULT_SOLVER_TOL)
    re_numeric = sum(abs(v) for v in spectrum.values)
    return VerdictRecord(
        spec=spec,
        charpoly_match=poly_ok,
        energy_abs_err=abs(re_numeric - reference_energy),
        max_root_residual=_max_root_residual(p_exact, spectrum),
        spectrum_sym_err=_symmetry_err(spectrum) if is_bipartite(g_del) else None,
        elapsed=time.perf_counter() - start,
        notes=note,
    )


def check_edge_deletion_lemmas(tol: float = DEFAULT_REPORT_TOL, max_n: int = 20) -> Report:
    """Check the three edge-deletion identities up to max_n.

    (i) deleting any edge of an n-path leaves energies summing to the two
    sub-paths; (ii) a cycle minus an edge has the energy (and exact
    polynomial) of the same-order path; (iii) a star minus an edge keeps
    energy 2. The path/star polynomial identities are checked exactly.
    """
    if max_n < 4:
        raise DomainError(f"check_edge_deletion_lemmas requires max_n >= 4 (got {max_n})")
    _check_tol(tol)
    report = Report(tolerance=tol, meta=_report_meta())
    path_energy: dict[int, float] = {}
    path_poly: dict[int, RatPoly] = {}
    for k in range(1, max_n + 1):
        g = generate(FamilySpec(PATH, k))
        path_energy[k] = randic_energy(g)
        path_poly[k] = charpoly_exact(g)
    for n in range(2, max_n + 1):
        base = generate(FamilySpec(PATH, n))
        for r in range(1, n):
            start = time.perf_counter()
            s = n - r
            g_del = delete_edge(base, r - 1, r)
            poly_ok = charpoly_exact(g_del) == path_poly[r] * path_poly[s]
            report.records.append(
                _deletion_record(
                    FamilySpec(PATH, n, minus_edge=True),
                    g_del,
                    path_energy[r] + path_energy[s],
                    poly_ok,
                    f"path split r={r} s={s}",
                    start,
                )
            )
    for n in range(3, max_n + 1):
        start = time.perf_counter()
        g_del = delete_edge(generate(FamilySpec(CYCLE, n)), 0, 1)
        poly_ok = charpoly_exact(g_del) == path_poly[n]
        report.records.append(
            _deletion_record(
                FamilySpec(CYCLE, n, minus_edge=True),
                g_del,
                path_energy[n],
                poly_ok,
                "cycle minus edge vs path",
                start,
            )
        )
    for n in range(3, max_n + 1):
        start = time.perf_counter()
        g_del = delete_edge(generate(FamilySpec(STAR, n)), 0, 1)
        smaller = charpoly_exact(generate(FamilySpec(STAR, n - 1))) if n > 2 else RatPoly.one()
        poly_ok = charpoly_exact(g_del) == smaller.shift(1)
        report.records.append(
            _deletion_record(
                FamilySpec(STAR, n, minus_edge=True),
                g_del,
                2.0,
                poly_ok,
                "star minus edge vs 2",
                start,
            )
        )
    return report


def integer_energy_witnesses(m_max: int) -> list[tuple[int, FamilySpec, float]]:
    """For each integer 2 <= m <= m_max, a graph whose Randic energy is m.

    m = 2 uses the two-vertex complete graph; m >= 3 uses the friendship
    graph with m-1 triangles (energy m).
    """
    if m_max < 2:
        raise DomainError(f"integer_energy_witnesses requires m_max >= 2 (got {m_max})")
    out: list[tuple[int, FamilySpec, float]] = []
    for m in range(2, m_max + 1):
        spec = FamilySpec(COMPLETE, 2) if m == 2 else FamilySpec(FRIENDSHIP, m - 1)
        out.append((m, spec, randic_energy(generate(spec))))
    return out


def sweep_specs(max_n: int) -> list[FamilySpec]:
    """The family instances verify_all visits, in deterministic order."""
    specs: list[FamilySpec] = []
    specs += [FamilySpec(PATH, n) for n in range(2, max_n + 1)]
    specs += [FamilySpec(CYCLE, n) for n in range(3, max_n + 1)]
    specs += [FamilySpec(STAR, n) for n in range(2, max_n + 1)]
    specs += [FamilySpec(COMPLETE, n) for n in range(2, min(max_n, 30) + 1)]
    specs += [
        FamilySpec(COMPLETE_BIPARTITE, n, m=m)
        for m in range(2, 13)
        for n in range(m, 13)
    ]
    specs += [FamilySpec(FRIENDSHIP, n) for n in range(2, 13)]
    specs += [FamilySpec(DUTCH4, n) for n in range(2, 13)]
    specs += [FamilySpec(COMPLETE, n, minus_edge=True) for n in range(3, 31)]
    specs += [
        FamilySpec(COMPLETE_BIPARTITE, n, m=m, minus_edge=True)
        for m in range(2, 11)
        for n in range(m, 11)
    ]
    return specs


def verify_all(
    max_n: int,
    tol: float = DEFAULT_REPORT_TOL,
    witness_max: int = 20,
) -> Report:
    """Sweep every family, run the lemma checks and the witness table."""
    if max_n < 5:
        raise DomainError(f"verify_all requires max_n >= 5 (got {max_n})")
    _check_tol(tol)
    report = Report(tolerance=tol, meta=_report_meta())
    for spec in sweep_specs(max_n):
        report.records.append(verify_instance(spec, tol))
    report.records.extend(check_edge_deletion_lemmas(tol, max_n).records)
    for m, spec, energy in integer_energy_witnesses(witness_max):
        start = time.perf_counter()
        report.records.append(
            VerdictRecord(
                spec=spec,
                charpoly_match=True,
                energy_abs_err=abs(energy - m),
                max_root_residual=0.0,
                spectrum_sym_err=None,
                elapsed=time.perf_counter() - start,
                notes=f"integer energy witness m={m}",
            )
        )
    return report
