"""Cross-check harness: numeric spectra vs. exact polynomials vs. closed forms.

Each swept instance is checked three ways: the exact characteristic
polynomial must equal the closed form coefficient-for-coefficient (never by
tolerance), the numeric energy must match the closed-form energy within the
report tolerance, and every numeric eigenvalue must be a root of the exact
polynomial within the residual limit. Failures are recorded, not raised;
the Report is the contract.

Expected values come from the closed forms, or from a definition written
out beside the check (the isolated vertex, an integer energy), never from
the exact or numeric route under check: a route compared with itself
cannot fail.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Optional

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
    generate,
    is_bipartite,
)
from .ratpoly import RatPoly
from .spectral import (
    DEFAULT_SOLVER_TOL,
    EXACT_ORDER_CAP,
    Spectrum,
    charpoly_exact,
    eigenvalues,
    randic_matrix,
)

DEFAULT_REPORT_TOL = 1e-9
ROOT_RESIDUAL_LIMIT = 1e-6
# the witness for m has 2m - 1 vertices, all within reach of the exact route
WITNESS_MAX = (EXACT_ORDER_CAP + 1) // 2


@dataclass
class VerdictRecord:
    """Outcome of the cross-checks for one instance.

    ``charpoly_match`` is exact coefficient equality. ``energy_abs_err`` is
    None when no closed-form energy exists for the spec (the remaining
    checks still count). ``spectrum_sym_err`` is filled for bipartite
    instances only. A record holds no timing, so reports stay deterministic.
    """

    spec: FamilySpec
    charpoly_match: bool
    energy_abs_err: Optional[float]
    max_root_residual: float
    spectrum_sym_err: Optional[float]
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


def _record(spec: FamilySpec, note: str, reference: Callable) -> VerdictRecord:
    """Check a graph's exact polynomial and numeric spectrum against a reference.

    ``reference()`` returns (graph, expected polynomial, expected energy),
    the energy None below the closed energy's validity range. An error in
    it, in ``charpoly_exact`` or in ``eigenvalues`` makes a hard-failure
    record, so one bad instance never aborts a sweep.
    """
    notes = [note] if note else []
    try:
        g, expected_poly, expected_energy = reference()
        p_exact = charpoly_exact(g)
        spectrum = eigenvalues(randic_matrix(g), DEFAULT_SOLVER_TOL)
    except (DomainError, UnsupportedFamilyError, ConvergenceError) as exc:
        return VerdictRecord(
            spec=spec,
            charpoly_match=False,
            energy_abs_err=None,
            max_root_residual=float("inf"),
            spectrum_sym_err=None,
            notes="; ".join(notes + [f"error: {exc}"]),
            hard_failure=True,
        )
    energy_abs_err: Optional[float] = None
    if expected_energy is None:
        notes.append("no closed energy below validity range")
    else:
        energy_abs_err = abs(sum(abs(v) for v in spectrum.values) - expected_energy)
    return VerdictRecord(
        spec=spec,
        charpoly_match=p_exact == expected_poly,
        energy_abs_err=energy_abs_err,
        max_root_residual=_max_root_residual(p_exact, spectrum),
        spectrum_sym_err=_symmetry_err(spectrum) if is_bipartite(g) else None,
        notes="; ".join(notes),
    )


def verify_instance(spec: FamilySpec) -> VerdictRecord:
    """Run the full three-way cross-check on one family instance; the
    tolerance is applied when the record is read (``VerdictRecord.passed``)."""

    def reference() -> tuple[Graph, RatPoly, Optional[float]]:
        g = generate(spec)
        poly = closed_charpoly(spec)
        try:
            return g, poly, closed_energy(spec)
        except DomainError:
            return g, poly, None

    return _record(spec, "", reference)


def check_edge_deletion_lemmas(tol: float = DEFAULT_REPORT_TOL, max_n: int = 20) -> Report:
    """Check the three edge-deletion identities up to max_n.

    (i) a path minus any edge is P_r ∪ P_s, with the product of the two
    polynomials and the sum of the two energies; (ii) a cycle minus an edge
    has the polynomial and energy of the same-order path; (iii) a star minus
    an edge is λ·φ(star(n-1)), with energy 2. Expected values come from the
    closed forms, never from the route under check: P_1 is written out as
    an isolated vertex (φ = λ, energy 0), and P_2's energy is K_2's.
    ``max_n`` runs from 4 to ``EXACT_ORDER_CAP``: every record of a path
    beyond the cap would be a hard failure, and the number of records grows
    quadratically in max_n, so a larger one is a DomainError.
    """
    if not 4 <= max_n <= EXACT_ORDER_CAP:
        raise DomainError(
            f"check_edge_deletion_lemmas requires 4 <= max_n <= {EXACT_ORDER_CAP} (got {max_n})"
        )
    _check_tol(tol)

    # each path's closed values are computed once per call, when a record's
    # reference first needs them
    @cache
    def path(k: int) -> tuple[RatPoly, float]:
        if k == 1:
            return RatPoly.x(), 0.0
        spec = FamilySpec(PATH, k)
        return closed_charpoly(spec), closed_energy(FamilySpec(COMPLETE, 2) if k == 2 else spec)

    def split(n: int, r: int) -> tuple[Graph, RatPoly, float]:
        (p_r, e_r), (p_s, e_s) = path(r), path(n - r)
        return delete_edge(generate(FamilySpec(PATH, n)), r - 1, r), p_r * p_s, e_r + e_s

    def cycle(n: int) -> tuple[Graph, RatPoly, float]:
        return (delete_edge(generate(FamilySpec(CYCLE, n)), 0, 1), *path(n))

    def star(n: int) -> tuple[Graph, RatPoly, float]:
        smaller = closed_charpoly(FamilySpec(STAR, n - 1))
        return delete_edge(generate(FamilySpec(STAR, n)), 0, 1), smaller.shift(1), 2.0

    checks = [
        (FamilySpec(PATH, n, minus_edge=True), f"path split r={r} s={n - r}", partial(split, n, r))
        for n in range(2, max_n + 1)
        for r in range(1, n)
    ]
    checks += [
        (FamilySpec(CYCLE, n, minus_edge=True), "cycle minus edge vs path", partial(cycle, n))
        for n in range(3, max_n + 1)
    ]
    checks += [
        (FamilySpec(STAR, n, minus_edge=True), "star minus edge vs 2", partial(star, n))
        for n in range(3, max_n + 1)
    ]
    report = Report(tolerance=tol, meta=_report_meta())
    report.records = [_record(*check) for check in checks]
    return report


def _witness_specs(m_max: int) -> list[tuple[int, FamilySpec]]:
    """For each integer 2 <= m <= m_max, a graph whose Randic energy is m.

    m = 2 uses the two-vertex complete graph; m >= 3 uses the friendship
    graph with m-1 triangles (energy m). m_max is at most ``WITNESS_MAX``.
    """
    if not 2 <= m_max <= WITNESS_MAX:
        raise DomainError(
            f"integer energy witnesses require 2 <= m_max <= {WITNESS_MAX} (got {m_max})"
        )
    return [
        (m, FamilySpec(COMPLETE, 2) if m == 2 else FamilySpec(FRIENDSHIP, m - 1))
        for m in range(2, m_max + 1)
    ]


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
    """Sweep every family, run the lemma checks and the witness table.

    Each witness record checks the exact polynomial against the closed form,
    the numeric energy against m, and the numeric spectrum against the exact
    polynomial's roots. ``max_n`` runs from 5 to ``EXACT_ORDER_CAP``, as in
    ``check_edge_deletion_lemmas``; outside that range it is a DomainError.
    """
    if not 5 <= max_n <= EXACT_ORDER_CAP:
        raise DomainError(f"verify_all requires 5 <= max_n <= {EXACT_ORDER_CAP} (got {max_n})")
    _check_tol(tol)
    witnesses = _witness_specs(witness_max)
    report = Report(tolerance=tol, meta=_report_meta())
    report.records = [verify_instance(spec) for spec in sweep_specs(max_n)]
    report.records += check_edge_deletion_lemmas(tol, max_n).records
    # each reference runs inside its _record call, while m and spec are current
    report.records += [
        _record(
            spec, f"integer energy witness m={m}", lambda: (generate(spec), closed_charpoly(spec), m)
        )
        for m, spec in witnesses
    ]
    return report
