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

``VerdictRecord`` and ``Report`` are mutable value classes that compare
field by field.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from functools import cache, partial

from . import __version__
from ._record import Record
from .closed_forms import closed_charpoly, closed_energy
from .errors import ConvergenceError, DomainError
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
    EXACT_ORDER_CAP,
    Spectrum,
    charpoly_exact,
    eigenvalues,
    randic_matrix,
)

REPORT_TOL = 1e-9
ROOT_RESIDUAL_LIMIT = 1e-6
# the witness table runs m = 2..WITNESS_MAX; the witness for m has 2m - 1
# vertices, well within reach of the exact route
WITNESS_MAX = 20


class VerdictRecord(Record):
    """Outcome of the cross-checks for one instance.

    ``charpoly_match`` is exact coefficient equality. ``energy_abs_err`` is
    None on a hard failure only. ``spectrum_sym_err`` is filled for
    bipartite instances only, and is 0 there by construction: the
    eigensolver emits each singular value of a bipartite block as the pair
    +s, -s. Each value is still checked on its own, against the exact
    polynomial, by ``max_root_residual``. ``passed`` reads the errors
    against ``REPORT_TOL``. A record holds no timing, so reports stay
    deterministic.
    """

    _fields = (
        "spec", "charpoly_match", "energy_abs_err", "max_root_residual",
        "spectrum_sym_err", "notes", "hard_failure",
    )

    def __init__(
        self,
        spec: FamilySpec,
        charpoly_match: bool,
        energy_abs_err: float | None,
        max_root_residual: float,
        spectrum_sym_err: float | None,
        notes: str = "",
        hard_failure: bool = False,
    ):
        self.spec = spec
        self.charpoly_match = charpoly_match
        self.energy_abs_err = energy_abs_err
        self.max_root_residual = max_root_residual
        self.spectrum_sym_err = spectrum_sym_err
        self.notes = notes
        self.hard_failure = hard_failure

    def passed(self) -> bool:
        if self.hard_failure or not self.charpoly_match:
            return False
        if self.energy_abs_err is not None and not self.energy_abs_err < REPORT_TOL:
            return False
        if not self.max_root_residual < ROOT_RESIDUAL_LIMIT:
            return False
        if self.spectrum_sym_err is not None and not self.spectrum_sym_err < REPORT_TOL:
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


class Report(Record):
    """Aggregated verdicts plus pass/fail summary and tool metadata; an
    omitted ``records`` or ``meta`` starts as a new empty list or dict. The
    serialized report states ``REPORT_TOL`` as its tolerance."""

    _fields = ("records", "meta")

    def __init__(self, records: list[VerdictRecord] | None = None, meta: dict | None = None):
        self.records = [] if records is None else records
        self.meta = {} if meta is None else meta

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.records if r.passed())

    @property
    def n_fail(self) -> int:
        return len(self.records) - self.n_pass

    def to_dict(self) -> dict:
        return {
            "tolerance": REPORT_TOL,
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
    # Horner in floats on coefficients converted once; n / den is correctly
    # rounded, so each equals float(Fraction(n, den)) and the result is
    # bit-identical to float(poly(v)), where Fraction.__radd__ does
    # float(c) + acc every step
    den = poly.den
    coeffs = [c / den for c in reversed(poly.nums)]

    def at(v: float) -> float:
        acc = 0.0
        for c in coeffs:
            acc = acc * v + c
        return acc

    return max(abs(at(v)) for v in spectrum.values)


def _symmetry_err(spectrum: Spectrum) -> float:
    vals = spectrum.values
    n = len(vals)
    if n == 0:
        return 0.0
    return max(abs(vals[i] + vals[n - 1 - i]) for i in range(n))


def _record(spec: FamilySpec, note: str, reference: Callable) -> VerdictRecord:
    """Check a graph's exact polynomial and numeric spectrum against a reference.

    ``reference()`` returns (graph, expected polynomial, expected energy).
    An error in it, in ``charpoly_exact`` or in ``eigenvalues`` makes a
    hard-failure record, so one bad instance never aborts a sweep.
    """
    try:
        g, expected_poly, expected_energy = reference()
        p_exact = charpoly_exact(g)
        spectrum = eigenvalues(randic_matrix(g))
    except (DomainError, ConvergenceError) as exc:
        return VerdictRecord(
            spec=spec,
            charpoly_match=False,
            energy_abs_err=None,
            max_root_residual=float("inf"),
            spectrum_sym_err=None,
            notes=f"{note}; error: {exc}" if note else f"error: {exc}",
            hard_failure=True,
        )
    return VerdictRecord(
        spec=spec,
        charpoly_match=p_exact == expected_poly,
        energy_abs_err=abs(sum(abs(v) for v in spectrum.values) - expected_energy),
        max_root_residual=_max_root_residual(p_exact, spectrum),
        spectrum_sym_err=_symmetry_err(spectrum) if is_bipartite(g) else None,
        notes=note,
    )


def verify_instance(spec: FamilySpec) -> VerdictRecord:
    """Run the full three-way cross-check on one family instance; the
    tolerance is applied when the record is read (``VerdictRecord.passed``)."""
    return _record(spec, "", lambda: (generate(spec), closed_charpoly(spec), closed_energy(spec)))


def check_edge_deletion_lemmas(max_n: int = 20) -> Report:
    """Check the three edge-deletion identities up to max_n.

    (i) a path minus any edge is P_r ∪ P_s, with the product of the two
    polynomials and the sum of the two energies; (ii) a cycle minus an edge
    has the polynomial and energy of the same-order path; (iii) a star minus
    an edge is λ·φ(star(n-1)), with energy 2. Expected values come from the
    closed forms, never from the route under check; P_1, below the path's
    closed forms, is written out as an isolated vertex (φ = λ, energy 0).
    ``max_n`` runs from 4 to ``EXACT_ORDER_CAP``: every record of a path
    beyond the cap would be a hard failure, and the number of records grows
    quadratically in max_n, so a larger one is a DomainError.
    """
    if not 4 <= max_n <= EXACT_ORDER_CAP:
        raise DomainError(
            f"check_edge_deletion_lemmas requires 4 <= max_n <= {EXACT_ORDER_CAP} (got {max_n})"
        )

    # each path's closed values are computed once per call, when a record's
    # reference first needs them
    @cache
    def path(k: int) -> tuple[RatPoly, float]:
        if k == 1:
            return RatPoly.x(), 0.0
        spec = FamilySpec(PATH, k)
        return closed_charpoly(spec), closed_energy(spec)

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
    return Report([_record(*check) for check in checks], _report_meta())


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


def verify_all(max_n: int) -> Report:
    """Sweep every family, run the lemma checks and the witness table.

    For each 2 <= m <= ``WITNESS_MAX`` the table holds a graph whose Randic
    energy is m: K_2 for m = 2, the friendship graph with m - 1 triangles
    for m >= 3. Each witness record checks the exact polynomial against the
    closed form, the numeric energy against m, and the numeric spectrum
    against the exact polynomial's roots. ``max_n`` runs from 5 to
    ``EXACT_ORDER_CAP``, as in ``check_edge_deletion_lemmas``; outside that
    range it is a DomainError.
    """
    if not 5 <= max_n <= EXACT_ORDER_CAP:
        raise DomainError(f"verify_all requires 5 <= max_n <= {EXACT_ORDER_CAP} (got {max_n})")
    records = [verify_instance(spec) for spec in sweep_specs(max_n)]
    records += check_edge_deletion_lemmas(max_n).records
    for m in range(2, WITNESS_MAX + 1):
        spec = FamilySpec(COMPLETE, 2) if m == 2 else FamilySpec(FRIENDSHIP, m - 1)
        # the reference runs inside this _record call, while m and spec are current
        records.append(
            _record(
                spec,
                f"integer energy witness m={m}",
                lambda: (generate(spec), closed_charpoly(spec), m),
            )
        )
    return Report(records, _report_meta())
