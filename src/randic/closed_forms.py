"""Closed-form characteristic polynomials and energies for the named families.

The path and cycle polynomials are built from the tridiagonal determinant
sequence Λ_k (diagonal λ, off-diagonal -1/2), taken straight from its
explicit coefficients

    Λ_k = Σ_j (-1)^j·C(k-j, j)/4^j·λ^(k-2j),   0 <= j <= k/2,

with Λ_0 = 1 and Λ_{-1} = 0 so the small-n formulas close under one code
path. The tests check these against the recurrence
Λ_k = λ·Λ_{k-1} - (1/4)·Λ_{k-2} and against the identity Λ_k = U_k(λ)/2^k,
with U_k the Chebyshev polynomial of the second kind.

Friendship and dutch4 are the windmills D_3^(n) and D_4^(n), n cycles C_k
sharing one vertex, and both follow from the windmill identity
φ(D_k^(n)) = Λ_{k-1}^(n-1)·φ(C_k): deleting the center leaves each cycle as
P_{k-1} with off-diagonals 1/2, and the n cycles couple to the center
exactly as one C_k does.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, UnsupportedFamilyError
from .graphs import (
    COMPLETE,
    COMPLETE_BIPARTITE,
    CYCLE,
    PATH,
    STAR,
    WINDMILL_CYCLE,
    FamilySpec,
    _family_size,
    _validate_spec,
)
from .ratpoly import RatPoly
from .spectral import ENERGY_ORDER_CAP

_QUARTER = Fraction(1, 4)
_HALF = Fraction(1, 2)


def lambda_poly(k: int) -> RatPoly:
    """Determinant of the k-by-k tridiagonal matrix with λ diagonal, -1/2 off."""
    if k < -1:
        raise DomainError(f"lambda_poly requires k >= -1 (got {k})")
    coeffs = [0] * (k + 1)
    for j in range(k // 2 + 1):
        coeffs[k - 2 * j] = Fraction((-1) ** j * math.comb(k - j, j), 4**j)
    return RatPoly(coeffs)


def _x2_minus(c) -> RatPoly:
    return RatPoly((-Fraction(c), 0, 1))


def _check_domain(spec: FamilySpec, what: str, path_least: int = 2) -> None:
    """The one validity check of both closed forms.

    The spec must be one ``generate`` accepts; a minus-edge variant has a
    closed form only for complete and complete_bipartite; every size (n, and
    m when set) is at least 2, or 3 for complete minus an edge (a vertex off
    the deleted edge) and ``path_least`` for the path; and the order is at
    most ``ENERGY_ORDER_CAP``, the largest any route accepts, so nothing
    absurd is expanded.
    """
    _validate_spec(spec)
    fam = spec.family
    if spec.minus_edge and fam not in (COMPLETE, COMPLETE_BIPARTITE):
        raise UnsupportedFamilyError(f"no minus-edge closed {what} for {fam}")
    least = 3 if spec.minus_edge and fam == COMPLETE else path_least if fam == PATH else 2
    for name, size in (("n", spec.n), ("m", spec.m)):
        if size is not None and size < least:
            raise DomainError(f"{spec.label()} closed {what} requires {name} >= {least}")
    order = _family_size(spec)[0]
    if order > ENERGY_ORDER_CAP:
        raise DomainError(
            f"{spec.label()} has {order} vertices; closed forms are capped at {ENERGY_ORDER_CAP}"
        )


def closed_charpoly(spec: FamilySpec) -> RatPoly:
    """Fully expanded closed-form characteristic polynomial for a family spec.

    A windmill D_k^(n) (friendship k = 3, dutch4 k = 4) has
    φ = Λ_{k-1}^(n-1)·φ(C_k): deleting the center leaves each cycle as
    P_{k-1} with off-diagonals 1/2, and the n cycles couple to the center
    exactly as one C_k does (Schwenk's coalescence formula, 1974).

    Raises DomainError outside the validity range of the family's formula.
    """
    _check_domain(spec, "form")
    fam, n, m = spec.family, spec.n, spec.m
    x = RatPoly.x()
    if spec.minus_edge:
        if fam == COMPLETE:
            return x * (x - RatPoly.one()) * (x + RatPoly((Fraction(2, n - 1),))) \
                * (x + RatPoly((Fraction(1, n - 1),))) ** (n - 3)
        return (_x2_minus(1) * _x2_minus(Fraction(1, m * n))).shift(m + n - 4)
    if fam in WINDMILL_CYCLE:
        k = WINDMILL_CYCLE[fam]
        return lambda_poly(k - 1) ** (n - 1) * closed_charpoly(FamilySpec(CYCLE, k))
    if fam == PATH:
        if n == 2:
            return _x2_minus(1)
        # n = 3 reaches Λ_{-1} = 0
        return _x2_minus(1) * (x * lambda_poly(n - 3) - _QUARTER * lambda_poly(n - 4))
    if fam == CYCLE:
        return x * lambda_poly(n - 1) - _HALF * lambda_poly(n - 2) \
            - RatPoly((Fraction(1, 2 ** (n - 1)),))
    if fam == STAR:
        return _x2_minus(1).shift(n - 2)
    if fam == COMPLETE:
        return (x - RatPoly.one()) * (x + RatPoly((Fraction(1, n - 1),))) ** (n - 1)
    return _x2_minus(1).shift(m + n - 2)  # complete_bipartite


def path_graph_energy(k: int) -> float:
    """Adjacency energy of a k-vertex path from its analytic spectrum 2cos(jπ/(k+1))."""
    if k < 0:
        raise DomainError("path order must be non-negative")
    return sum(2.0 * abs(math.cos(j * math.pi / (k + 1))) for j in range(1, k + 1))


def _cycle_energy(n: int) -> float:
    if n % 2 == 0:
        # even cycle on 2h vertices: 2·sin((⌊h/2⌋+1/2)·π/h) / sin(π/(2h))
        h = n // 2
        return 2.0 * math.sin((h // 2 + 0.5) * math.pi / h) / math.sin(math.pi / (2 * h))
    # odd cycle: analytic spectrum of the normalized matrix is cos(2πk/n)
    return sum(abs(math.cos(2.0 * math.pi * k / n)) for k in range(n))


def closed_energy(spec: FamilySpec) -> float:
    """Closed-form Randic energy of a family spec.

    Families whose energy is the constant 2 return the literal value (never
    a floating sum), so exactness there is by construction. A windmill
    D_k^(n) adds, to the energy 2 of C_k, half the adjacency energy of
    P_{k-1} for each further cycle: 1 for k = 3 and sqrt(2) for k = 4.
    """
    _check_domain(spec, "energy", path_least=3)
    fam, n, m = spec.family, spec.n, spec.m
    if spec.minus_edge:
        return 2.0 if fam == COMPLETE else 2.0 + 2.0 / math.sqrt(m * n)
    if fam in WINDMILL_CYCLE:
        return 2.0 + (n - 1) * (1.0 if WINDMILL_CYCLE[fam] == 3 else math.sqrt(2.0))
    if fam == PATH:
        return 2.0 + 0.5 * path_graph_energy(n - 2)
    if fam == CYCLE:
        return _cycle_energy(n)
    return 2.0  # star, complete, complete_bipartite


def small_case_charpoly(spec: FamilySpec) -> RatPoly:
    """Deprecated: ``closed_charpoly`` now covers paths from order 2 on.

    Nothing in the library calls this, and it is no longer exported. It is
    kept only because the benchmark's tracer (bench/tracing.py) wraps it by
    name; remove the two together.
    """
    return closed_charpoly(spec)
