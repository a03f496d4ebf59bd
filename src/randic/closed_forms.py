"""Closed-form characteristic polynomials and energies for the named families.

The path and cycle polynomials are built from the tridiagonal determinant
sequence Λ_k (diagonal λ, off-diagonal -1/2), taken straight from its
explicit coefficients

    Λ_k = Σ_j (-1)^j·C(k-j, j)/4^j·λ^(k-2j),   0 <= j <= k/2,

with Λ_0 = 1 and Λ_{-1} = 0 so the small-n formulas close under one code
path. The tests check these against the recurrence
Λ_k = λ·Λ_{k-1} - (1/4)·Λ_{k-2} and against the identity Λ_k = U_k(λ)/2^k,
with U_k the Chebyshev polynomial of the second kind.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, UnsupportedFamilyError
from .graphs import (
    COMPLETE,
    COMPLETE_BIPARTITE,
    CYCLE,
    DUTCH4,
    FRIENDSHIP,
    PATH,
    STAR,
    FamilySpec,
)
from .ratpoly import RatPoly

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


def closed_charpoly(spec: FamilySpec) -> RatPoly:
    """Fully expanded closed-form characteristic polynomial for a family spec.

    Raises DomainError outside the validity range of the family's formula.
    """
    fam, n, m = spec.family, spec.n, spec.m
    x = RatPoly.x()
    if spec.minus_edge:
        if fam == COMPLETE:
            if n < 3:
                raise DomainError("complete minus edge closed form requires n >= 3")
            return x * (x - RatPoly.one()) * (x + RatPoly((Fraction(2, n - 1),))) \
                * (x + RatPoly((Fraction(1, n - 1),))) ** (n - 3)
        if fam == COMPLETE_BIPARTITE:
            if m is None or m < 2 or n < 2:
                raise DomainError("complete_bipartite minus edge closed form requires m, n >= 2")
            return (_x2_minus(1) * _x2_minus(Fraction(1, m * n))).shift(m + n - 4)
        raise UnsupportedFamilyError(f"no minus-edge closed form for {fam}")
    if fam == PATH:
        if n < 2:
            raise DomainError("path closed form requires n >= 2")
        if n == 2:
            return _x2_minus(1)
        # n = 3 reaches Λ_{-1} = 0
        return _x2_minus(1) * (x * lambda_poly(n - 3) - _QUARTER * lambda_poly(n - 4))
    if fam == CYCLE:
        if n < 3:
            raise DomainError("cycle closed form requires n >= 3")
        return x * lambda_poly(n - 1) - _HALF * lambda_poly(n - 2) \
            - RatPoly((Fraction(1, 2 ** (n - 1)),))
    if fam == STAR:
        if n < 2:
            raise DomainError("star closed form requires n >= 2")
        return _x2_minus(1).shift(n - 2)
    if fam == COMPLETE:
        if n < 2:
            raise DomainError("complete closed form requires n >= 2")
        return (x - RatPoly.one()) * (x + RatPoly((Fraction(1, n - 1),))) ** (n - 1)
    if fam == COMPLETE_BIPARTITE:
        if m is None or m < 2 or n < 2:
            raise DomainError("complete_bipartite closed form requires m, n >= 2")
        return _x2_minus(1).shift(m + n - 2)
    if fam == FRIENDSHIP:
        if n < 2:
            raise DomainError("friendship closed form requires n >= 2")
        return _x2_minus(_QUARTER) ** (n - 1) * (x - RatPoly.one()) \
            * (x + RatPoly((_HALF,))) ** 2
    if fam == DUTCH4:
        if n < 2:
            raise DomainError("dutch4 closed form requires n >= 2")
        return (_x2_minus(_HALF) ** (n - 1) * _x2_minus(1)).shift(n + 1)
    raise DomainError(f"unknown family {fam!r}")


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
    a floating sum), so exactness there is by construction.
    """
    fam, n, m = spec.family, spec.n, spec.m
    if spec.minus_edge:
        if fam == COMPLETE:
            if n < 3:
                raise DomainError("complete minus edge energy requires n >= 3")
            return 2.0
        if fam == COMPLETE_BIPARTITE:
            if m is None or m < 2 or n < 2:
                raise DomainError("complete_bipartite minus edge energy requires m, n >= 2")
            return 2.0 + 2.0 / math.sqrt(m * n)
        raise UnsupportedFamilyError(f"no minus-edge closed energy for {fam}")
    if fam == PATH:
        if n < 3:
            raise DomainError("path closed energy requires n >= 3")
        return 2.0 + 0.5 * path_graph_energy(n - 2)
    if fam == CYCLE:
        if n < 3:
            raise DomainError("cycle closed energy requires n >= 3")
        return _cycle_energy(n)
    if fam == STAR:
        if n < 2:
            raise DomainError("star closed energy requires n >= 2")
        return 2.0
    if fam == COMPLETE:
        if n < 2:
            raise DomainError("complete closed energy requires n >= 2")
        return 2.0
    if fam == COMPLETE_BIPARTITE:
        if m is None or m < 2 or n < 2:
            raise DomainError("complete_bipartite closed energy requires m, n >= 2")
        return 2.0
    if fam == FRIENDSHIP:
        if n < 2:
            raise DomainError("friendship closed energy requires n >= 2")
        return float(n + 1)
    if fam == DUTCH4:
        if n < 2:
            raise DomainError("dutch4 closed energy requires n >= 2")
        return 2.0 + (n - 1) * math.sqrt(2.0)
    raise DomainError(f"unknown family {fam!r}")


def small_case_charpoly(spec: FamilySpec) -> RatPoly:
    """Deprecated: ``closed_charpoly`` now covers paths from order 2 on.

    Nothing in the library calls this, and it is no longer exported. It is
    kept only because the benchmark's tracer (bench/tracing.py) wraps it by
    name; remove the two together.
    """
    return closed_charpoly(spec)
