"""Dense univariate polynomials with exact rational coefficients."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class RatPoly:
    """Polynomial over the rationals, coefficients stored in ascending degree.

    Coefficients are normalized ``Fraction`` values with trailing zeros
    trimmed; the zero polynomial is the empty coefficient tuple. Equality
    and hashing are exact and coefficient-wise. Products run as integer
    convolutions: each factor is scaled to integer numerators over its
    common denominator, so the only ``Fraction`` arithmetic left is one
    normalization per output coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "RatPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def shift(self, k: int) -> "RatPoly":
        """Multiply by x**k."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        if self.is_zero:
            return self
        return RatPoly((Fraction(0),) * k + self.coeffs)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other: "RatPoly | Scalar") -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return RatPoly(())
        # a factor λ^k shifts the product: its k zeros stay out of the convolution
        a, da, low_a = _integer_numerators(self.coeffs)
        b, db, low_b = _integer_numerators(other.coeffs)
        den = da * db
        return RatPoly([Fraction(0)] * (low_a + low_b) + [Fraction(c, den) for c in convolve(a, b)])

    def __rmul__(self, other: Scalar) -> "RatPoly":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "RatPoly":
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        result = RatPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for Fraction input, float otherwise."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"RatPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Ascending coefficients of the product of two non-empty integer
    coefficient lists; a zero in ``a`` costs nothing, so put the sparser
    factor first."""
    width = len(b)
    out = [0] * (len(a) + width - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + width] = [o + x * y for o, y in zip(out[i : i + width], b)]
    return out


def _integer_numerators(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int, int]:
    """Integers c_i, a common denominator d and the index k of the lowest
    nonzero coefficient, with coeffs[k + i] = c_i / d."""
    k = 0
    while not coeffs[k]:
        k += 1
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs[k:]], den, k


def format_poly(p: RatPoly, descending: bool = True) -> str:
    """Render a polynomial in λ as text, e.g. ``λ^4 - 5/4·λ^2 + 1/4``."""
    if p.is_zero:
        return "0"
    terms = [(k, c) for k, c in enumerate(p.coeffs) if c != 0]
    if descending:
        terms.reverse()
    parts: list[str] = []
    for idx, (k, c) in enumerate(terms):
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "λ" if k == 1 else f"λ^{k}"
            body = var if mag == 1 else f"{mag}·{var}"
        if idx == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
