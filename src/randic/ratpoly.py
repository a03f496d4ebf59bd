"""Dense univariate polynomials with exact rational coefficients, kept as
integer numerators over one common denominator."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence


class RatPoly:
    """Polynomial over the rationals, coefficients in ascending degree.

    The coefficients are ``nums[i] / den``: ``nums`` is a tuple of integers
    with trailing zeros trimmed, and ``den`` >= 1 has no factor in common
    with all of them, so each polynomial has one form and the zero
    polynomial is ``((), 1)``. Equality and hashing are exact and work on
    that form. Sums and products are integer operations followed by one
    gcd; ``coeffs`` builds the ``Fraction`` coefficients on demand, and is
    the only place that imports ``fractions``.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = ()):
        """Ints, Fractions, or anything else with ``as_integer_ratio()``."""
        ratios = [c.as_integer_ratio() for c in coeffs]
        den = math.lcm(*(d for _, d in ratios))
        self.nums, self.den = _canonical([n * (den // d) for n, d in ratios], den)

    @classmethod
    def from_numerators(cls, nums: Iterable[int], den: int = 1) -> RatPoly:
        """The polynomial with ascending coefficients ``nums[i] / den``."""
        if den < 1:
            raise ValueError(f"denominator must be positive (got {den})")
        p = object.__new__(cls)
        p.nums, p.den = _canonical(list(nums), den)
        return p

    @classmethod
    def zero(cls) -> RatPoly:
        return cls.from_numerators(())

    @classmethod
    def one(cls) -> RatPoly:
        return cls.from_numerators((1,))

    @classmethod
    def x(cls) -> RatPoly:
        return cls.from_numerators((0, 1))

    @property
    def coeffs(self):
        """The coefficients as a tuple of ``fractions.Fraction``."""
        from fractions import Fraction

        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def shift(self, k: int) -> RatPoly:
        """Multiply by x**k."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        return RatPoly.from_numerators((0,) * k + self.nums, self.den)

    def __add__(self, other: RatPoly) -> RatPoly:
        den = math.lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.nums]
        b = [c * (den // other.den) for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return RatPoly.from_numerators(a, den)

    def __neg__(self) -> RatPoly:
        return RatPoly.from_numerators([-c for c in self.nums], self.den)

    def __sub__(self, other: RatPoly) -> RatPoly:
        return self + (-other)

    def __mul__(self, other) -> RatPoly:
        """Product with a RatPoly, or with a scalar: an int, a Fraction or
        anything else with ``as_integer_ratio()``."""
        if not isinstance(other, RatPoly):
            num, den = other.as_integer_ratio()
            return RatPoly.from_numerators([c * num for c in self.nums], self.den * den)
        a, b = self.nums, other.nums
        if not a or not b:
            return RatPoly.zero()
        # a factor λ^k shifts the product: its k zeros stay out of the convolution
        low_a = next(i for i, c in enumerate(a) if c)
        low_b = next(i for i, c in enumerate(b) if c)
        nums = [0] * (low_a + low_b) + convolve(a[low_a:], b[low_b:])
        return RatPoly.from_numerators(nums, self.den * other.den)

    def __rmul__(self, other) -> RatPoly:
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> RatPoly:
        """P^m by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).

        With P·den = λ^low·A, a_0 != 0 and d = deg A, the power B = A^m has
        b_0 = a_0^m and k·a_0·b_k = Σ_{i=1..min(k,d)} ((m+1)i - k)·a_i·b_{k-i},
        a division that is exact in integers. So P^m = λ^(low·m)·B / den^m
        costs m·d sums of at most d integer products each, in place of
        repeated squaring's ever longer convolutions.
        """
        m = exponent
        if m < 0:
            raise ValueError("exponent must be non-negative")
        if not m:
            return RatPoly.one()
        if not self.nums:
            return RatPoly.zero()
        low = next(i for i, c in enumerate(self.nums) if c)
        a = self.nums[low:]
        a0, d = a[0], len(a) - 1
        b = [a0**m]
        for k in range(1, m * d + 1):
            total = sum(((m + 1) * i - k) * a[i] * b[k - i] for i in range(1, min(k, d) + 1) if a[i])
            b.append(total // (k * a0))
        return RatPoly.from_numerators([0] * (low * m) + b, self.den**m)

    def __call__(self, x):
        """Evaluate by Horner's rule on ``coeffs``; exact for int or Fraction
        input, float for float input."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"RatPoly.from_numerators({list(self.nums)!r}, {self.den})"

    def __str__(self) -> str:
        return format_poly(self)


def _canonical(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """``nums`` without trailing zeros, and both divided by their gcd with
    ``den`` (positive)."""
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    return tuple(nums), den


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


def format_coeffs(p: RatPoly) -> list[str]:
    """Each coefficient, ascending, as ``str`` of its Fraction reads:
    ``"p/q"`` in lowest terms, or ``"p"`` when q is 1."""
    den = p.den
    texts = []
    for c in p.nums:
        g = math.gcd(c, den)
        texts.append(str(c // g) if g == den else f"{c // g}/{den // g}")
    return texts


def format_poly(p: RatPoly, descending: bool = True) -> str:
    """Render a polynomial in λ as text, e.g. ``λ^4 - 5/4·λ^2 + 1/4``."""
    if p.is_zero:
        return "0"
    terms = [(k, c, text) for k, (c, text) in enumerate(zip(p.nums, format_coeffs(p))) if c]
    if descending:
        terms.reverse()
    parts: list[str] = []
    for idx, (k, c, text) in enumerate(terms):
        mag = text.lstrip("-")
        if k == 0:
            body = mag
        else:
            var = "λ" if k == 1 else f"λ^{k}"
            body = var if mag == "1" else f"{mag}·{var}"
        if idx == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
