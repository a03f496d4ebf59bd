import math
import operator
import random
from fractions import Fraction as Fr
from functools import reduce
from itertools import zip_longest

import pytest
from oracles import format_fractions, schoolbook_product

from randic import RatPoly, closed_charpoly, format_poly, sweep_specs
from randic.cli import _poly_json


def test_normalization_trims_trailing_zeros():
    assert RatPoly([1, 2, 0, 0]).coeffs == (Fr(1), Fr(2))
    assert RatPoly([0, 0, 0]).coeffs == ()
    assert RatPoly([]).is_zero
    assert RatPoly([0]).is_zero
    assert RatPoly([0]) == RatPoly([])


def test_degree_and_leading():
    assert RatPoly([]).degree == -1
    assert RatPoly([5]).degree == 0
    p = RatPoly([Fr(1, 4), 0, 1])
    assert p.degree == 2


def test_product_matches_expanded_form():
    # (x^2-1)(x^2-1/4) == x^4 - 5/4 x^2 + 1/4
    left = RatPoly([-1, 0, 1]) * RatPoly([Fr(-1, 4), 0, 1])
    assert left == RatPoly([Fr(1, 4), 0, Fr(-5, 4), 0, 1])


@pytest.mark.parametrize(
    "a, b",
    [
        ([Fr(1, 3), Fr(-5, 6), Fr(7, 4)], [Fr(2, 9), 0, Fr(-1, 10), Fr(3, 8)]),
        ([Fr(-1, 2), 0, Fr(-1, 4)], [Fr(-3, 7), Fr(1, 2)]),
        ([1, -2, 3], [-4, 0, 5]),
        ([Fr(6, 5)], [0, 0, Fr(-10, 3)]),
        ([0, 0, Fr(1, 2), 0, 3], [0, Fr(-2, 3), 1]),
        ([0, 1], [0, 0, 0, Fr(5, 7)]),
        ([], [1, Fr(1, 2)]),
        ([Fr(2, 3), 1], []),
        ([], []),
    ],
)
def test_product_matches_schoolbook(a, b):
    assert (RatPoly(a) * RatPoly(b)).coeffs == schoolbook_product(a, b)


@pytest.mark.parametrize("seed", range(8))
def test_product_matches_schoolbook_random(seed):
    rng = random.Random(seed)

    def coeffs():
        return [Fr(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(rng.randint(0, 9))]

    a, b = coeffs(), coeffs()
    assert (RatPoly(a) * RatPoly(b)).coeffs == schoolbook_product(a, b)


@pytest.mark.parametrize("a", [[Fr(-1, 3), Fr(5, 6), 1], [2, -1], [Fr(3, 4)], []])
def test_pow_matches_repeated_schoolbook(a):
    want: tuple = (Fr(1),)
    for k in range(7):
        assert (RatPoly(a) ** k).coeffs == want
        want = schoolbook_product(want, a)


def test_pow_binomial():
    p = (RatPoly.x() + RatPoly.one()) ** 4
    assert p == RatPoly([1, 4, 6, 4, 1])
    assert (RatPoly.x() ** 0) == RatPoly.one()
    with pytest.raises(ValueError):
        RatPoly.x() ** -1


def test_pow_matches_repeated_multiplication():
    # Miller's recurrence divides by k·a_0 at each step: random numerators of
    # both signs over a denominator above 1, half of them with no constant term
    rng = random.Random(20261021)
    for i in range(30):
        degree = i % 6
        nums = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
        if i % 2:
            nums[0] = 0
        p = RatPoly.from_numerators(nums, rng.randint(2, 12))
        for m in (0, 1, 2, 3, 7, 20):
            assert p**m == reduce(operator.mul, [p] * m, RatPoly.one())


def test_pow_of_zero_and_negative_exponents():
    zero = RatPoly.zero()
    assert zero**0 == RatPoly.one()
    assert all(zero**m == zero for m in (1, 2, 5))
    for p in (zero, RatPoly([Fr(1, 2), 0, -3])):
        with pytest.raises(ValueError):
            p ** -2


def test_add_sub_scalar_mul():
    p = RatPoly([1, 2, 3])
    q = RatPoly([0, -2, -3])
    assert p + q == RatPoly([1])
    assert p - p == RatPoly.zero()
    assert 2 * p == RatPoly([2, 4, 6])
    assert p * Fr(1, 3) == RatPoly([Fr(1, 3), Fr(2, 3), 1])


def test_shift_and_monomial():
    assert RatPoly([1]).shift(3) == RatPoly([0, 0, 0, 1])
    assert RatPoly.zero().shift(5).is_zero
    assert RatPoly([Fr(1, 2)]).shift(2) == RatPoly([0, 0, Fr(1, 2)])
    with pytest.raises(ValueError, match="shift must be non-negative"):
        RatPoly([1]).shift(-1)


def test_equality_truth_repr_and_str():
    p = RatPoly([Fr(-1, 4), 0, 1])
    # another type is not equal, whatever its value
    assert p.__eq__(p(0)) is NotImplemented
    assert RatPoly.one() != 1 and RatPoly.one() != (1,)
    assert bool(p) and bool(RatPoly.one()) and not RatPoly.zero()
    assert repr(p) == "RatPoly.from_numerators([-1, 0, 4], 4)"
    assert eval(repr(p), {"RatPoly": RatPoly}) == p
    assert eval(repr(RatPoly.zero()), {"RatPoly": RatPoly}) == RatPoly.zero()
    assert str(p) == format_poly(p) == "λ^2 - 1/4"


def test_evaluate_exact_and_float():
    p = RatPoly([Fr(1, 4), 0, Fr(-5, 4), 0, 1])
    assert p(Fr(1, 2)) == Fr(1, 2) ** 4 - Fr(5, 4) * Fr(1, 4) + Fr(1, 4)
    assert p(1) == 0
    assert abs(p(0.5)) < 1e-15


def test_hash_consistent_with_eq():
    a = RatPoly([Fr(2, 4), 1])
    b = RatPoly([Fr(1, 2), 1])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_products_convolve_from_the_lowest_nonzero_coefficients(monkeypatch):
    # Λ_3 = λ^3 - λ/2 has no constant term: the dutch4 closed form multiplies
    # its shifted power by φ(C_4), and no convolution carries the low zeros
    import randic.ratpoly
    from randic import FamilySpec, closed_charpoly, lambda_poly

    seen = []
    convolve = randic.ratpoly.convolve

    def recording(a, b):
        seen.append((a[0], b[0]))
        return convolve(a, b)

    monkeypatch.setattr(randic.ratpoly, "convolve", recording)
    p = closed_charpoly(FamilySpec("dutch4", 10))
    assert seen and all(a and b for a, b in seen)
    # φ = Λ_3^9·φ(C_4), expanded term by term
    expected = closed_charpoly(FamilySpec("cycle", 4)).coeffs
    for _ in range(9):
        expected = schoolbook_product(expected, lambda_poly(3).coeffs)
    assert p.coeffs == expected


def test_format_poly_descending_default():
    p = RatPoly([Fr(1, 4), 0, Fr(-5, 4), 0, 1])
    assert format_poly(p) == "λ^4 - 5/4·λ^2 + 1/4"
    assert format_poly(p, descending=False) == "1/4 - 5/4·λ^2 + λ^4"
    assert format_poly(RatPoly([0, -1, 0, 1])) == "λ^3 - λ"
    assert format_poly(RatPoly.zero()) == "0"
    assert format_poly(RatPoly([-1, 0, 1])) == "λ^2 - 1"
    assert format_poly(RatPoly([1, -1])) == "-λ + 1"


def _assert_canonical(p):
    # integer numerators, trailing zeros trimmed, over the least positive denominator
    assert type(p.nums) is tuple and all(type(c) is int for c in p.nums)
    assert type(p.den) is int and p.den >= 1
    assert not p.nums or p.nums[-1] != 0
    assert math.gcd(p.den, *p.nums) == 1


def _fractions(values) -> tuple:
    out = [Fr(c) for c in values]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@pytest.mark.parametrize(
    "coeffs",
    [
        [],
        [0, 0],
        [4, -6, 0],
        [Fr(6, 4), Fr(-9, 6)],
        [Fr(1, 2), 3, Fr(0), 0.25, 0],
        [Fr(-2, 3), Fr(4, 3)],
        [True, 2],
    ],
)
def test_construction_is_canonical(coeffs):
    p = RatPoly(coeffs)
    _assert_canonical(p)
    assert p.coeffs == _fractions(coeffs)


def test_canonical_form_examples():
    def form(p):
        return p.nums, p.den

    assert form(RatPoly.zero()) == form(RatPoly.from_numerators([0, 0], 7)) == ((), 1)
    assert form(RatPoly([Fr(-2, 3), Fr(4, 3)])) == ((-2, 4), 3)
    assert form(RatPoly.from_numerators([6, -4, 0], 8)) == ((3, -2), 4)
    assert form(RatPoly([Fr(1, 2)]) * 2) == ((1,), 1)
    with pytest.raises(ValueError, match="denominator must be positive"):
        RatPoly.from_numerators([1], 0)


@pytest.mark.parametrize("seed", range(8))
def test_arithmetic_is_canonical_and_matches_fractions(seed):
    rng = random.Random(f"ratpoly-ops:{seed}")

    def coeffs():
        return [
            Fr(rng.randint(-40, 40), rng.randint(1, 24)) if rng.random() < 0.7 else rng.randint(-3, 3)
            for _ in range(rng.randint(0, 7))
        ]

    a, b = coeffs(), coeffs()
    pa, pb = RatPoly(a), RatPoly(b)
    scalar = rng.choice([0, 3, -1, Fr(-2, 9), Fr(6, 4)])
    k = rng.randint(0, 3)
    cube = schoolbook_product(schoolbook_product(a, a), a)
    cases = [
        (pa + pb, [x + y for x, y in zip_longest(_fractions(a), _fractions(b), fillvalue=0)]),
        (pa - pb, [x - y for x, y in zip_longest(_fractions(a), _fractions(b), fillvalue=0)]),
        (-pa, [-x for x in _fractions(a)]),
        (pa * pb, schoolbook_product(a, b)),
        (pa**3, cube),
        (pa.shift(k), [0] * k + list(_fractions(a)) if _fractions(a) else []),
        (pa * scalar, [x * scalar for x in _fractions(a)]),
        (scalar * pb, [x * scalar for x in _fractions(b)]),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert got.coeffs == _fractions(want)


@pytest.mark.parametrize(
    "coeffs",
    [
        [Fr(1, 4), 0, Fr(-5, 4), 0, 1],
        [-1, 0, 1],
        [1, -1],
        [Fr(-3, 2), Fr(2, 3), -1, 1],
        [0, 0, Fr(-7, 3)],
        [0, Fr(-1, 6), Fr(12, 8), 0, -2],
        [5],
        [-1],
        [0, -1],
        [],
    ],
)
def test_formatting_matches_fraction_rendering(coeffs):
    # negative, unit and non-unit coefficients, rendered from the numerators
    p = RatPoly(coeffs)
    for descending in (True, False):
        assert format_poly(p, descending=descending) == format_fractions(p, descending=descending)
    assert _poly_json(p) == {"degree": p.degree, "coeffs_ascending": [str(c) for c in p.coeffs]}


def test_float_coefficients_equal_float_of_fraction():
    # int / int is correctly rounded, so it matches float(Fraction) bit for bit
    for spec in sweep_specs(24):
        p = closed_charpoly(spec)
        assert [c / p.den for c in p.nums] == [float(c) for c in p.coeffs], spec
