import random
from fractions import Fraction as Fr

import pytest
from oracles import schoolbook_product

from randic import RatPoly, format_poly


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
    # Λ_3 = λ^3 - λ/2 has no constant term: its powers in the dutch4 closed
    # form are shifted, and no convolution carries their low zeros
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
