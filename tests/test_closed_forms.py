import math
import threading
from fractions import Fraction as Fr

import pytest

from randic import (
    FAMILIES,
    DomainError,
    FamilySpec,
    RatPoly,
    UnsupportedFamilyError,
    charpoly_exact,
    closed_charpoly,
    closed_energy,
    generate,
    lambda_poly,
    path_graph_energy,
    randic_energy,
    spectral,
)

from oracles import cheb_u, power_by_squaring

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------- lambda sequence


def test_lambda_base_cases():
    assert lambda_poly(-1) == RatPoly.zero()
    assert lambda_poly(0) == RatPoly.one()
    assert lambda_poly(1) == RatPoly.x()
    assert lambda_poly(2) == RatPoly([Fr(-1, 4), 0, 1])


def test_lambda_recurrence_steps():
    assert lambda_poly(3) == RatPoly([0, Fr(-1, 2), 0, 1])
    assert lambda_poly(4) == RatPoly([Fr(1, 16), 0, Fr(-3, 4), 0, 1])


def test_lambda_domain_error():
    with pytest.raises(DomainError):
        lambda_poly(-2)


@pytest.mark.parametrize("k", range(0, 20))
def test_lambda_monic_with_degree_k(k):
    p = lambda_poly(k)
    assert p.degree == k
    assert p.coeffs[-1] == 1


def test_cheb_u_base_and_steps():
    assert cheb_u(0) == RatPoly.one()
    assert cheb_u(1) == RatPoly([0, 2])
    assert cheb_u(2) == RatPoly([-1, 0, 4])
    assert cheb_u(3) == RatPoly([0, -4, 0, 8])
    with pytest.raises(DomainError):
        cheb_u(-1)


@pytest.mark.parametrize("k", range(1, 65))
def test_chebyshev_scaling_oracle(k):
    assert lambda_poly(k) * 2**k == cheb_u(k)


def test_lambda_explicit_coefficients_satisfy_recurrence():
    # Λ_k = λ·Λ_{k-1} - Λ_{k-2}/4, from Λ_{-1} = 0 and Λ_0 = 1
    for k in range(1, 65):
        assert lambda_poly(k) == RatPoly.x() * lambda_poly(k - 1) - Fr(1, 4) * lambda_poly(k - 2)


def test_caches_safe_under_concurrent_access():
    results = []

    def worker():
        results.append((lambda_poly(48), cheb_u(48)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(lam == results[0][0] and u == results[0][1] for lam, u in results)
    assert results[0][0] * 2**48 == results[0][1]


# ---------------------------------------------------------------- closed charpolys


def test_closed_charpoly_star4():
    assert closed_charpoly(FamilySpec("star", 4)) == RatPoly([0, 0, -1, 0, 1])


def test_closed_charpoly_friendship2_expanded():
    p = closed_charpoly(FamilySpec("friendship", 2))
    assert p.degree == 5
    assert p == RatPoly([Fr(1, 16), Fr(3, 16), Fr(-1, 4), -1, 0, 1])


def test_closed_charpoly_cycle3():
    assert closed_charpoly(FamilySpec("cycle", 3)) == RatPoly([Fr(-1, 4), Fr(-3, 4), 0, 1])


def test_closed_charpoly_bipartite_minus_edge_is_path4():
    p = closed_charpoly(FamilySpec("complete_bipartite", 2, m=2, minus_edge=True))
    assert p == RatPoly([Fr(1, 4), 0, Fr(-5, 4), 0, 1])
    assert p == charpoly_exact(generate(FamilySpec("path", 4)))


def test_closed_charpoly_dutch4_two_blades():
    p = closed_charpoly(FamilySpec("dutch4", 2))
    assert p == RatPoly([0, 0, 0, Fr(1, 2), 0, Fr(-3, 2), 0, 1])


def test_closed_charpoly_powers_equal_repeated_squaring():
    # the families whose closed forms take a power, each power rebuilt here by
    # squaring and multiplying the same factors
    x, one = RatPoly.x(), RatPoly.one()

    def x_plus(num, den):
        return x + RatPoly([Fr(num, den)])

    for n in range(2, 61):
        want = (x - one) * power_by_squaring(x_plus(1, n - 1), n - 1)
        assert closed_charpoly(FamilySpec("complete", n)) == want
    for n in range(3, 61):
        want = x * (x - one) * x_plus(2, n - 1) * power_by_squaring(x_plus(1, n - 1), n - 3)
        assert closed_charpoly(FamilySpec("complete", n, minus_edge=True)) == want
    for family, k in (("friendship", 3), ("dutch4", 4)):
        cycle = closed_charpoly(FamilySpec("cycle", k))
        for n in range(2, 41):
            want = power_by_squaring(lambda_poly(k - 1), n - 1) * cycle
            assert closed_charpoly(FamilySpec(family, n)) == want


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("path", 1),
        FamilySpec("path", 0),
        FamilySpec("cycle", 2),
        FamilySpec("star", 1),
        FamilySpec("complete", 1),
        FamilySpec("complete_bipartite", 3, m=1),
        FamilySpec("friendship", 1),
        FamilySpec("dutch4", 1),
        FamilySpec("complete", 2, minus_edge=True),
        FamilySpec("complete_bipartite", 2, m=1, minus_edge=True),
        FamilySpec("path", 4, m=7),  # generate refuses m off complete_bipartite
        FamilySpec("path", spectral.ENERGY_ORDER_CAP + 1),
    ],
)
def test_closed_charpoly_domain_errors(spec):
    with pytest.raises(DomainError):
        closed_charpoly(spec)


def test_closed_charpoly_minus_edge_unsupported_families():
    with pytest.raises(UnsupportedFamilyError):
        closed_charpoly(FamilySpec("friendship", 3, minus_edge=True))


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("path", n) for n in range(5, 12)
    ]
    + [FamilySpec("cycle", n) for n in range(3, 12)]
    + [FamilySpec("star", n) for n in range(2, 10)]
    + [FamilySpec("complete", n) for n in range(2, 10)]
    + [FamilySpec("complete_bipartite", 4, m=3), FamilySpec("complete_bipartite", 2, m=2)]
    + [FamilySpec("friendship", n) for n in (2, 3, 5)]
    + [FamilySpec("dutch4", n) for n in (2, 3, 4)]
    + [FamilySpec("complete", n, minus_edge=True) for n in (3, 4, 7)]
    + [FamilySpec("complete_bipartite", 3, m=2, minus_edge=True)]
    + [FamilySpec("path", n) for n in range(2, 5)],
)
def test_closed_charpoly_equals_exact(spec):
    assert closed_charpoly(spec) == charpoly_exact(generate(spec))


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("path", 8),
        FamilySpec("cycle", 9),
        FamilySpec("friendship", 4),
        FamilySpec("dutch4", 3),
        FamilySpec("complete", 6, minus_edge=True),
    ],
)
def test_closed_charpoly_roots_sum_to_zero(spec):
    p = closed_charpoly(spec)
    assert p.coeffs[p.degree - 1] == 0


# ---------------------------------------------------------------- closed energies


def test_closed_energy_examples():
    assert closed_energy(FamilySpec("dutch4", 4)) == pytest.approx(
        6.242640687119285, abs=1e-12
    )
    assert closed_energy(FamilySpec("path", 4)) == pytest.approx(3.0, abs=1e-12)
    assert closed_energy(FamilySpec("cycle", 6)) == pytest.approx(4.0, abs=1e-12)
    assert closed_energy(
        FamilySpec("complete_bipartite", 3, m=2, minus_edge=True)
    ) == pytest.approx(2.816496580927726, abs=1e-12)


def test_closed_energy_constant_two_families_are_exact():
    for spec in [
        FamilySpec("star", 9),
        FamilySpec("complete", 7),
        FamilySpec("complete_bipartite", 5, m=4),
        FamilySpec("complete", 11, minus_edge=True),
    ]:
        assert closed_energy(spec) == 2.0


def test_closed_energy_friendship_is_n_plus_one():
    for n in range(2, 9):
        assert closed_energy(FamilySpec("friendship", n)) == float(n + 1)


def test_closed_energy_odd_cycle_matches_numeric():
    for n in (3, 5, 9, 13):
        spec = FamilySpec("cycle", n)
        assert closed_energy(spec) == pytest.approx(
            randic_energy(generate(spec)), abs=1e-9
        )


def test_closed_energy_even_cycle_lemma_matches_cos_sum():
    for n in (4, 6, 8, 14, 20):
        brute = sum(abs(math.cos(2.0 * math.pi * k / n)) for k in range(n))
        assert closed_energy(FamilySpec("cycle", n)) == pytest.approx(brute, abs=1e-12)


def test_path_graph_energy_analytic():
    assert path_graph_energy(0) == 0.0
    assert path_graph_energy(1) == pytest.approx(0.0, abs=1e-15)
    assert path_graph_energy(2) == pytest.approx(2.0, abs=1e-12)
    assert path_graph_energy(3) == pytest.approx(2.0 * SQRT2, abs=1e-12)
    with pytest.raises(DomainError, match="path order must be non-negative"):
        path_graph_energy(-1)


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("path", 1),
        FamilySpec("cycle", 2),
        FamilySpec("star", 1),
        FamilySpec("friendship", 1),
        FamilySpec("dutch4", 1),
        FamilySpec("complete", 2, minus_edge=True),
        FamilySpec("complete_bipartite", 4, m=1, minus_edge=True),
        FamilySpec("cycle", 6, m=2),  # generate refuses m off complete_bipartite
        FamilySpec("path", spectral.ENERGY_ORDER_CAP + 1),
    ],
)
def test_closed_energy_domain_errors(spec):
    with pytest.raises(DomainError):
        closed_energy(spec)


def _closed_outcome(closed, spec):
    try:
        closed(spec)
    except (DomainError, UnsupportedFamilyError) as exc:
        return type(exc)
    return None


def test_closed_forms_share_one_domain():
    # both closed forms accept and refuse the same specs, each refusal with
    # the same exception type: small sizes on every family, m off and on,
    # with and without the deleted edge, and one past the order cap
    cap = spectral.ENERGY_ORDER_CAP
    specs = [
        FamilySpec(family, n, m=m, minus_edge=minus_edge)
        for family in sorted(FAMILIES)
        for n in range(5)
        for m in (None, *range(5))
        for minus_edge in (False, True)
    ]
    specs += [
        FamilySpec(family, n, m=m, minus_edge=minus_edge)
        for family, n, m in [
            ("path", cap + 1, None),
            ("cycle", cap + 1, None),
            ("star", cap + 1, None),
            ("complete_bipartite", cap - 1, 2),
            ("friendship", cap // 2, None),
        ]
        for minus_edge in (False, True)
    ]
    accepted = 0
    for spec in specs:
        outcome = _closed_outcome(closed_charpoly, spec)
        assert _closed_outcome(closed_energy, spec) is outcome, spec
        accepted += outcome is None
    assert accepted > 0


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("path", 7),
        FamilySpec("cycle", 10),
        FamilySpec("star", 8),
        FamilySpec("dutch4", 5),
        FamilySpec("complete_bipartite", 6, m=2, minus_edge=True),
    ],
)
def test_closed_energy_matches_numeric(spec):
    assert closed_energy(spec) == pytest.approx(
        randic_energy(generate(spec)), abs=1e-9
    )


# ---------------------------------------------------------------- small cases


def test_closed_charpoly_small_paths():
    assert closed_charpoly(FamilySpec("path", 2)) == RatPoly([-1, 0, 1])
    assert closed_charpoly(FamilySpec("path", 3)) == RatPoly([0, -1, 0, 1])
    assert closed_charpoly(FamilySpec("path", 4)) == RatPoly(
        [Fr(1, 4), 0, Fr(-5, 4), 0, 1]
    )
    assert closed_charpoly(FamilySpec("star", 2)) == RatPoly([-1, 0, 1])

