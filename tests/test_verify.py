import json
import math

import pytest

from randic import (
    DomainError,
    FamilySpec,
    RatPoly,
    Report,
    VerdictRecord,
    charpoly_exact,
    check_edge_deletion_lemmas,
    check_union_additivity,
    generate,
    integer_energy_witnesses,
    sweep_specs,
    verify_all,
    verify_instance,
)
from fractions import Fraction as Fr


def test_verify_instance_friendship5():
    rec = verify_instance(FamilySpec("friendship", 5), 1e-9)
    assert rec.charpoly_match
    assert rec.energy_abs_err < 1e-9
    assert rec.passed(1e-9)
    from randic import randic_energy

    assert randic_energy(generate(FamilySpec("friendship", 5))) == pytest.approx(
        6.0, abs=1e-9
    )


def test_verify_instance_complete2():
    rec = verify_instance(FamilySpec("complete", 2), 1e-9)
    assert rec.charpoly_match
    assert charpoly_exact(generate(FamilySpec("complete", 2))) == RatPoly([-1, 0, 1])
    assert rec.energy_abs_err < 1e-9
    assert rec.passed(1e-9)


def test_verify_instance_dutch3_energy_reference():
    rec = verify_instance(FamilySpec("dutch4", 3), 1e-9)
    assert rec.energy_abs_err < 1e-9
    assert rec.passed(1e-9)
    # the closed value it was compared against
    from randic import closed_energy

    assert closed_energy(FamilySpec("dutch4", 3)) == pytest.approx(
        4.82842712474619, abs=1e-12
    )


def test_verify_instance_below_energy_domain_still_passes():
    rec = verify_instance(FamilySpec("path", 2), 1e-9)
    assert rec.charpoly_match
    assert rec.energy_abs_err is None
    assert "below validity range" in rec.notes
    assert rec.passed(1e-9)


def test_verify_instance_bad_spec_is_recorded_not_raised():
    rec = verify_instance(FamilySpec("cycle", 2), 1e-9)
    assert rec.hard_failure
    assert not rec.passed(1e-9)
    assert rec.notes.startswith("error:")


def test_verify_instance_closed_domain_error_is_hard_failure():
    # path(1) generates, but no closed form covers it
    rec = verify_instance(FamilySpec("path", 1), 1e-9)
    assert rec.hard_failure
    assert not rec.passed(1e-9)
    assert rec.notes.startswith("error:")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_instance_small_paths_check_against_closed_form(monkeypatch, n):
    # a wrong exact route must fail the record: it is compared with the
    # closed form, never with itself (so it is swapped out on both sides)
    import randic.closed_forms
    import randic.verify

    def wrong(g):
        return RatPoly.monomial(g.n)

    monkeypatch.setattr(randic.verify, "charpoly_exact", wrong)
    monkeypatch.setattr(randic.closed_forms, "charpoly_exact", wrong, raising=False)
    rec = verify_instance(FamilySpec("path", n), 1e-9)
    assert not rec.charpoly_match
    assert not rec.passed(1e-9)


def test_verify_instance_fills_symmetry_for_bipartite_only():
    bip = verify_instance(FamilySpec("path", 6), 1e-9)
    assert bip.spectrum_sym_err is not None and bip.spectrum_sym_err < 1e-9
    odd = verify_instance(FamilySpec("cycle", 5), 1e-9)
    assert odd.spectrum_sym_err is None


def test_check_union_additivity_examples():
    p2 = generate(FamilySpec("path", 2))
    p3 = generate(FamilySpec("path", 3))
    assert check_union_additivity(p2, p3, 1e-9)
    k3 = generate(FamilySpec("complete", 3))
    k1 = generate(FamilySpec("complete", 1))
    assert check_union_additivity(k3, k1, 1e-9)
    f2 = generate(FamilySpec("friendship", 2))
    assert check_union_additivity(f2, f2, 1e-9)
    with pytest.raises(ValueError):
        check_union_additivity(p2, p3, 0.0)


BAD_TOLS = [float("nan"), float("inf"), 0.0, -1e-9]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_check_union_additivity_rejects_bad_tol(tol):
    p2 = generate(FamilySpec("path", 2))
    with pytest.raises(ValueError):
        check_union_additivity(p2, p2, tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_verify_all_rejects_bad_tol(tol):
    with pytest.raises(ValueError):
        verify_all(5, tol, witness_max=2)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_edge_deletion_lemmas_reject_bad_tol(tol):
    with pytest.raises(ValueError):
        check_edge_deletion_lemmas(tol, 4)


def test_edge_deletion_lemmas_all_pass():
    report = check_edge_deletion_lemmas(1e-9, 8)
    assert report.n_fail == 0
    assert report.n_pass == len(report.records) > 0
    notes = [r.notes for r in report.records]
    assert "path split r=2 s=3" in notes
    assert "cycle minus edge vs path" in notes
    assert "star minus edge vs 2" in notes


def test_edge_deletion_lemmas_requires_min_n():
    with pytest.raises(DomainError):
        check_edge_deletion_lemmas(1e-9, 3)


def test_integer_energy_witnesses_table():
    table = integer_energy_witnesses(10)
    assert table[0][0] == 2 and table[0][1] == FamilySpec("complete", 2)
    assert table[1][1] == FamilySpec("friendship", 2)
    by_m = {m: (spec, re) for m, spec, re in table}
    assert by_m[7][0] == FamilySpec("friendship", 6)
    for m, (_spec, re) in by_m.items():
        assert abs(re - m) < 1e-9
    with pytest.raises(DomainError):
        integer_energy_witnesses(1)


def test_verify_all_small_sweep():
    report = verify_all(5, 1e-9, witness_max=5)
    assert len(report.records) >= 20
    assert report.n_fail == 0
    # P_5 appears and its exact polynomial expands the factored closed form
    assert any(
        r.spec == FamilySpec("path", 5) and r.charpoly_match for r in report.records
    )
    assert charpoly_exact(generate(FamilySpec("path", 5))) == RatPoly(
        [0, Fr(1, 2), 0, Fr(-3, 2), 0, 1]
    )


def test_verify_all_requires_min_sweep():
    with pytest.raises(DomainError):
        verify_all(4)


def test_sweep_spec_bounds():
    specs = sweep_specs(6)
    fams = {}
    for s in specs:
        fams.setdefault((s.family, s.minus_edge), []).append(s)
    assert [s.n for s in fams[("path", False)]] == list(range(2, 7))
    assert [s.n for s in fams[("cycle", False)]] == list(range(3, 7))
    assert max(s.n for s in fams[("complete", False)]) == 6
    assert len(fams[("complete_bipartite", False)]) == 66
    assert len(fams[("complete", True)]) == 28
    assert len(fams[("complete_bipartite", True)]) == 45
    assert [s.n for s in fams[("friendship", False)]] == list(range(2, 13))


def test_report_json_schema():
    report = Report(tolerance=1e-9, meta={"tool": "randic", "version": "x", "generated_at": "t"})
    report.records.append(
        VerdictRecord(
            spec=FamilySpec("path", 5),
            charpoly_match=True,
            energy_abs_err=1e-12,
            max_root_residual=1e-13,
            spectrum_sym_err=1e-12,
            elapsed=0.01,
            notes="",
        )
    )
    payload = json.loads(report.to_json())
    assert set(payload) == {"tolerance", "summary", "records", "meta"}
    assert payload["summary"] == {"pass": 1, "fail": 0}
    rec = payload["records"][0]
    assert set(rec) == {
        "family",
        "n",
        "m",
        "minus_edge",
        "charpoly_match",
        "energy_abs_err",
        "max_root_residual",
        "notes",
    }


def test_report_fail_accounting():
    report = Report(tolerance=1e-9)
    good = VerdictRecord(FamilySpec("path", 5), True, 1e-12, 1e-12, None, 0.0)
    bad_poly = VerdictRecord(FamilySpec("path", 6), False, 1e-12, 1e-12, None, 0.0)
    bad_energy = VerdictRecord(FamilySpec("path", 7), True, 1e-3, 1e-12, None, 0.0)
    bad_residual = VerdictRecord(FamilySpec("path", 8), True, 1e-12, 1.0, None, 0.0)
    bad_sym = VerdictRecord(FamilySpec("path", 9), True, 1e-12, 1e-12, 0.5, 0.0)
    report.records += [good, bad_poly, bad_energy, bad_residual, bad_sym]
    assert report.n_pass == 1
    assert report.n_fail == 4


def test_union_additivity_respects_energy_values():
    # energies known in closed form: star -> 2, friendship n -> n+1
    star = generate(FamilySpec("star", 7))
    f3 = generate(FamilySpec("friendship", 3))
    from randic import disjoint_union, randic_energy

    assert randic_energy(disjoint_union(star, f3)) == pytest.approx(6.0, abs=1e-9)
    assert math.isclose(
        randic_energy(star) + randic_energy(f3), 6.0, abs_tol=1e-9
    )


@pytest.mark.parametrize(
    "spec",
    [FamilySpec("path", 9), FamilySpec("friendship", 6), FamilySpec("complete", 12, minus_edge=True)],
)
def test_max_root_residual_bit_identical_to_rational_horner(spec):
    from randic import Spectrum, eigenvalues, randic_matrix
    from randic.verify import _max_root_residual

    g = generate(spec)
    poly = charpoly_exact(g)
    spectrum = eigenvalues(randic_matrix(g))
    assert _max_root_residual(poly, spectrum) == max(abs(float(poly(v))) for v in spectrum.values)
    for v in spectrum.values + (0.3, -2.5):
        assert _max_root_residual(poly, Spectrum((v,))) == abs(float(poly(v)))
