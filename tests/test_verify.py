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
    closed_charpoly,
    generate,
    sweep_specs,
    verify_all,
    verify_instance,
)
from fractions import Fraction as Fr


def test_verify_instance_friendship5():
    rec = verify_instance(FamilySpec("friendship", 5))
    assert rec.charpoly_match
    assert rec.energy_abs_err < 1e-9
    assert rec.passed(1e-9)
    from randic import randic_energy

    assert randic_energy(generate(FamilySpec("friendship", 5))) == pytest.approx(
        6.0, abs=1e-9
    )


def test_verify_instance_complete2():
    rec = verify_instance(FamilySpec("complete", 2))
    assert rec.charpoly_match
    assert charpoly_exact(generate(FamilySpec("complete", 2))) == RatPoly([-1, 0, 1])
    assert rec.energy_abs_err < 1e-9
    assert rec.passed(1e-9)


def test_verify_instance_dutch3_energy_reference():
    rec = verify_instance(FamilySpec("dutch4", 3))
    assert rec.energy_abs_err < 1e-9
    assert rec.passed(1e-9)
    # the closed value it was compared against
    from randic import closed_energy

    assert closed_energy(FamilySpec("dutch4", 3)) == pytest.approx(
        4.82842712474619, abs=1e-12
    )


def test_verify_instance_below_energy_domain_still_passes():
    rec = verify_instance(FamilySpec("path", 2))
    assert rec.charpoly_match
    assert rec.energy_abs_err is None
    assert "below validity range" in rec.notes
    assert rec.passed(1e-9)


def test_verify_instance_bad_spec_is_recorded_not_raised():
    rec = verify_instance(FamilySpec("cycle", 2))
    assert rec.hard_failure
    assert not rec.passed(1e-9)
    assert rec.notes.startswith("error:")


def test_verify_instance_closed_domain_error_is_hard_failure():
    # path(1) generates, but no closed form covers it
    rec = verify_instance(FamilySpec("path", 1))
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
        return RatPoly.one().shift(g.n)

    monkeypatch.setattr(randic.verify, "charpoly_exact", wrong)
    monkeypatch.setattr(randic.closed_forms, "charpoly_exact", wrong, raising=False)
    rec = verify_instance(FamilySpec("path", n))
    assert not rec.charpoly_match
    assert not rec.passed(1e-9)


def test_verify_instance_fills_symmetry_for_bipartite_only():
    bip = verify_instance(FamilySpec("path", 6))
    assert bip.spectrum_sym_err is not None and bip.spectrum_sym_err < 1e-9
    odd = verify_instance(FamilySpec("cycle", 5))
    assert odd.spectrum_sym_err is None


def test_check_union_additivity_examples():
    # P2 u P3, K3 u K1 and F2 u F2 against the closed forms; K1 is an
    # isolated vertex (lambda, energy 0) and P2's energy is K2's
    from randic import closed_energy, disjoint_union, randic_energy

    def part(family, n):
        spec = FamilySpec(family, n)
        if n == 1:
            return generate(spec), RatPoly.x(), 0.0
        energy_spec = FamilySpec("complete", 2) if spec == FamilySpec("path", 2) else spec
        return generate(spec), closed_charpoly(spec), closed_energy(energy_spec)

    for (family, n, k) in [("path", 2, 3), ("complete", 3, 1), ("friendship", 2, 2)]:
        (g1, p1, e1), (g2, p2, e2) = part(family, n), part(family, k)
        union = disjoint_union(g1, g2)
        assert charpoly_exact(union) == p1 * p2
        assert randic_energy(union) == pytest.approx(e1 + e2, abs=1e-9)


BAD_TOLS = [float("nan"), float("inf"), 0.0, -1e-9]


@pytest.mark.parametrize("tol", BAD_TOLS + [-1.0])
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


def test_sweeps_reject_max_n_above_exact_order_cap(monkeypatch):
    # every record of a path beyond the exact route's cap would be a hard
    # failure, so such a sweep is refused before any record is built
    import randic.verify
    from randic.spectral import EXACT_ORDER_CAP

    def no_record(*args):
        raise AssertionError("a record was built")

    monkeypatch.setattr(randic.verify, "_record", no_record)
    with pytest.raises(DomainError, match=f"max_n <= {EXACT_ORDER_CAP}"):
        verify_all(EXACT_ORDER_CAP + 1)
    with pytest.raises(DomainError, match=f"max_n <= {EXACT_ORDER_CAP}"):
        check_edge_deletion_lemmas(1e-9, EXACT_ORDER_CAP + 1)


def test_integer_energy_witnesses_table():
    report = verify_all(5, 1e-9, witness_max=20)
    witnesses = [r for r in report.records if r.notes.startswith("integer energy witness")]
    assert [r.notes for r in witnesses] == [f"integer energy witness m={m}" for m in range(2, 21)]
    assert witnesses[0].spec == FamilySpec("complete", 2)
    assert witnesses[1].spec == FamilySpec("friendship", 2)
    assert witnesses[5].spec == FamilySpec("friendship", 6)
    for r in witnesses:
        assert r.passed(1e-9) and r.energy_abs_err < 1e-9
    with pytest.raises(DomainError, match="m_max"):
        verify_all(5, 1e-9, witness_max=1)


def test_witness_records_check_exact_polynomial_and_roots(monkeypatch):
    import randic.verify

    def wrong(g):
        return charpoly_exact(g) + RatPoly.one()

    monkeypatch.setattr(randic.verify, "charpoly_exact", wrong)
    report = verify_all(5, 1e-9, witness_max=4)
    witnesses = [r for r in report.records if r.notes.startswith("integer energy witness")]
    assert [r.notes for r in witnesses] == [f"integer energy witness m={m}" for m in (2, 3, 4)]
    for r in witnesses:
        assert not r.charpoly_match
        assert r.max_root_residual > 0.5
        assert not r.passed(1e-9)


def test_witness_domain_error_is_hard_failure(monkeypatch):
    import randic.verify

    def closed(spec):
        if spec.family == "friendship":
            raise DomainError("out of range")
        return closed_charpoly(spec)

    monkeypatch.setattr(randic.verify, "closed_charpoly", closed)
    report = verify_all(5, 1e-9, witness_max=3)
    two, three = report.records[-2:]
    assert two.notes == "integer energy witness m=2" and two.passed(1e-9)
    assert three.spec == FamilySpec("friendship", 2)
    assert three.hard_failure and not three.passed(1e-9)
    assert three.notes.startswith("integer energy witness m=3; error:")


def test_lemma_error_is_hard_failure_not_abort(monkeypatch):
    # an exact route that stops at order 4 fails every lemma graph of order 5
    # in its own record; the sweep still returns a whole Report
    import randic.spectral

    monkeypatch.setattr(randic.spectral, "EXACT_ORDER_CAP", 4)
    report = verify_all(5, 1e-9, witness_max=3)
    assert isinstance(report, Report)
    assert len(report.records) == 194
    notes = {r.notes.split(";")[0]: r for r in report.records[176:]}
    error = "error: exact characteristic polynomial capped at order 4 (got 5)"
    for note in ("path split r=2 s=3", "path split r=3 s=2", "integer energy witness m=3"):
        assert notes[note].hard_failure and not notes[note].passed(1e-9)
        assert notes[note].notes == f"{note}; {error}"
    cycles = [r for r in report.records if r.notes.startswith("cycle minus edge vs path")]
    assert [r.hard_failure for r in cycles] == [False, False, True]
    # P_1 ∪ P_4 has four non-isolated vertices, so its record still checks and passes
    assert notes["path split r=1 s=4"].passed(1e-9)
    assert sum(r.hard_failure for r in report.records) == 165


def _lemma_records(report: Report) -> list[VerdictRecord]:
    lemma_families = ("path", "cycle", "star")
    return [r for r in report.records if r.spec.minus_edge and r.spec.family in lemma_families]


def test_lemma_records_fail_when_both_routes_scale_the_spectrum(monkeypatch):
    # scale every root by 1.001 in both routes alike, randic_energy included:
    # a record whose reference came from either route would still agree with
    # itself and pass
    import randic.spectral
    import randic.verify
    from randic import Spectrum, eigenvalues

    scale = Fr(1001, 1000)

    def scaled_poly(g):
        coeffs = charpoly_exact(g).coeffs
        top = len(coeffs) - 1
        return RatPoly(c * scale ** (top - k) for k, c in enumerate(coeffs))

    def scaled_values(matrix, tol):
        return Spectrum(tuple(v * 1.001 for v in eigenvalues(matrix, tol).values))

    monkeypatch.setattr(randic.verify, "charpoly_exact", scaled_poly)
    monkeypatch.setattr(randic.verify, "eigenvalues", scaled_values)
    monkeypatch.setattr(randic.spectral, "eigenvalues", scaled_values)
    lemmas = _lemma_records(verify_all(24))
    assert len(lemmas) == 320
    # path(2) - e is two isolated vertices: every root is 0, which scaling keeps
    assert [r.notes for r in lemmas if r.passed(1e-9)] == ["path split r=1 s=1"]


def test_path_splits_with_a_p2_part_fail_when_closed_twins_count_as_open(monkeypatch):
    # a copy of charpoly_exact that gives every twin class the factor dλ, so
    # P_2's closed twins get λ where they should get λ + 1
    import inspect
    import textwrap

    import randic.spectral
    import randic.verify

    source = textwrap.dedent(inspect.getsource(randic.spectral.charpoly_exact))
    original = "factor = (degs[first], int(first in key))"
    assert original in source
    namespace = dict(vars(randic.spectral))
    exec(source.replace(original, "factor = (degs[first], 0)"), namespace)
    monkeypatch.setattr(randic.verify, "charpoly_exact", namespace["charpoly_exact"])
    splits = [
        r for r in _lemma_records(verify_all(24))
        if r.spec.family == "path" and 2 in (int(part[2:]) for part in r.notes.split()[2:])
    ]
    assert len(splits) == 43
    assert not any(r.charpoly_match or r.passed(1e-9) for r in splits)


def test_witness_max_limited_by_exact_order_cap():
    from randic.spectral import EXACT_ORDER_CAP
    from randic.verify import _witness_specs

    specs = _witness_specs(64)
    assert specs[-1] == (64, FamilySpec("friendship", 63))
    assert generate(specs[-1][1]).n == 127 <= EXACT_ORDER_CAP
    with pytest.raises(DomainError, match="m_max <= 64"):
        _witness_specs(65)
    with pytest.raises(DomainError):
        verify_all(5, 1e-9, witness_max=65)


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
