import hashlib
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

from oracles import disjoint_union


def _hard_failure(rec: VerdictRecord) -> bool:
    """The shape of a record whose reference or route raised: no match, no
    energy or power-sum error, and the error in its notes."""
    checked = (rec.charpoly_match, rec.energy_abs_err, rec.power_sum_err)
    return checked == (False, None, None) and "error:" in rec.notes


def test_verify_instance_friendship5():
    rec = verify_instance(FamilySpec("friendship", 5))
    assert rec.charpoly_match
    assert rec.energy_abs_err < 1e-9
    assert rec.passed()
    from randic import randic_energy

    assert randic_energy(generate(FamilySpec("friendship", 5))) == pytest.approx(
        6.0, abs=1e-9
    )


def test_verify_instance_complete2():
    rec = verify_instance(FamilySpec("complete", 2))
    assert rec.charpoly_match
    assert charpoly_exact(generate(FamilySpec("complete", 2))) == RatPoly([-1, 0, 1])
    assert rec.energy_abs_err < 1e-9
    assert rec.passed()


def test_verify_instance_dutch3_energy_reference():
    rec = verify_instance(FamilySpec("dutch4", 3))
    assert rec.energy_abs_err < 1e-9
    assert rec.passed()
    # the closed value it was compared against
    from randic import closed_energy

    assert closed_energy(FamilySpec("dutch4", 3)) == pytest.approx(
        4.82842712474619, abs=1e-12
    )


def test_verify_instance_path2_checks_its_energy():
    # both closed forms start at order 2, so P_2's record checks an energy
    rec = verify_instance(FamilySpec("path", 2))
    assert rec.charpoly_match
    assert rec.energy_abs_err == 0.0
    assert rec.notes == ""
    assert rec.passed()


def test_verify_instance_bad_spec_is_recorded_not_raised():
    rec = verify_instance(FamilySpec("cycle", 2))
    assert _hard_failure(rec)
    assert not rec.passed()
    assert rec.notes.startswith("error:")


def test_verify_instance_closed_domain_error_is_hard_failure():
    # path(1) generates, but no closed form covers it
    rec = verify_instance(FamilySpec("path", 1))
    assert _hard_failure(rec)
    assert not rec.passed()
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
    assert not rec.passed()


def test_check_union_additivity_examples():
    # P2 u P3, K3 u K1 and F2 u F2 against the closed forms; K1 is an
    # isolated vertex (lambda, energy 0)
    from randic import closed_energy, randic_energy

    def part(family, n):
        spec = FamilySpec(family, n)
        if n == 1:
            return generate(spec), RatPoly.x(), 0.0
        return generate(spec), closed_charpoly(spec), closed_energy(spec)

    for (family, n, k) in [("path", 2, 3), ("complete", 3, 1), ("friendship", 2, 2)]:
        (g1, p1, e1), (g2, p2, e2) = part(family, n), part(family, k)
        union = disjoint_union(g1, g2)
        assert charpoly_exact(union) == p1 * p2
        assert randic_energy(union) == pytest.approx(e1 + e2, abs=1e-9)


def test_edge_deletion_lemmas_all_pass():
    report = check_edge_deletion_lemmas(8)
    assert report.n_fail == 0
    assert report.n_pass == len(report.records) > 0
    notes = [r.notes for r in report.records]
    assert "path split r=2 s=3" in notes
    assert "cycle minus edge vs path" in notes
    assert "star minus edge vs 2" in notes


def test_edge_deletion_lemmas_requires_min_n():
    with pytest.raises(DomainError):
        check_edge_deletion_lemmas(3)


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
        check_edge_deletion_lemmas(EXACT_ORDER_CAP + 1)


def test_integer_energy_witnesses_table():
    report = verify_all(5)
    witnesses = [r for r in report.records if r.notes.startswith("integer energy witness")]
    assert [r.notes for r in witnesses] == [f"integer energy witness m={m}" for m in range(2, 21)]
    assert witnesses[0].spec == FamilySpec("complete", 2)
    assert witnesses[1].spec == FamilySpec("friendship", 2)
    assert witnesses[5].spec == FamilySpec("friendship", 6)
    for r in witnesses:
        assert r.passed() and r.energy_abs_err < 1e-9


def test_witness_records_check_exact_polynomial_and_roots(monkeypatch):
    import randic.verify

    def wrong(g):
        return charpoly_exact(g) + RatPoly.one()

    monkeypatch.setattr(randic.verify, "charpoly_exact", wrong)
    report = verify_all(5)
    witnesses = [r for r in report.records if r.notes.startswith("integer energy witness")]
    assert [r.notes for r in witnesses] == [f"integer energy witness m={m}" for m in range(2, 21)]
    for r in witnesses:
        assert not r.charpoly_match
        assert not r.passed()
    # a wrong constant term moves only the power sums from the degree on:
    # K_2's p_2 and p_4 (λ² - 1 becomes λ², both from 2 to 0), and none of
    # a friendship graph's first four (order 5 and up)
    assert witnesses[0].power_sum_err == 2.0
    assert all(r.power_sum_err < 1e-11 for r in witnesses[1:])

    def wrong_trace(g):
        return charpoly_exact(g) + RatPoly.x().shift(g.n - 2)

    # one more λ^(n-1) lowers the sum of the roots, p_1, by 1
    monkeypatch.setattr(randic.verify, "charpoly_exact", wrong_trace)
    witnesses = [r for r in verify_all(5).records if r.notes.startswith("integer energy witness")]
    assert len(witnesses) == 19
    for r in witnesses:
        assert not r.charpoly_match
        assert r.power_sum_err > 0.5
        assert not r.passed()


def test_witness_domain_error_is_hard_failure(monkeypatch):
    import randic.verify

    def closed(spec):
        if spec.family == "friendship":
            raise DomainError("out of range")
        return closed_charpoly(spec)

    monkeypatch.setattr(randic.verify, "closed_charpoly", closed)
    report = verify_all(5)
    two, *rest = report.records[-19:]
    assert two.notes == "integer energy witness m=2" and two.passed()
    assert [r.spec for r in rest] == [FamilySpec("friendship", m - 1) for m in range(3, 21)]
    for m, r in enumerate(rest, start=3):
        assert _hard_failure(r) and not r.passed()
        assert r.notes.startswith(f"integer energy witness m={m}; error:")


def test_lemma_error_is_hard_failure_not_abort(monkeypatch):
    # an exact route that stops at order 4 fails every lemma graph of order 5
    # in its own record; the sweep still returns a whole Report
    import randic.spectral

    monkeypatch.setattr(randic.spectral, "EXACT_ORDER_CAP", 4)
    report = verify_all(5)
    assert isinstance(report, Report)
    assert len(report.records) == 211
    notes = {r.notes.split(";")[0]: r for r in report.records[176:]}
    error = "error: exact characteristic polynomial capped at order 4 (got 5)"
    for note in ("path split r=2 s=3", "path split r=3 s=2", "integer energy witness m=3"):
        assert _hard_failure(notes[note]) and not notes[note].passed()
        assert notes[note].notes == f"{note}; {error}"
    cycles = [r for r in report.records if r.notes.startswith("cycle minus edge vs path")]
    assert [_hard_failure(r) for r in cycles] == [False, False, True]
    # P_1 ∪ P_4 has four non-isolated vertices, so its record still checks and passes
    assert notes["path split r=1 s=4"].passed()
    assert sum(map(_hard_failure, report.records)) == 182


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

    def scaled_values(matrix):
        return Spectrum(tuple(v * 1.001 for v in eigenvalues(matrix).values))

    monkeypatch.setattr(randic.verify, "charpoly_exact", scaled_poly)
    monkeypatch.setattr(randic.verify, "eigenvalues", scaled_values)
    monkeypatch.setattr(randic.spectral, "eigenvalues", scaled_values)
    lemmas = _lemma_records(verify_all(24))
    assert len(lemmas) == 320
    # path(2) - e is two isolated vertices: every root is 0, which scaling keeps
    assert [r.notes for r in lemmas if r.passed()] == ["path split r=1 s=1"]


def test_path_splits_with_a_p2_part_fail_when_closed_twins_count_as_open(monkeypatch):
    # a copy of charpoly_exact that gives every twin class the factor dλ, so
    # P_2's closed twins get λ where they should get λ + 1
    import inspect
    import textwrap

    import randic.spectral
    import randic.verify

    source = textwrap.dedent(inspect.getsource(randic.spectral.charpoly_exact))
    original = "factor = (degs[first], key >> first & 1)"
    assert original in source
    namespace = dict(vars(randic.spectral))
    exec(source.replace(original, "factor = (degs[first], 0)"), namespace)
    monkeypatch.setattr(randic.verify, "charpoly_exact", namespace["charpoly_exact"])
    splits = [
        r for r in _lemma_records(verify_all(24))
        if r.spec.family == "path" and 2 in (int(part[2:]) for part in r.notes.split()[2:])
    ]
    assert len(splits) == 43
    assert not any(r.charpoly_match or r.passed() for r in splits)


def test_verify_all_small_sweep():
    report = verify_all(5)
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
    report = Report(meta={"tool": "randic", "version": "x", "generated_at": "t"})
    report.records.append(
        VerdictRecord(
            spec=FamilySpec("path", 5),
            charpoly_match=True,
            energy_abs_err=1e-12,
            power_sum_err=1e-13,
            notes="",
        )
    )
    assert VerdictRecord._fields == ("spec", "charpoly_match", "energy_abs_err", "power_sum_err", "notes")
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
        "power_sum_err",
        "notes",
    }


def test_report_fail_accounting():
    report = Report()
    good = VerdictRecord(FamilySpec("path", 5), True, 1e-12, 1e-12)
    bad_poly = VerdictRecord(FamilySpec("path", 6), False, 1e-12, 1e-12)
    bad_energy = VerdictRecord(FamilySpec("path", 7), True, 1e-3, 1e-12)
    bad_power_sums = VerdictRecord(FamilySpec("path", 8), True, 1e-12, 1e-11)
    hard = VerdictRecord(FamilySpec("path", 9), False, None, None, "error: did not converge")
    report.records += [good, bad_poly, bad_energy, bad_power_sums, hard]
    assert report.n_pass == 1
    assert report.n_fail == 4
    # None is "not checked", which fails even beside a match
    assert VerdictRecord(FamilySpec("path", 5), True, None, 1e-12).passed() is False
    assert VerdictRecord(FamilySpec("path", 5), True, 1e-12, None).passed() is False
    assert VerdictRecord(FamilySpec("path", 5), None, 1e-12, 1e-12).passed() is False
    assert good.passed() is True
    assert json.loads(report.to_json())["records"][4]["power_sum_err"] is None


def test_union_additivity_respects_energy_values():
    # energies known in closed form: star -> 2, friendship n -> n+1
    star = generate(FamilySpec("star", 7))
    f3 = generate(FamilySpec("friendship", 3))
    from randic import randic_energy

    assert randic_energy(disjoint_union(star, f3)) == pytest.approx(6.0, abs=1e-9)
    assert math.isclose(
        randic_energy(star) + randic_energy(f3), 6.0, abs_tol=1e-9
    )


@pytest.mark.parametrize(
    "spec",
    [FamilySpec("path", 9), FamilySpec("friendship", 6), FamilySpec("complete", 12, minus_edge=True)],
)
def test_max_root_residual_bit_identical_to_rational_horner(spec):
    # the float residual in tests/oracles.py, with which test_spectral and
    # test_unicyclic check spectra against exact polynomials
    from oracles import _max_root_residual
    from randic import Spectrum, eigenvalues, randic_matrix

    g = generate(spec)
    poly = charpoly_exact(g)
    spectrum = eigenvalues(randic_matrix(g))
    assert _max_root_residual(poly, spectrum) == max(abs(float(poly(v))) for v in spectrum.values)
    for v in spectrum.values + (0.3, -2.5):
        assert _max_root_residual(poly, Spectrum((v,))) == abs(float(poly(v)))


def _verdicts_from_json(report: Report) -> list[bool]:
    """Each record's verdict recomputed from the serialized report alone,
    its stated tolerance and the power-sum limit; null is "not checked"."""
    from randic.verify import POWER_SUM_LIMIT

    payload = json.loads(report.to_json())
    tol = payload["tolerance"]
    verdicts = [
        r["charpoly_match"] is True
        and r["energy_abs_err"] is not None and r["energy_abs_err"] < tol
        and r["power_sum_err"] is not None and r["power_sum_err"] < POWER_SUM_LIMIT
        for r in payload["records"]
    ]
    assert payload["summary"] == {"pass": sum(verdicts), "fail": len(verdicts) - sum(verdicts)}
    assert verdicts == [r.passed() for r in report.records]
    return verdicts


# SHA-256 of verify_all(8)'s report up to "meta": every float total is a
# math.fsum, so the body is the same on every Python version
VERIFY_8_BODY_SHA256 = "d7dbb0f133c64bfa32d32e43488cbdd9bc017a175bfecf88ef552461d0eb951c"


def test_report_explains_every_verdict():
    report = verify_all(8)
    verdicts = _verdicts_from_json(report)
    assert len(verdicts) == 247 and all(verdicts)
    text = report.to_json()
    body = text[: text.index('"meta"')]
    assert hashlib.sha256(body.encode()).hexdigest() == VERIFY_8_BODY_SHA256


def test_report_explains_energy_failures(monkeypatch):
    import randic.verify

    real = randic.verify.closed_energy
    monkeypatch.setattr(randic.verify, "closed_energy", lambda spec: real(spec) * 1.001)
    report = verify_all(8)
    verdicts = _verdicts_from_json(report)
    failed = [r.to_dict() for r, ok in zip(report.records, verdicts) if not ok]
    assert len(failed) > 100
    # a charpoly still matches: each failure shows its energy error
    assert all(r["charpoly_match"] and r["energy_abs_err"] >= 1e-3 for r in failed)


def test_report_explains_a_hard_failure(monkeypatch):
    import randic.verify
    from randic import ConvergenceError, eigenvalues, randic_matrix

    target = randic_matrix(generate(FamilySpec("cycle", 7)))

    def fails_on_target(matrix):
        if matrix == target:
            raise ConvergenceError("dqds did not converge", 1.0)
        return eigenvalues(matrix)

    monkeypatch.setattr(randic.verify, "eigenvalues", fails_on_target)
    report = verify_all(8)
    verdicts = _verdicts_from_json(report)
    assert verdicts.count(False) == 1
    bad = report.records[verdicts.index(False)].to_dict()
    assert (bad["family"], bad["n"], bad["charpoly_match"]) == ("cycle", 7, False)
    assert (bad["energy_abs_err"], bad["power_sum_err"]) == (None, None)
    assert bad["notes"] == "error: dqds did not converge"


def test_path_split_at_the_order_cap_passes():
    # path(128) less edge (122, 123) is P_123 ∪ P_5. Its eigenvalues are
    # right, but a float root residual rounds past 1e-6 on its polynomial,
    # whose coefficients reach 4.7e9; the power sums stay near 1e-13
    from randic import closed_energy, delete_edge
    from randic.verify import POWER_SUM_LIMIT, _record

    def split():
        p, q = FamilySpec("path", 123), FamilySpec("path", 5)
        g = delete_edge(generate(FamilySpec("path", 128)), 122, 123)
        return g, closed_charpoly(p) * closed_charpoly(q), closed_energy(p) + closed_energy(q)

    rec = _record(FamilySpec("path", 128, minus_edge=True), "path split r=123 s=5", split)
    assert rec.charpoly_match and rec.power_sum_err < POWER_SUM_LIMIT
    assert rec.passed()


def test_power_sums_see_two_eigenvalues_moved_by_1e_9(monkeypatch):
    # the largest eigenvalue up by 1e-9 and the least positive one down by as
    # much: the trace and the energy stay, so only p_2..p_4 can see it
    import randic.verify
    from randic import Spectrum, randic_matrix
    from randic.verify import POWER_SUM_LIMIT, REPORT_TOL

    real = randic.verify.eigenvalues

    def moved(mat):
        v = list(real(mat).values)
        last = max(i for i, x in enumerate(v) if x > 0.0)
        v[0] += 1e-9
        v[last] -= 1e-9
        return Spectrum(tuple(sorted(v, reverse=True)))

    def spread(spec):
        positive = [x for x in real(randic_matrix(generate(spec))).values if x > 0.0]
        return positive[0] - positive[-1]

    specs = [spec for spec in sweep_specs(24) if spread(spec) > 1e-3]
    assert len(specs) == 108
    monkeypatch.setattr(randic.verify, "eigenvalues", moved)
    for spec in specs:
        rec = verify_instance(spec)
        assert rec.charpoly_match and rec.energy_abs_err < REPORT_TOL
        assert rec.power_sum_err >= POWER_SUM_LIMIT and not rec.passed()
