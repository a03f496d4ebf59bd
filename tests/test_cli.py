import json
import re

import pytest

from randic.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    capsys.readouterr()
    return err.value.code


# ---------------------------------------------------------------- gen


def test_gen_path3_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "path", "--n", "3")
    assert code == 0
    assert out == "3 2\n0 1\n1 2\n"


def test_gen_friendship2(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "friendship", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "5 6"
    assert len(lines) == 7


def test_gen_bipartite_minus_edge(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--family", "complete-bipartite", "--n", "3", "--m", "2", "--minus-edge"
    )
    assert code == 0
    assert out.splitlines()[0] == "5 5"


def test_gen_to_file(tmp_path, capsys):
    target = tmp_path / "g.txt"
    code, out, _ = run_cli(
        capsys, "gen", "--family", "cycle", "--n", "4", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "4 4"


def test_gen_domain_error_exit1(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "cycle", "--n", "2")
    assert code == 1
    assert "error:" in err


def test_gen_usage_errors_exit2(capsys):
    assert run_usage_error(capsys, "gen", "--family", "path") == 2  # missing --n
    assert run_usage_error(capsys, "gen", "--family", "path", "--n", "3", "--m", "2") == 2
    assert run_usage_error(capsys, "gen", "--family", "complete-bipartite", "--n", "3") == 2
    assert run_usage_error(capsys, "gen", "--family", "bogus", "--n", "3") == 2


# ---------------------------------------------------------------- charpoly


def test_charpoly_star4_closed_text(capsys):
    code, out, _ = run_cli(
        capsys, "charpoly", "--family", "star", "--n", "4", "--mode", "closed"
    )
    assert code == 0
    assert out.strip() == "λ^4 - λ^2"


def test_charpoly_cycle3_both(capsys):
    code, out, _ = run_cli(
        capsys, "charpoly", "--family", "cycle", "--n", "3", "--mode", "both"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "exact: λ^3 - 3/4·λ - 1/4"
    assert lines[1] == "closed: λ^3 - 3/4·λ - 1/4"
    assert lines[2] == "equal: true"


def test_charpoly_closed_outside_domain_exit1(capsys):
    code, _, err = run_cli(
        capsys, "charpoly", "--family", "path", "--n", "1", "--mode", "closed"
    )
    assert code == 1
    assert "n >= 2" in err


def test_charpoly_json_coeff_strings(capsys):
    code, out, _ = run_cli(
        capsys, "charpoly", "--family", "path", "--n", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 4
    assert payload["coeffs_ascending"] == ["1/4", "0", "-5/4", "0", "1"]
    pattern = re.compile(r"^-?[0-9]+(/[0-9]+)?$")
    assert all(pattern.match(c) for c in payload["coeffs_ascending"])


def test_charpoly_json_both(capsys):
    code, out, _ = run_cli(
        capsys, "charpoly", "--family", "star", "--n", "4", "--mode", "both", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["exact"] == payload["closed"]


def test_charpoly_ascending_order(capsys):
    code, out, _ = run_cli(
        capsys, "charpoly", "--family", "path", "--n", "4", "--order", "asc"
    )
    assert code == 0
    assert out.strip() == "1/4 - 5/4·λ^2 + λ^4"


def test_charpoly_input_closed_is_usage_error(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("3 2\n0 1\n1 2\n")
    assert run_usage_error(capsys, "charpoly", "--input", str(f), "--mode", "closed") == 2


# ---------------------------------------------------------------- energy


def test_energy_complete9(capsys):
    code, out, _ = run_cli(capsys, "energy", "--family", "complete", "--n", "9")
    assert code == 0
    assert abs(float(out.strip()) - 2.0) < 1e-9


def test_energy_path5(capsys):
    code, out, _ = run_cli(capsys, "energy", "--family", "path", "--n", "5")
    assert code == 0
    assert abs(float(out.strip()) - 3.414213562373095) < 1e-9


def test_energy_adjacency_flag(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--family", "path", "--n", "3", "--adjacency"
    )
    assert code == 0
    lines = dict(ln.split() for ln in out.strip().splitlines())
    assert abs(float(lines["RE"]) - 2.0) < 1e-9
    assert abs(float(lines["E"]) - 2.8284271247461903) < 1e-9


def test_energy_dutch4_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "energy", "--family", "dutch4", "--sweep", "2..4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,m,re_numeric,re_closed,abs_err"
    closed = [float(ln.split(",")[4]) for ln in lines[1:]]
    expected = [3.414213562373095, 4.82842712474619, 6.242640687119285]
    assert closed == pytest.approx(expected, abs=1e-12)
    errs = [float(ln.split(",")[5]) for ln in lines[1:]]
    assert all(e < 1e-9 for e in errs)


def test_energy_sweep_json_handles_missing_closed(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--family", "path", "--sweep", "2..4", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["re_closed"] is None  # below the closed-energy domain
    assert rows[1]["re_closed"] is not None


def test_energy_csv_without_sweep_is_usage_error(capsys):
    assert (
        run_usage_error(
            capsys, "energy", "--family", "path", "--n", "4", "--format", "csv"
        )
        == 2
    )


def test_energy_json_single(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--family", "star", "--n", "6", "--format", "json"
    )
    assert code == 0
    assert abs(json.loads(out)["re"] - 2.0) < 1e-9


BAD_TOLS = ["nan", "inf", "0", "-0.5"]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_energy_bad_tol_is_usage_error(capsys, tol):
    assert run_usage_error(capsys, "energy", "--family", "path", "--n", "4", "--tol", tol) == 2


def test_energy_explicit_tol(capsys):
    code, out, _ = run_cli(capsys, "energy", "--family", "complete", "--n", "9", "--tol", "1e-10")
    assert code == 0
    assert abs(float(out) - 2.0) < 1e-9


# ---------------------------------------------------------------- round trip


def test_round_trip_gen_then_input(tmp_path, capsys):
    f = tmp_path / "fr.txt"
    code, _, _ = run_cli(
        capsys, "gen", "--family", "friendship", "--n", "3", "--out", str(f)
    )
    assert code == 0
    code, out_file, _ = run_cli(capsys, "charpoly", "--input", str(f))
    code2, out_family, _ = run_cli(
        capsys, "charpoly", "--family", "friendship", "--n", "3"
    )
    assert code == code2 == 0
    assert out_file == out_family
    code, e_file, _ = run_cli(capsys, "energy", "--input", str(f))
    code2, e_family, _ = run_cli(capsys, "energy", "--family", "friendship", "--n", "3")
    assert code == code2 == 0
    assert e_file == e_family


def test_energy_input_missing_file_exit1(capsys):
    code, _, err = run_cli(capsys, "energy", "--input", "/nonexistent/graph.txt")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------- verify


def test_verify_writes_report_and_exits_zero(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "--max-n", "5", "--witness-max", "3", "--report", str(report_path),
    )
    assert code == 0
    assert "fail=0" in out
    payload = json.loads(report_path.read_text())
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] > 0
    assert payload["tolerance"] == 1e-9
    witness_notes = [
        r["notes"] for r in payload["records"] if r["notes"].startswith("integer energy witness")
    ]
    assert witness_notes == ["integer energy witness m=2", "integer energy witness m=3"]


def test_verify_stdout_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "5", "--witness-max", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0


def test_verify_max_n_below_minimum_exit2(capsys):
    assert run_usage_error(capsys, "verify", "--max-n", "4") == 2


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_verify_bad_tol_is_usage_error(capsys, tol):
    assert run_usage_error(capsys, "verify", "--max-n", "5", "--witness-max", "2", "--tol", tol) == 2
