import json
import re

import pytest

from randic import spectral
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


def run_refused(capsys, *argv):
    """Exit code, stdout and the last stderr line of a command that argparse ends."""
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    out = capsys.readouterr()
    return err.value.code, out.out, out.err.splitlines()[-1]


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


def test_gen_domain_error_exit2(capsys):
    code, _, err = run_refused(capsys, "gen", "--family", "cycle", "--n", "2")
    assert code == 2
    assert "error:" in err


def test_gen_above_family_edge_limit_exit2(tmp_path, capsys):
    # complete(1025) has 524,800 edges, one vertex past the largest the energies accept
    out_file = tmp_path / "k1025.txt"
    code, out, err = run_refused(capsys, "gen", "--family", "complete", "--n", "1025", "--out", str(out_file))
    assert code == 2 and out == ""
    assert "limit is 523776" in err
    assert not out_file.exists()


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


def test_charpoly_closed_builds_no_graph(monkeypatch, capsys):
    import randic.cli

    def no_graph(spec):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(randic.cli, "generate", no_graph)
    code, out, _ = run_cli(capsys, "charpoly", "--family", "path", "--n", "5", "--mode", "closed")
    assert code == 0
    assert out == "λ^5 - 3/2·λ^3 + 1/2·λ\n"


def test_charpoly_cycle3_both(capsys):
    code, out, _ = run_cli(
        capsys, "charpoly", "--family", "cycle", "--n", "3", "--mode", "both"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "exact: λ^3 - 3/4·λ - 1/4"
    assert lines[1] == "closed: λ^3 - 3/4·λ - 1/4"
    assert lines[2] == "equal: true"


def test_charpoly_closed_outside_domain_exit2(capsys):
    code, _, err = run_refused(
        capsys, "charpoly", "--family", "path", "--n", "1", "--mode", "closed"
    )
    assert code == 2
    assert "n >= 2" in err


def test_charpoly_closed_above_energy_order_cap_exit2(capsys):
    code, out, err = run_refused(capsys, "charpoly", "--family", "path", "--n", "20000", "--mode", "closed")
    assert code == 2 and out == ""
    assert f"capped at {spectral.ENERGY_ORDER_CAP}" in err


def test_charpoly_both_checks_the_closed_domain_before_the_exact_route(capsys, monkeypatch):
    import randic.cli

    def no_exact(g):
        raise AssertionError("the exact route ran")

    monkeypatch.setattr(randic.cli, "charpoly_exact", no_exact)
    code, out, err = run_refused(capsys, "charpoly", "--family", "path", "--n", "100", "--minus-edge", "--mode", "both")
    assert code == 2 and out == ""
    assert err.endswith("path(100)-e: no minus-edge closed form for path")


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
    assert lines[0] == "family,n,m,re_numeric,re_closed,abs_err,minus_edge"
    closed = [float(ln.split(",")[4]) for ln in lines[1:]]
    expected = [3.414213562373095, 4.82842712474619, 6.242640687119285]
    assert closed == pytest.approx(expected, abs=1e-12)
    errs = [float(ln.split(",")[5]) for ln in lines[1:]]
    assert all(e < 1e-9 for e in errs)


def test_energy_sweep_json_handles_missing_closed(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--family", "path", "--sweep", "1..4", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["re_closed"] is None  # path(1) is below the closed-energy domain
    assert rows[1]["re_closed"] == 2.0


def test_energy_sweep_without_minus_edge_closed_energy(capsys):
    # no family of paths minus an edge has a closed energy: every row keeps
    # its numeric energy and leaves the closed fields empty
    code, out, _ = run_cli(
        capsys, "energy", "--family", "path", "--minus-edge", "--sweep", "2..5", "--format", "csv"
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[1], r[4], r[5]) for r in rows] == [(str(n), "", "") for n in range(2, 6)]
    assert [float(r[3]) for r in rows] == pytest.approx([0.0, 2.0, 2.0, 3.0], abs=1e-12)


def test_energy_sweep_rows_say_the_edge_was_deleted(capsys):
    # complete(n) - e has energy 2, as complete(n) has: only the minus_edge
    # field tells the rows apart
    argv = ["energy", "--family", "complete", "--minus-edge", "--sweep", "3..4"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [list(row)[:4] for row in rows] == [["family", "n", "m", "minus_edge"]] * 2
    assert [(row["n"], row["minus_edge"]) for row in rows] == [(3, True), (4, True)]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",")[-1] == "minus_edge"
    assert [line.split(",")[-1] for line in lines[1:]] == ["true", "true"]
    code, out, _ = run_cli(capsys, "energy", "--family", "complete", "--sweep", "3..3")
    assert code == 0
    assert out.strip().split(",")[-1] == "false"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_energy_reversed_sweep_is_usage_error(capsys, fmt):
    with pytest.raises(SystemExit) as err:
        main(["energy", "--family", "path", "--sweep", "8..2", "--format", fmt])
    assert err.value.code == 2
    assert "--sweep range 8..2 is empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "complete", "--sweep", "1022..1026"], "complete(1026): 525825 edges"),
        (["--family", "path", "--sweep", "0..3"], "reaches path(0): path requires n >= 1"),
        (
            ["--family", "path", "--minus-edge", "--sweep", "1024..1026"],
            "reaches path(1026)-e: energies capped at 1024 non-isolated vertices (got 1025)",
        ),
        (["--family", "path", "--sweep", "1..10000000000"], "path(10000000000): 9999999999 edges"),
    ],
    ids=["complete-1022..1026", "path-0..3", "path-minus-edge-1024..1026", "path-1..10^10"],
)
def test_energy_sweep_out_of_range_is_refused_before_computing(capsys, monkeypatch, argv, message):
    # both ends of the range are checked before the first energy: a bad
    # range is a usage error, not an exit 1 after every row before it
    import randic.cli

    def no_energy(*args, **kwargs):
        raise AssertionError("an energy was computed")

    monkeypatch.setattr(randic.cli, "randic_energy", no_energy)
    with pytest.raises(SystemExit) as err:
        main(["energy", *argv])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_energy_single_point_sweep(capsys):
    code, out, _ = run_cli(capsys, "energy", "--family", "cycle", "--sweep", "5..5", "--format", "json")
    assert code == 0
    assert [row["n"] for row in json.loads(out)] == [5]


def test_energy_sweep_order_check_builds_no_graph(capsys, monkeypatch):
    # the order cap is checked from the spec: complete(200) is built once,
    # for its energy, and not first for a count of its vertices
    import randic.cli

    built = []

    def generate(spec):
        built.append(spec.label())
        return real(spec)

    real = randic.cli.generate
    monkeypatch.setattr(randic.cli, "generate", generate)
    code, out, _ = run_cli(capsys, "energy", "--family", "complete", "--sweep", "200..200", "--format", "json")
    assert code == 0
    assert built == ["complete(200)"]
    assert [row["n"] for row in json.loads(out)] == [200]


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


# ---------------------------------------------------------------- refusals


@pytest.mark.parametrize(
    "family, n",
    [
        (["--family", "path"], 0),
        (["--family", "cycle"], 2),
        (["--family", "complete"], 1025),
        (["--family", "path"], 500000),
        (["--family", "friendship", "--minus-edge"], 3),
        (["--family", "path", "--minus-edge"], 1026),
        (["--family", "complete-bipartite"], 3),
        (["--family", "star", "--m", "2"], 4),
    ],
    ids=["path-0", "cycle-2", "complete-1025", "path-500000", "friendship-3-e", "path-1026-e",
         "complete-bipartite-no-m", "star-with-m"],
)
def test_energy_n_and_single_point_sweep_refuse_alike_from_the_spec(capsys, monkeypatch, family, n):
    import randic.cli

    def no_graph(spec):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(randic.cli, "generate", no_graph)
    code, out, err_n = run_refused(capsys, "energy", *family, "--n", str(n))
    assert (code, out) == (2, "")
    code, out, err_sweep = run_refused(capsys, "energy", *family, "--sweep", f"{n}..{n}")
    assert (code, out) == (2, "")
    # both name the spec and give the library's message
    reason = err_n.removeprefix("randic energy: error: ")
    assert re.match(r"\w+\(\d+(,\d+)?\)(-e)?: ", reason)
    assert err_sweep == f"randic energy: error: --sweep {n}..{n} reaches {reason}"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["energy", "--family", "complete", "--n", "1025"], "complete(1025): 524800 edges; the limit is 523776"),
        (
            ["energy", "--family", "complete", "--sweep", "1022..1026"],
            "--sweep 1022..1026 reaches complete(1026): 525825 edges; the limit is 523776",
        ),
        (
            ["charpoly", "--mode", "closed", "--family", "complete", "--n", "2", "--minus-edge"],
            "complete(2)-e: closed form requires n >= 3",
        ),
        (
            ["charpoly", "--mode", "closed", "--family", "path", "--n", "1025"],
            "path(1025): 1025 vertices; closed forms are capped at 1024",
        ),
    ],
    ids=["energy-complete-1025", "energy-sweep-1022..1026", "charpoly-closed-complete-2-e", "charpoly-closed-path-1025"],
)
def test_family_refusal_names_the_spec_once(capsys, argv, line):
    code, out, err = run_refused(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"randic {argv[0]}: error: {line}"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "cycle", "--n", "2"],
        ["charpoly", "--family", "path", "--n", "1", "--mode", "closed"],
        ["energy", "--family", "path", "--n", "500000"],
        ["verify", "--max-n", "4"],
    ],
    ids=["gen", "charpoly", "energy", "verify"],
)
def test_refusal_prints_the_subcommand_usage(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: randic {argv[0]} [-h]")
    assert lines[-1].startswith(f"randic {argv[0]}: error: ")


def test_charpoly_above_exact_order_cap_builds_no_graph(capsys, monkeypatch):
    import randic.cli

    def no_graph(spec):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(randic.cli, "generate", no_graph)
    code, out, err = run_refused(capsys, "charpoly", "--family", "complete", "--n", "1024")
    assert (code, out) == (2, "")
    assert err.endswith("complete(1024): exact characteristic polynomial capped at order 128 (got 1024)")


@pytest.mark.parametrize(
    "argv, option",
    [
        (["charpoly", "--minus-edge"], "--minus-edge"),
        (["charpoly", "--n", "3"], "--n"),
        (["energy", "--n", "7", "--m", "2"], "--n"),
        (["energy", "--m", "2"], "--m"),
        (["energy", "--minus-edge", "--adjacency"], "--minus-edge"),
    ],
    ids=["charpoly-minus-edge", "charpoly-n", "energy-n-m", "energy-m", "energy-minus-edge"],
)
def test_input_refuses_the_family_options_it_would_ignore(tmp_path, capsys, argv, option):
    f = tmp_path / "p3.txt"
    f.write_text("3 2\n0 1\n1 2\n")
    code, out, err = run_refused(capsys, *argv, "--input", str(f))
    assert (code, out) == (2, "")
    assert err.endswith(f"--input and {option} are mutually exclusive")


def test_sweep_refuses_the_n_it_would_ignore(capsys):
    code, out, err = run_refused(capsys, "energy", "--family", "path", "--sweep", "2..4", "--n", "7")
    assert (code, out) == (2, "")
    assert err.endswith("--sweep and --n are mutually exclusive")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_sweep_refuses_the_adjacency_it_would_ignore(capsys, monkeypatch, fmt):
    # a sweep prints Randic energies only: --adjacency is refused, not dropped
    monkeypatch.setattr(spectral, "eigenvalues", lambda *a: pytest.fail("computed an energy"))
    with pytest.raises(SystemExit) as err:
        main(["energy", "--family", "cycle", "--sweep", "4..5", "--adjacency", "--format", fmt])
    out = capsys.readouterr()
    assert (err.value.code, out.out) == (2, "")
    lines = out.err.splitlines()
    assert lines[0].startswith("usage: randic energy [-h]")
    assert lines[-1] == "randic energy: error: --sweep and --adjacency are mutually exclusive"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["energy", "--family", "path", "--sweep", "2-8"], "--sweep expects a range like 2..8"),
        (["energy", "--family", "path", "--sweep", "a..8"], "--sweep expects a range like 2..8"),
        (["gen", "--n", "3"], "--family is required (or --input where supported)"),
        (["energy", "--n", "3"], "--family is required (or --input where supported)"),
        (["energy", "--input", "graph.txt", "--sweep", "2..4"], "--sweep requires --family, not --input"),
    ],
    ids=["sweep-dash", "sweep-letter", "gen-no-graph", "energy-no-graph", "energy-input-sweep"],
)
def test_malformed_or_missing_graph_options_are_usage_errors(capsys, argv, message):
    # refused before any file is read or graph is built
    code, out, err = run_refused(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"randic {argv[0]}: error: {message}"


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


def test_charpoly_input_with_a_non_integer_token_exit1_naming_the_line(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("2 1\n0 x\n")
    code, out, err = run_cli(capsys, "charpoly", "--input", str(f))
    assert (code, out, err) == (1, "", "error: edge line must be two integers 'u v', got '0 x'\n")


@pytest.fixture
def small_matrices_only(monkeypatch):
    """Fail, before any allocation, a matrix build above order 2."""

    def small_only(build):
        def guarded(g):
            assert g.n < 3, f"{build.__name__} asked for order {g.n}"
            return build(g)

        return guarded

    for name in ("randic_matrix", "adjacency_matrix"):
        monkeypatch.setattr(spectral, name, small_only(getattr(spectral, name)))


def test_energy_input_isolated_vertices_build_no_matrix(tmp_path, capsys, small_matrices_only):
    f = tmp_path / "iso.txt"
    f.write_text("3000 0\n")
    code, out, _ = run_cli(capsys, "energy", "--input", str(f), "--adjacency")
    assert (code, out) == (0, "RE 0.0\nE 0.0\n")
    f.write_text("3000 1\n5 2999\n")
    code, out, _ = run_cli(capsys, "energy", "--input", str(f), "--adjacency")
    assert code == 0
    assert [float(line.split()[1]) for line in out.splitlines()] == pytest.approx([2.0, 2.0])


def test_energy_input_absurd_header_exit2(tmp_path, capsys, small_matrices_only):
    f = tmp_path / "huge.txt"
    f.write_text("1000000000000 0\n")
    code, out, err = run_refused(capsys, "energy", "--input", str(f))
    assert code == 2 and out == ""
    assert "limit" in err


def test_energy_input_above_energy_order_cap_exit2(tmp_path, capsys, small_matrices_only):
    # 50,000 disjoint edges: within the header limit, and no vertex is isolated
    f = tmp_path / "matching.txt"
    f.write_text("100000 50000\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(50000)))
    code, out, err = run_refused(capsys, "energy", "--input", str(f), "--adjacency")
    assert code == 2 and out == ""
    assert f"capped at {spectral.ENERGY_ORDER_CAP}" in err


# ---------------------------------------------------------------- verify


def test_verify_writes_report_and_exits_zero(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "--max-n", "5", "--report", str(report_path),
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
    assert witness_notes == [f"integer energy witness m={m}" for m in range(2, 21)]


def test_verify_stdout_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0


def test_verify_max_n_below_minimum_exit2(capsys):
    assert run_usage_error(capsys, "verify", "--max-n", "4") == 2


def test_verify_max_n_above_exact_order_cap_exit2(capsys, monkeypatch):
    import randic.verify

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(randic.verify, "verify_instance", no_sweep)
    with pytest.raises(SystemExit) as err:
        main(["verify", "--max-n", str(spectral.EXACT_ORDER_CAP + 1)])
    assert err.value.code == 2
    assert "verify_all requires 5 <= max_n <= 128 (got 129)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "--family", "path", "--n", "4", "--tol", "1e-10"],
        ["verify", "--max-n", "5", "--tol", "1e-9"],
        ["verify", "--max-n", "5", "--witness-max", "4"],
    ],
    ids=["energy-tol", "verify-tol", "verify-witness-max"],
)
def test_fixed_tolerances_and_witness_table_take_no_option(capsys, argv):
    # the solver and report tolerances and the witness table are constants
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
