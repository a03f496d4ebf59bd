"""Golden table of the CLI: every subcommand with each --format, --mode and
--order, single graphs and sweeps, with and without --adjacency, from a
family or from --input, and refusals past the order and edge limits. Each
case pins stdout, the last stderr line and the exit code, as recorded in
``cli_golden.json``, byte for byte: the library sums floats with
``math.fsum``, so the output is the same on every Python version. After a
deliberate change of output, re-record the table with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of ``cli_golden.json``.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from randic import cli

GOLDEN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")

# a triangle with a pendant vertex, a separate edge and an isolated vertex
INPUT_GRAPH = "7 5\n0 1\n1 2\n0 2\n2 3\n4 5\n"

_CHARPOLY_SOURCES = (
    "--family cycle --n 5",
    "--family complete-bipartite --m 2 --n 3 --minus-edge",
    "--family path --n 1",
    "--input {input}",
)
_ENERGY_SOURCES = (
    "--family cycle --n 6",
    "--family dutch4 --n 2",
    "--family complete-bipartite --m 1 --n 4 --minus-edge",
    "--input {input}",
)
_SWEEP_SOURCES = (
    "--family cycle --sweep 4..6",
    "--family complete-bipartite --m 2 --sweep 1..3 --minus-edge",
    "--family friendship --sweep 1..3",
    "--input {input} --sweep 2..3",
)

CASES = [
    "gen --family path --n 4",
    "gen --family complete-bipartite --m 2 --n 3 --minus-edge",
    "gen --family dutch4 --n 2",
    "gen --family path --n 3 --out {out}",
    "gen --family cycle --n 2",
    "gen --family star --n 3 --m 2",
    "charpoly --family star --n 4",
    "charpoly --input {input}",
    "charpoly --family complete --n 129 --mode both",
    "charpoly --family cycle --n 2 --mode closed",
    "charpoly --family path --n 1000000 --mode closed",
    *(
        f"charpoly {source} --mode {mode} --format {fmt} --order {order}"
        for source in _CHARPOLY_SOURCES
        for mode in ("exact", "closed", "both")
        for fmt in ("text", "json")
        for order in ("asc", "desc")
    ),
    "energy --family complete --n 9",
    "energy --input {input} --adjacency",
    "energy --family path --n 500000",
    *(
        f"energy {source} --format {fmt}{adjacency}"
        for source in (*_ENERGY_SOURCES, *_SWEEP_SOURCES)
        for fmt in ("text", "json", "csv")
        for adjacency in ("", " --adjacency")
    ),
    "verify --max-n 5 --report {out}",
    "verify --max-n 4",
]


def run(case: str, tmp_dir: str) -> dict:
    """Exit code, stdout and last stderr line of one golden case, run in process."""
    input_file = os.path.join(tmp_dir, "graph.txt")
    with open(input_file, "w", encoding="utf-8") as fh:
        fh.write(INPUT_GRAPH)
    argv = case.format(input=input_file, out=os.path.join(tmp_dir, "out.txt")).split()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    return {"code": code, "stdout": out.getvalue(), "stderr": lines[-1] if lines else ""}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_table_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_matches_golden(case, golden, tmp_path):
    assert run(case, str(tmp_path)) == golden[case]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("mode", ["exact", "closed", "both"])
def test_charpoly_renders_only_the_form_it_prints(monkeypatch, tmp_path, mode, fmt):
    # JSON never formats a polynomial as text, and text never builds its JSON
    def refuse(*args, **kwargs):
        raise AssertionError("rendered a form that is not printed")

    monkeypatch.setattr(cli, "format_poly" if fmt == "json" else "_poly_json", refuse)
    got = run(f"charpoly --family cycle --n 4 --mode {mode} --format {fmt}", str(tmp_path))
    assert got["code"] == 0 and got["stdout"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {case: run(case, tmp) for case in CASES}
    with open(GOLDEN_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, ensure_ascii=False, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(table)} cases to {GOLDEN_FILE}")
