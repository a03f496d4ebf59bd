"""What importing the CLI loads, and the behaviour the plain value classes
keep from the dataclasses they replace."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from randic import FamilySpec, Graph, Report, Spectrum, SymMatrix, VerdictRecord

SRC = Path(__file__).resolve().parent.parent / "src"

# modules no command needs, each costing milliseconds of start-up
UNNEEDED = ("dataclasses", "inspect", "typing", "fractions", "decimal", "numbers", "pathlib")


def test_cli_import_loads_no_unneeded_module():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import randic.cli, json; "
        f"print(json.dumps([m for m in {list(UNNEEDED)!r} if m in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert json.loads(out) == []


def _record(notes=""):
    return VerdictRecord(FamilySpec("path", 3), True, 0.0, 1e-15, notes=notes)


@pytest.mark.parametrize(
    "make, other, text",
    [
        (lambda: Graph(2, frozenset({(0, 1)})), Graph(2, frozenset()), "Graph(n=2, edges=[(0, 1)])"),
        (
            lambda: FamilySpec("complete_bipartite", 3, m=2, minus_edge=True),
            FamilySpec("complete_bipartite", 3, m=2),
            "FamilySpec(family='complete_bipartite', n=3, m=2, minus_edge=True)",
        ),
        (
            lambda: SymMatrix(((0.0, 1.0), (1.0, 0.0))),
            SymMatrix(((0.0, 0.5), (0.5, 0.0))),
            "SymMatrix(entries=((0.0, 1.0), (1.0, 0.0)))",
        ),
        (lambda: Spectrum((1.0, -1.0)), Spectrum((1.0, 0.0)), "Spectrum(values=(1.0, -1.0))"),
        (
            _record,
            _record(notes="other"),
            "VerdictRecord(spec=FamilySpec(family='path', n=3, m=None, minus_edge=False), "
            "charpoly_match=True, energy_abs_err=0.0, power_sum_err=1e-15, notes='')",
        ),
        (
            lambda: Report(meta={"tool": "randic"}),
            Report(),
            "Report(records=[], meta={'tool': 'randic'})",
        ),
    ],
    ids=["Graph", "FamilySpec", "SymMatrix", "Spectrum", "VerdictRecord", "Report"],
)
def test_value_classes_keep_equality_hash_repr_and_immutability(make, other, text):
    a, b = make(), make()
    fields = list(vars(a))
    assert a == b and not a != b
    assert a != other
    assert repr(a) == text
    frozen = not isinstance(a, (VerdictRecord, Report))
    if frozen:
        assert hash(a) == hash(b)
        name = fields[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
        assert a == b
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        for name in fields:
            setattr(a, name, getattr(other, name))
        assert a == other and a != b


def test_equality_needs_the_same_class():
    # equal field tuples, different classes
    assert Spectrum(()) != SymMatrix(())
    assert (Spectrum(()) == SymMatrix(())) is False
    assert FamilySpec("path", 3) != ("path", 3, None, False)


def test_defaults_and_keywords():
    assert FamilySpec("star", 4) == FamilySpec(family="star", n=4, m=None, minus_edge=False)
    assert VerdictRecord(FamilySpec("star", 4), True, None, 0.0).notes == ""
    first, second = Report(), Report()
    first.records.append(_record())
    assert second.records == [] and second.meta == {}


def test_graph_caches_degrees_and_adjacency_and_validates():
    g = Graph.from_edges(3, [(1, 0), (2, 1)])
    assert g.degrees == (1, 2, 1) and g.degrees is g.degrees
    assert g.adjacency == ((1,), (0, 2), (1,)) and g.adjacency is g.adjacency
    assert hash(g) == hash(Graph(3, frozenset({(0, 1), (1, 2)})))
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError, match="must be square"):
        SymMatrix(((0.0, 1.0),))
    with pytest.raises(ValueError, match="sorted non-increasing"):
        Spectrum((0.0, 1.0))
