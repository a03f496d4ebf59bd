"""The benchmark under bench/ reaches into randic by name; these tests keep
those names alive, and pin the public surface so it only changes on purpose.

bench/ is read, never written: the tracer module is loaded without writing
bytecode next to it.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import randic
import randic.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

# what bench/worker.py calls on the randic package
WORKER_NAMES = {
    "Graph.from_edges",
    "cli.main",
    "randic_energy",
    "graph_energy",
    "eigenvalues",
    "randic_matrix",
    "charpoly_exact",
    "FamilySpec",
    "closed_charpoly",
    "permute_vertices",
    "sweep_specs",
}


def _resolve(obj, dotted: str):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for name, (module, attr) in tracing.TARGETS.items():
        assert callable(_resolve(importlib.import_module(module), attr)), name


def test_worker_names_exist():
    source = (BENCH / "worker.py").read_text(encoding="utf-8")
    used = set(re.findall(r"\brandic\.((?:[A-Za-z_]\w*)(?:\.[A-Za-z_]\w*)?)", source))
    assert WORKER_NAMES <= used
    for name in used:
        _resolve(randic, name)


def test_public_surface_is_pinned():
    assert sorted(randic.__all__) == [
        "ConvergenceError",
        "DomainError",
        "EdgeNotFoundError",
        "FAMILIES",
        "FamilySpec",
        "Graph",
        "RatPoly",
        "Report",
        "Spectrum",
        "SymMatrix",
        "UnsupportedFamilyError",
        "VerdictRecord",
        "__version__",
        "adjacency_matrix",
        "charpoly_exact",
        "check_edge_deletion_lemmas",
        "closed_charpoly",
        "closed_energy",
        "delete_edge",
        "eigenvalues",
        "format_edge_list",
        "format_poly",
        "generate",
        "graph_energy",
        "is_bipartite",
        "lambda_poly",
        "parse_edge_list",
        "path_graph_energy",
        "permute_vertices",
        "randic_energy",
        "randic_matrix",
        "sweep_specs",
        "verify_all",
        "verify_instance",
    ]
    assert all(hasattr(randic, name) for name in randic.__all__)
