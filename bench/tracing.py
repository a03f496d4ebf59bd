"""Spans around the public functions of ``randic``, installed from outside.

Each target is replaced by a wrapper in every ``randic`` module namespace
that holds it (methods on their class), so calls between layers are seen
as well as calls from the benchmark. Spans (name, start, end, parent) stay
in memory; ``summary`` turns them into per-layer metrics and ``write``
stores them as JSON lines.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span name -> (defining module, attribute; "Class.method" for methods)
TARGETS = {
    "graphs.generate": ("randic.graphs", "generate"),
    "graphs.parse_edge_list": ("randic.graphs", "parse_edge_list"),
    "graphs.delete_edge": ("randic.graphs", "delete_edge"),
    "graphs.is_bipartite": ("randic.graphs", "is_bipartite"),
    "spectral.randic_matrix": ("randic.spectral", "randic_matrix"),
    "spectral.adjacency_matrix": ("randic.spectral", "adjacency_matrix"),
    "spectral.eigenvalues": ("randic.spectral", "eigenvalues"),
    "spectral.charpoly_exact": ("randic.spectral", "charpoly_exact"),
    "closed_forms.closed_charpoly": ("randic.closed_forms", "closed_charpoly"),
    "closed_forms.closed_energy": ("randic.closed_forms", "closed_energy"),
    "closed_forms.small_case_charpoly": ("randic.closed_forms", "small_case_charpoly"),
    "ratpoly.eval": ("randic.ratpoly", "RatPoly.__call__"),
    "ratpoly.mul": ("randic.ratpoly", "RatPoly.__mul__"),
    "ratpoly.eq": ("randic.ratpoly", "RatPoly.__eq__"),
    "verify.verify_instance": ("randic.verify", "verify_instance"),
    "verify.check_edge_deletion_lemmas": ("randic.verify", "check_edge_deletion_lemmas"),
    "verify.report_to_json": ("randic.verify", "Report.to_json"),
    "cli.main": ("randic.cli", "main"),
}

# The per-layer metrics a traced run reports: (metric, unit).
LAYER_METRICS = [
    ("graphs.generate.calls", "count"),
    ("graphs.generate.self_s", "s"),
    ("graphs.parse_edge_list.self_s", "s"),
    ("graphs.delete_edge.self_s", "s"),
    ("graphs.is_bipartite.self_s", "s"),
    ("spectral.randic_matrix.self_s", "s"),
    ("spectral.adjacency_matrix.self_s", "s"),
    ("spectral.eigenvalues.calls", "count"),
    ("spectral.eigenvalues.self_s", "s"),
    ("spectral.eigenvalues.order_sum", "count"),
    ("spectral.eigenvalues.max_order", "count"),
    ("spectral.charpoly_exact.calls", "count"),
    ("spectral.charpoly_exact.self_s", "s"),
    ("spectral.charpoly_exact.order_sum", "count"),
    ("spectral.charpoly_exact.max_coeff_bits", "bits"),
    ("closed_forms.closed_charpoly.calls", "count"),
    ("closed_forms.closed_charpoly.self_s", "s"),
    ("closed_forms.closed_energy.self_s", "s"),
    ("closed_forms.small_case_charpoly.calls", "count"),
    ("ratpoly.eval.calls", "count"),
    ("ratpoly.eval.self_s", "s"),
    ("ratpoly.mul.self_s", "s"),
    ("ratpoly.eq.self_s", "s"),
    ("verify.verify_instance.calls", "count"),
    ("verify.verify_instance.self_s", "s"),
    ("verify.check_edge_deletion_lemmas.self_s", "s"),
    ("verify.report_to_json.self_s", "s"),
    ("verify.report_bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("traced.wall_s", "s"),
]


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs), default=0)


# Counts taken from a call's arguments and result:
# span name -> [(metric, "sum" or "max", fn(args, result))].
_STATS = {
    "spectral.eigenvalues": [
        ("spectral.eigenvalues.order_sum", "sum", lambda a, r: a[0].order),
        ("spectral.eigenvalues.max_order", "max", lambda a, r: a[0].order),
    ],
    "spectral.charpoly_exact": [
        ("spectral.charpoly_exact.order_sum", "sum", lambda a, r: a[0].n),
        ("spectral.charpoly_exact.max_coeff_bits", "max", lambda a, r: _coeff_bits(r)),
    ],
    "verify.report_to_json": [("verify.report_bytes", "sum", lambda a, r: len(r.encode("utf-8")))],
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stack: list[int] = []
        self.stats: dict[str, float] = defaultdict(int)

    def _wrap(self, name: str, fn):
        spans, stack, stats = self.spans, self.stack, self.stats
        hooks = _STATS.get(name, ())
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            for metric, how, get in hooks:
                value = get(args, result)
                stats[metric] = stats[metric] + value if how == "sum" else max(stats[metric], value)
            return result

        return traced

    def install(self) -> None:
        """Replace every target, in every loaded randic module that holds it."""
        modules = [m for k, m in sys.modules.items() if k == "randic" or k.startswith("randic.")]
        for name, (module, attr) in TARGETS.items():
            owner = sys.modules[module]
            if "." in attr:
                cls, method = attr.split(".")
                owner = getattr(owner, cls)
                setattr(owner, method, self._wrap(name, getattr(owner, method)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics: calls, self time (span time minus the part its
        child spans cover) and the counts gathered by the hooks."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[i]
        out.update(self.stats)
        out["traced.wall_s"] = wall_s
        return {metric: out.get(metric, 0) for metric, _ in LAYER_METRICS}

    def write(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin, "parent": parent}) + "\n")
