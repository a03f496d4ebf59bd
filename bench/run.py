"""Benchmark runner for randic: one command, four workloads.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each round of a workload runs every one
of its operations once, in a fresh interpreter (bench/worker.py) against
the checkout's ``src``. Rounds repeat while one more round, as long as the
longest so far, still fits in ``--seconds``, and at least MIN_ROUNDS
times. The runner then checks the outputs with the
benchmark's own oracle (bench/checks.py) and prints one JSON object as its
last line: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. Input files, reports, results and spans go to
``.bench_out/`` in the checkout. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ["verify-sweep", "energy-large", "exact-large", "cli-small"]
MIN_ROUNDS = 3  # so that each operation's median shrugs off one slow round
WORKER_TIMEOUT_S = 150
END_TO_END = [
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
]


def run_worker(root: Path, workload: str, seed: int, trace: int, rundir: Path, name: str) -> dict:
    workdir = rundir / name
    workdir.mkdir()
    cmd = [
        sys.executable, "-I", str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--dir", str(workdir), "--inputs", str(rundir / "inputs"), "--trace", str(trace),
    ]
    subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    outdir = root / ".bench_out" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    inputs.prepare(workload, seed, outdir / "inputs")
    rounds: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        rounds.append(run_worker(root, workload, seed, trace, outdir, f"round{len(rounds)}"))
        longest = max(longest, time.perf_counter() - began)
    setups = [r["setup_s"] for r in rounds]

    problems = checks.check(workload, seed, rounds)
    for p in problems:
        print(f"{workload}: {p}", file=sys.stderr)
    # One latency sample per operation: its median over the rounds.
    op_s = [
        statistics.median(r["op_s"][i] for r in rounds if i not in r["failed"])
        for i in range(len(rounds[0]["op_s"]))
        if any(i not in r["failed"] for r in rounds)
    ]
    attempted = sum(len(r["op_s"]) for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    if trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
            for name, unit in tracing.LAYER_METRICS
        }
    else:
        values = {
            "wall_s": sum(op_s),
            "op_p50_ms": 1000 * statistics.median(op_s),
            "op_p99_ms": 1000 * percentile(op_s, 99),
            "peak_rss_mib": statistics.median(r["rss_mib"] for r in rounds),
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(
        f"{workload} seed={seed} trace={trace}: rounds={len(rounds)} operations={attempted} "
        f"failed={failed} latency_samples={len(op_s)} setup_samples={len(setups)} "
        f"problems={len(problems)}"
    )
    if not trace:
        raw_wall = sum(statistics.median(r["op_raw_s"][i] for r in rounds) for i in range(len(rounds[0]["op_raw_s"])))
        print(f"  unscaled wall = {raw_wall:.6g} s (compare with traced.wall_s)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "randic" / "__init__.py").is_file():
        print(f"error: {root} holds no src/randic; run from the root of a randic checkout", file=sys.stderr)
        return 2
    try:
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            result = run_workload(root, workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
