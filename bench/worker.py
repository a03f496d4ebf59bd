"""One round of one workload, in a fresh interpreter.

Builds the round's inputs from the seed (benchmark code, not timed), then
imports ``randic`` from the checkout's ``src`` and hands it the inputs
(``Graph.from_edges``): these program calls are the set-up. It runs every
operation once with a clock around each, then writes the raw outputs as
JSON for the runner to check. With ``--trace 1`` the public functions are
wrapped after set-up and the round's spans and per-layer metrics are
written as well.

    python3 -I bench/worker.py --workload NAME --seed N --dir DIR --inputs DIR --trace 0|1

Timings are scaled for the host's CPU speed, which drifts by a third over
seconds to minutes on shared machines. A SIGALRM timer runs a fixed
integer loop (the probe) every PROBE_PERIOD_S. An interval's raw time is
its wall time minus the probes inside it. Its scaled time is the raw time
times PROBE_S over the mean probe time in and next to the interval. The
raw times are kept next to the scaled ones. Traced runs do not probe.
"""

import argparse
import contextlib
import io
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

PROBE_STEPS = 4_000
PROBE_S = 0.00045  # about what the probe takes on the reference machine (see README)
PROBE_PERIOD_S = 0.025

probes: list[tuple[float, float]] = []  # (start, end) of each probe


def probe(signum=None, frame=None) -> None:
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_STEPS):
        acc += i * i % 7
    probes.append((start, time.perf_counter()))


def timed(t0: float, t1: float) -> tuple[float, float]:
    """Raw and scaled time of the interval [t0, t1]."""
    raw = t1 - t0 - sum(e - s for s, e in probes if t0 <= s < t1)
    near = [e - s for s, e in probes if t0 - PROBE_PERIOD_S <= s <= t1 + PROBE_PERIOD_S]
    if not near:  # a long C call can hold a probe back
        s, e = min(probes, key=lambda p: min(abs(p[0] - t0), abs(p[0] - t1)))
        near = [e - s]
    return raw, raw * PROBE_S * len(near) / sum(near)


def stop_probes() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)


HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import inputs  # noqa: E402


def _import_randic():
    import randic
    import randic.cli

    if Path(randic.__file__).resolve().parent != SRC / "randic":
        raise SystemExit(f"randic was imported from {randic.__file__}, not from {SRC}")
    return randic


def _graph(randic, gi):
    return randic.Graph.from_edges(gi.n, gi.edges)


def _cli_call(randic, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = randic.cli.main(argv)
    return {"code": code, "stdout": buf.getvalue()}


def _poly(p) -> list[str]:
    return [str(c) for c in p.coeffs]


# Each workload has an input maker, run before the set-up clock starts, and
# a builder, run inside it. A builder takes randic, the inputs and the
# arguments, and returns (ops, serialize, extras): ops are zero-argument
# calls that look randic functions up at call time, so a traced run sees
# them; serialize turns one raw result into JSON after the clock has
# stopped; extras runs untimed program calls that some output checks need.

def build_energy_large(randic, cases, args):
    def op(kind, g):
        if kind == "re":
            return lambda: randic.randic_energy(g)
        if kind == "e":
            return lambda: randic.graph_energy(g)
        return lambda: randic.eigenvalues(randic.randic_matrix(g)).values

    ops = [op(c.kind, _graph(randic, c.graph)) for c in cases]
    return ops, lambda r: r if isinstance(r, float) else list(r), lambda: None


def build_exact_large(randic, cases, args):
    graphs = [_graph(randic, c.graph) for c in cases]

    def op(g, parts):
        if not parts:
            return lambda: (randic.charpoly_exact(g), None)
        f = parts[0]
        spec = randic.FamilySpec(f.family, f.n, m=f.m, minus_edge=f.minus_edge)

        def both():
            exact = randic.charpoly_exact(g)
            return exact, exact == randic.closed_charpoly(spec)

        return both

    def extras():
        # a seeded relabeling of every random graph must give the same polynomial
        rng = random.Random(f"relabel:{args.seed}")
        relabeled = {}
        for i, (c, g) in enumerate(zip(cases, graphs)):
            if not c.graph.parts:
                perm = list(range(g.n))
                rng.shuffle(perm)
                relabeled[i] = _poly(randic.charpoly_exact(randic.permute_vertices(g, perm)))
        return relabeled

    ops = [op(g, c.graph.parts) for c, g in zip(cases, graphs)]
    return ops, lambda r: {"poly": _poly(r[0]), "closed_equal": r[1]}, extras


def cli_small_argvs(args):
    return [
        inputs.cli_argv(str(inputs.cli_file(args.inputs, g)), command)
        for g in inputs.cli_small(args.seed)
        for command in inputs.CLI_COMMANDS
    ]


def build_cli_small(randic, argvs, args):
    ops = [lambda argv=argv: _cli_call(randic, argv) for argv in argvs]
    return ops, lambda r: r, lambda: None


def build_verify_sweep(randic, argv, args):
    report = args.dir / "report.json"

    def extras():
        specs = randic.sweep_specs(inputs.VERIFY_MAX_N)
        return {
            "report": report.read_text(encoding="utf-8") if report.exists() else None,
            "specs": [[s.family, s.n, s.m, s.minus_edge] for s in specs],
        }

    return [lambda: _cli_call(randic, argv)], lambda r: r, extras


def run_ops(ops, probing: bool):
    """Run each operation once: results (None where it raised), raw and
    scaled times, and the indices that raised."""
    raw, spans, failed = [], [], []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            raw.append(op())
        except (Exception, SystemExit) as exc:
            raw.append(None)
            failed.append(i)
            print(f"operation {i} failed: {exc!r}", file=sys.stderr)
        spans.append((t0, time.perf_counter()))
    if not probing:
        return raw, [t1 - t0 for t0, t1 in spans], [t1 - t0 for t0, t1 in spans], failed
    probe()
    times = [timed(t0, t1) for t0, t1 in spans]
    return raw, [r for r, _ in times], [t for _, t in times], failed


INPUTS = {
    "verify-sweep": lambda args: inputs.verify_argv(str(args.dir / "report.json")),
    "energy-large": lambda args: inputs.energy_large(args.seed),
    "exact-large": lambda args: inputs.exact_large(args.seed),
    "cli-small": cli_small_argvs,
}
BUILDERS = {
    "verify-sweep": build_verify_sweep,
    "energy-large": build_energy_large,
    "exact-large": build_exact_large,
    "cli-small": build_cli_small,
}


def main() -> None:
    signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    probe()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True, help="round directory for results")
    parser.add_argument("--inputs", type=Path, required=True, help="input files written by the runner")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload_inputs = INPUTS[args.workload](args)

    probe()
    setup_start = time.perf_counter()
    randic = _import_randic()
    ops, serialize, extras = BUILDERS[args.workload](randic, workload_inputs, args)
    probe()
    setup_raw, setup_s = timed(setup_start, time.perf_counter())
    result = {"setup_raw_s": setup_raw, "setup_s": setup_s}
    tracer = None
    if args.trace:
        from tracing import Tracer

        stop_probes()
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    raw, op_raw, op_s, failed = run_ops(ops, probing=not tracer)
    stop_probes()
    result.update(
        op_raw_s=op_raw,
        op_s=op_s,
        failed=failed,
        rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        probe_mean_s=sum(e - s for s, e in probes) / len(probes),
        outputs=[None if r is None else serialize(r) for r in raw],
    )
    if tracer:
        result["layers"] = tracer.summary(sum(op_raw))
        tracer.write(args.dir / "spans.jsonl", start)
    result["extras"] = extras()
    (args.dir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    try:
        main()
    finally:
        stop_probes()  # an alarm during interpreter shutdown would kill the process
