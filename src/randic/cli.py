"""Command-line front end: generate graphs, print polynomials and energies,
and run the verification sweep.

Exit codes: 0 success; 2 a request outside a documented limit (the library's
DomainError, which ``main`` alone turns into an exit code; a --family spec is
refused before any graph is built) or malformed usage; 1 work that failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .closed_forms import _check_domain, closed_charpoly, closed_energy
from .errors import ConvergenceError, DomainError
from .graphs import (
    FAMILIES,
    FamilySpec,
    Graph,
    _family_core_size,
    _validate_spec,
    format_edge_list,
    generate,
    parse_edge_list,
)
from .ratpoly import RatPoly, format_coeffs, format_poly
from .spectral import _check_energy_order, _check_exact_order, charpoly_exact, graph_energy, randic_energy
from .verify import verify_all

_FAMILY_CHOICES = sorted(family.replace("_", "-") for family in FAMILIES)


def _add_family_args(sub: argparse.ArgumentParser, with_input: bool) -> None:
    if with_input:
        sub.add_argument("--input", metavar="FILE", help="read the graph from an edge-list file")
    sub.add_argument("--family", choices=_FAMILY_CHOICES)
    sub.add_argument("--n", type=int)
    sub.add_argument("--m", type=int, help="second part size (complete-bipartite only)")
    sub.add_argument("--minus-edge", action="store_true", help="delete the canonical edge")


def _parse_sweep(args) -> tuple[int, int]:
    lo, sep, hi = args.sweep.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit():
        args.parser.error("--sweep expects a range like 2..8")
    if int(lo) > int(hi):
        args.parser.error(f"--sweep range {args.sweep} is empty: N1 must not exceed N2")
    return int(lo), int(hi)


def _family_specs(args, order_check=None, closed: bool = False) -> list[FamilySpec]:
    """The --family spec at --n, or at each --sweep end, checked before any
    graph is built: against ``generate``'s domain, by the route's
    ``order_check`` of its non-isolated vertex count when one is given, and
    against the closed forms' domain when ``closed``. A refusal is a
    DomainError that names the spec once: the library's messages leave it to
    the caller."""
    if args.family is None:
        args.parser.error("--family is required (or --input where supported)")
    sweep = getattr(args, "sweep", None)
    if sweep:
        if args.n is not None:
            args.parser.error("--sweep and --n are mutually exclusive")
        ends, where = _parse_sweep(args), f"--sweep {sweep} reaches "
    elif args.n is None:
        args.parser.error("--n is required with --family")
    else:
        ends, where = (args.n,), ""
    family = args.family.replace("-", "_")
    specs = [FamilySpec(family, n, m=args.m, minus_edge=args.minus_edge) for n in ends]
    for spec in specs:
        try:
            _validate_spec(spec)
            if order_check is not None:
                order_check(_family_core_size(spec))
            if closed:
                _check_domain(spec, "form")
        except DomainError as exc:
            raise DomainError(f"{where}{spec.label()}: {exc}") from None
    return specs


def _graph_from_args(args, order_check) -> Graph:
    """The --input graph, or the --family graph once its spec passes the route's ``order_check``."""
    if args.input:
        given = (("family", args.family), ("n", args.n), ("m", args.m), ("minus-edge", args.minus_edge or None))
        for option, value in given:
            if value is not None:
                args.parser.error(f"--input and --{option} are mutually exclusive")
        with open(args.input, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    return generate(_family_specs(args, order_check)[0])


def _poly_json(p: RatPoly) -> dict:
    return {"degree": p.degree, "coeffs_ascending": format_coeffs(p)}


def _emit(args, payload, lines) -> int:
    """Print a result in its --format: ``payload()`` as JSON, or the text or
    CSV ``lines()``. Only the printed form is rendered."""
    print(json.dumps(payload()) if args.format == "json" else "\n".join(lines()))
    return 0


def _cmd_gen(args) -> int:
    text = format_edge_list(generate(_family_specs(args)[0]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_charpoly(args) -> int:
    if args.mode == "exact":
        polys = {"exact": charpoly_exact(_graph_from_args(args, _check_exact_order))}
    else:
        if args.input:
            args.parser.error("--mode closed/both requires --family, not --input")
        both = args.mode == "both"
        spec = _family_specs(args, _check_exact_order if both else None, closed=True)[0]
        polys = {"exact": charpoly_exact(generate(spec))} if both else {}
        polys["closed"] = closed_charpoly(spec)
    descending = args.order == "desc"
    equal = polys["exact"] == polys["closed"] if len(polys) == 2 else None

    # one polynomial prints bare, a pair by name and then whether the two are equal
    def named(form, flag):
        out = {name: form(p) for name, p in polys.items()}
        return out.popitem()[1] if equal is None else {**out, "equal": flag}

    def lines():
        text = named(lambda p: format_poly(p, descending=descending), "true" if equal else "false")
        return [text] if equal is None else [f"{name}: {t}" for name, t in text.items()]

    return _emit(args, lambda: named(_poly_json, equal), lines)


def _cmd_energy(args) -> int:
    if args.format == "csv" and not args.sweep:
        args.parser.error("--format csv is only valid with --sweep")
    if not args.sweep:
        g = _graph_from_args(args, _check_energy_order)
        energies = {"re": randic_energy(g)}
        if args.adjacency:
            energies["e"] = graph_energy(g)
        # one energy prints bare, both by name
        return _emit(args, lambda: energies,
                     lambda: [f"{name.upper()} {e}" if args.adjacency else str(e) for name, e in energies.items()])
    if args.input:
        args.parser.error("--sweep requires --family, not --input")
    if args.adjacency:
        args.parser.error("--sweep and --adjacency are mutually exclusive")
    # every family's limits and order bind at an end
    lo, hi = _family_specs(args, _check_energy_order)
    rows = []
    for n in range(lo.n, hi.n + 1):
        spec = FamilySpec(lo.family, n, m=lo.m, minus_edge=lo.minus_edge)
        re_num = randic_energy(generate(spec))
        try:
            re_closed: float | None = closed_energy(spec)
        except DomainError:
            re_closed = None
        err = None if re_closed is None else abs(re_num - re_closed)
        rows.append({"family": spec.family, "n": n, "m": spec.m, "minus_edge": spec.minus_edge,
                     "re_numeric": re_num, "re_closed": re_closed, "abs_err": err})
    columns = ("family", "n", "m", "re_numeric", "re_closed", "abs_err")

    def lines():
        if args.format == "csv":
            yield ",".join(columns) + ",minus_edge"
        for row in rows:
            cells = ["" if row[c] is None else str(row[c]) for c in columns]
            yield ",".join([*cells, "true" if row["minus_edge"] else "false"])

    return _emit(args, lambda: rows, lines)


def _cmd_verify(args) -> int:
    report = verify_all(args.max_n)
    text = report.to_json()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"pass={report.n_pass} fail={report.n_fail}")
    else:
        sys.stdout.write(text)
    return 0 if report.n_fail == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randic",
        description="Randic matrices, exact characteristic polynomials, spectra and energies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a family graph as an edge list")
    _add_family_args(p_gen, with_input=False)
    p_gen.add_argument("--out", metavar="FILE", help="write to FILE instead of stdout")
    p_gen.set_defaults(func=_cmd_gen, parser=p_gen)

    p_char = sub.add_parser("charpoly", help="characteristic polynomial of the Randic matrix")
    _add_family_args(p_char, with_input=True)
    p_char.add_argument("--mode", choices=["exact", "closed", "both"], default="exact")
    p_char.add_argument("--format", choices=["text", "json"], default="text")
    p_char.add_argument("--order", choices=["asc", "desc"], default="desc")
    p_char.set_defaults(func=_cmd_charpoly, parser=p_char)

    p_energy = sub.add_parser("energy", help="Randic energy (and adjacency energy)")
    _add_family_args(p_energy, with_input=True)
    p_energy.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_energy.add_argument("--sweep", metavar="N1..N2", help="sweep n over a range")
    p_energy.add_argument("--adjacency", action="store_true", help="also print the adjacency energy")
    p_energy.set_defaults(func=_cmd_energy, parser=p_energy)

    p_verify = sub.add_parser("verify", help="run the full cross-check sweep")
    p_verify.add_argument("--max-n", type=int, default=12)
    p_verify.add_argument("--report", metavar="FILE", help="write the JSON report to FILE")
    p_verify.set_defaults(func=_cmd_verify, parser=p_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # each subcommand's defaults carry its own parser, so a refusal prints
    # that subcommand's usage line
    try:
        return args.func(args)
    except DomainError as exc:  # a ValueError: caught before the runtime errors
        args.parser.error(str(exc))
    except (ConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
