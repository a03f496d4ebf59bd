"""Command-line front end: generate graphs, print polynomials and energies,
and run the verification sweep.

Exit codes: 0 success, 1 runtime/domain failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path
from typing import Optional

from .closed_forms import closed_charpoly, closed_energy
from .errors import ConvergenceError, DomainError, EdgeNotFoundError, UnsupportedFamilyError
from .graphs import (
    COMPLETE_BIPARTITE,
    FAMILIES,
    FamilySpec,
    Graph,
    _validate_spec,
    format_edge_list,
    generate,
    parse_edge_list,
)
from .ratpoly import RatPoly, format_poly
from .spectral import ENERGY_ORDER_CAP, EXACT_ORDER_CAP, charpoly_exact, graph_energy, randic_energy
from .verify import WITNESS_MAX, verify_all

_FAMILY_CHOICES = sorted(family.replace("_", "-") for family in FAMILIES)


def _add_family_args(sub: argparse.ArgumentParser, with_input: bool) -> None:
    if with_input:
        sub.add_argument("--input", metavar="FILE", help="read the graph from an edge-list file")
    sub.add_argument("--family", choices=_FAMILY_CHOICES)
    sub.add_argument("--n", type=int)
    sub.add_argument("--m", type=int, help="second part size (complete-bipartite only)")
    sub.add_argument("--minus-edge", action="store_true", help="delete the canonical edge")


def _family_from_args(args, parser: argparse.ArgumentParser) -> str:
    """The --family value in library spelling, once --m is checked against it."""
    if args.family is None:
        parser.error("--family is required (or --input where supported)")
    family = args.family.replace("-", "_")
    if args.m is not None and family != COMPLETE_BIPARTITE:
        parser.error("--m is only valid with --family complete-bipartite")
    if family == COMPLETE_BIPARTITE and args.m is None:
        parser.error("--family complete-bipartite requires --m")
    return family


def _spec_from_args(args, parser: argparse.ArgumentParser) -> FamilySpec:
    if args.family is not None and args.n is None:
        parser.error("--n is required with --family")
    family = _family_from_args(args, parser)
    return FamilySpec(family, args.n, m=args.m, minus_edge=args.minus_edge)


def _graph_from_args(args, parser: argparse.ArgumentParser) -> tuple[Graph, Optional[FamilySpec]]:
    if getattr(args, "input", None):
        if args.family is not None:
            parser.error("--input and --family are mutually exclusive")
        return parse_edge_list(Path(args.input).read_text(encoding="utf-8")), None
    spec = _spec_from_args(args, parser)
    return generate(spec), spec


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite positive float."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance: {text!r}") from None
    if not (tol > 0 and math.isfinite(tol)):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive (got {text})")
    return tol


def _poly_json(p: RatPoly) -> dict:
    return {"degree": p.degree, "coeffs_ascending": [str(c) for c in p.coeffs]}


def _cmd_gen(args, parser) -> int:
    spec = _spec_from_args(args, parser)
    text = format_edge_list(generate(spec))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_charpoly(args, parser) -> int:
    descending = args.order == "desc"
    if args.mode in ("closed", "both") and getattr(args, "input", None):
        parser.error("--mode closed/both requires --family, not --input")
    if args.mode == "closed":
        spec, exact = _spec_from_args(args, parser), None
    else:
        g, spec = _graph_from_args(args, parser)
        exact = charpoly_exact(g)
    closed = closed_charpoly(spec) if args.mode in ("closed", "both") else None
    if args.format == "json":
        if args.mode == "both":
            payload = {
                "exact": _poly_json(exact),
                "closed": _poly_json(closed),
                "equal": exact == closed,
            }
        else:
            payload = _poly_json(exact if exact is not None else closed)
        print(json.dumps(payload))
        return 0
    if args.mode == "both":
        print(f"exact: {format_poly(exact, descending=descending)}")
        print(f"closed: {format_poly(closed, descending=descending)}")
        print(f"equal: {'true' if exact == closed else 'false'}")
    else:
        print(format_poly(exact if exact is not None else closed, descending=descending))
    return 0


def _parse_sweep(text: str, parser) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit():
        parser.error("--sweep expects a range like 2..8")
    if int(lo) > int(hi):
        parser.error(f"--sweep range {text} is empty: N1 must not exceed N2")
    return int(lo), int(hi)


def _cmd_energy(args, parser) -> int:
    if args.format == "csv" and not args.sweep:
        parser.error("--format csv is only valid with --sweep")
    if args.sweep:
        if getattr(args, "input", None):
            parser.error("--sweep requires --family, not --input")
        lo, hi = _parse_sweep(args.sweep, parser)
        family = _family_from_args(args, parser)
        spec_at = partial(FamilySpec, family, m=args.m, minus_edge=args.minus_edge)
        # every family's limits and order bind at an end: check both before any energy
        try:
            for spec in (spec_at(lo), spec_at(hi)):
                _validate_spec(spec)
            if (core := sum(1 for d in generate(spec).degrees if d)) > ENERGY_ORDER_CAP:
                raise DomainError(
                    f"energies capped at {ENERGY_ORDER_CAP} non-isolated vertices (got {core})"
                )
        except (DomainError, UnsupportedFamilyError) as exc:
            parser.error(f"--sweep {args.sweep} reaches {spec.label()}: {exc}")
        rows = []
        for n in range(lo, hi + 1):
            spec = spec_at(n)
            re_num = randic_energy(generate(spec), args.tol)
            try:
                re_closed: Optional[float] = closed_energy(spec)
                err: Optional[float] = abs(re_num - re_closed)
            except (DomainError, UnsupportedFamilyError):
                re_closed = None
                err = None
            rows.append((spec, re_num, re_closed, err))
        if args.format == "json":
            print(
                json.dumps(
                    [
                        {
                            "family": s.family,
                            "n": s.n,
                            "m": s.m,
                            "re_numeric": re_num,
                            "re_closed": re_closed,
                            "abs_err": err,
                        }
                        for s, re_num, re_closed, err in rows
                    ]
                )
            )
            return 0
        lines = []
        if args.format == "csv":
            lines.append("family,n,m,re_numeric,re_closed,abs_err")
        for s, re_num, re_closed, err in rows:
            m_field = "" if s.m is None else str(s.m)
            closed_field = "" if re_closed is None else str(re_closed)
            err_field = "" if err is None else str(err)
            lines.append(f"{s.family},{s.n},{m_field},{re_num},{closed_field},{err_field}")
        print("\n".join(lines))
        return 0
    g, _spec = _graph_from_args(args, parser)
    re_num = randic_energy(g, args.tol)
    if args.adjacency:
        e_num = graph_energy(g, args.tol)
        if args.format == "json":
            print(json.dumps({"re": re_num, "e": e_num}))
        else:
            print(f"RE {re_num}")
            print(f"E {e_num}")
        return 0
    if args.format == "json":
        print(json.dumps({"re": re_num}))
    else:
        print(re_num)
    return 0


def _cmd_verify(args, parser) -> int:
    if not 5 <= args.max_n <= EXACT_ORDER_CAP:
        parser.error(f"--max-n must be between 5 and {EXACT_ORDER_CAP}")
    if not 2 <= args.witness_max <= WITNESS_MAX:
        parser.error(f"--witness-max must be between 2 and {WITNESS_MAX}")
    report = verify_all(args.max_n, args.tol, witness_max=args.witness_max)
    text = report.to_json()
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
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
    p_gen.set_defaults(func=_cmd_gen)

    p_char = sub.add_parser("charpoly", help="characteristic polynomial of the Randic matrix")
    _add_family_args(p_char, with_input=True)
    p_char.add_argument("--mode", choices=["exact", "closed", "both"], default="exact")
    p_char.add_argument("--format", choices=["text", "json"], default="text")
    p_char.add_argument("--order", choices=["asc", "desc"], default="desc")
    p_char.set_defaults(func=_cmd_charpoly)

    p_energy = sub.add_parser("energy", help="Randic energy (and adjacency energy)")
    _add_family_args(p_energy, with_input=True)
    p_energy.add_argument("--tol", type=_tolerance, default=1e-12, help="eigensolver tolerance")
    p_energy.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_energy.add_argument("--sweep", metavar="N1..N2", help="sweep n over a range")
    p_energy.add_argument("--adjacency", action="store_true", help="also print the adjacency energy")
    p_energy.set_defaults(func=_cmd_energy)

    p_verify = sub.add_parser("verify", help="run the full cross-check sweep")
    p_verify.add_argument("--max-n", type=int, default=12)
    p_verify.add_argument("--tol", type=_tolerance, default=1e-9)
    p_verify.add_argument("--report", metavar="FILE", help="write the JSON report to FILE")
    p_verify.add_argument("--witness-max", type=int, default=20)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (
        DomainError,
        UnsupportedFamilyError,
        EdgeNotFoundError,
        ConvergenceError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
