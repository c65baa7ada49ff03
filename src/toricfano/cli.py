"""Command-line front end.

Subcommands: validate, invariants, mukai, bounds, batch. Exit codes: 0 when
every requested check passes, 1 when a mathematical check fails, 2 on input
or parse errors. Reports go to standard output; diagnostics to standard
error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import (
    FanSyntaxError,
    NonSimplicialFacet,
    OriginNotInterior,
    RegimeUnsupported,
    ValidationError,
)
from .fan import Fan, require_valid, validate
from .fvector import corollary_bound_table, f_vector, max_rho_bound
from .invariants import (
    is_fano,
    mukai_check,
    picard_number,
    pseudo_index,
    wall_curves,
)
from .io import (_ascii_int, parse_fan_unchecked, parse_polytope_unchecked,
                 render_report)
from .primitive import all_relations

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

# UnicodeDecodeError: a file that is not UTF-8 text is an input error.
_PARSE_ERRORS = (FanSyntaxError, OriginNotInterior, NonSimplicialFacet,
                 OSError, UnicodeDecodeError)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _normal_format(fmt: str) -> str:
    return "json" if fmt == "json-like-structured" else fmt


def _emit(data, fmt: str) -> None:
    sys.stdout.write(render_report(data, _normal_format(fmt)))


def _load_unchecked(path: str) -> Fan:
    """Fan from a `.fan` or `.poly` file, not yet validated."""
    text = Path(path).read_text(encoding="utf-8")
    if Path(path).suffix == ".poly":
        return parse_polytope_unchecked(text)
    return parse_fan_unchecked(text)


def _report_payload(report) -> dict:
    return {
        "ok": report.ok,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
    }


def _invariants_payload(fan: Fan) -> dict:
    fano = is_fano(fan)
    relations = all_relations(fan)
    payload = {
        "dimension": fan.dim,
        "ray_count": len(fan.rays),
        "rays": [list(r) for r in fan.rays],
        "picard_rho": picard_number(fan),
        "fano": fano,
        "pseudo_index_iota": pseudo_index(fan) if fano else None,
        "relations": [{
            "collection": list(r.collection),
            "targets": list(r.targets),
            "coefficients": list(r.coeffs),
            "order": r.order,
            "degree": r.degree,
            "class": list(r.class_vector),
        } for r in relations],
        "wall_degrees": sorted(w.anticanonical_degree
                               for w in wall_curves(fan)),
        "f_vector": list(f_vector(fan).f),
    }
    return payload


def _mukai_payload(fan: Fan) -> dict:
    report = mukai_check(fan)
    return {
        "dimension": report.dim_n,
        "picard_rho": report.picard_rho,
        "pseudo_index_iota": report.pseudo_index_iota,
        "inequality_lhs": report.inequality_lhs,
        "inequality_holds": report.inequality_holds,
        "equality_case": report.equality_case,
        "factors": list(report.factors) if report.factors is not None
        else None,
    }


def _mukai_failed(payload: dict) -> bool:
    """Whether a Mukai payload fails: the inequality is violated, or
    equality holds on a fan not recognized as a product of projective
    spaces."""
    return not payload["inequality_holds"] or \
        payload["equality_case"] == "EqualButUnrecognized"


def cmd_validate(args) -> int:
    try:
        fan = _load_unchecked(args.path)
    except _PARSE_ERRORS as err:
        return _fail(str(err))
    report = validate(fan)
    _emit({"path": args.path, **_report_payload(report)}, args.format)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_invariants(args) -> int:
    try:
        fan = require_valid(_load_unchecked(args.path))
    except (ValidationError, *_PARSE_ERRORS) as err:
        return _fail(str(err))
    _emit({"path": args.path, **_invariants_payload(fan)}, args.format)
    return EXIT_OK


def cmd_mukai(args) -> int:
    try:
        fan = require_valid(_load_unchecked(args.path))
    except (ValidationError, *_PARSE_ERRORS) as err:
        return _fail(str(err))
    if not is_fano(fan):
        return _fail("the fan is not Fano; the inequality verdict is "
                     "undefined")
    payload = _mukai_payload(fan)
    _emit({"path": args.path, **payload}, args.format)
    return EXIT_CHECK_FAILED if _mukai_failed(payload) else EXIT_OK


def cmd_bounds(args) -> int:
    try:
        face_bound = max_rho_bound(args.n, args.iota)
    except RegimeUnsupported as err:
        return _fail(str(err))
    # max_rho_bound has rejected every cell the table lacks.
    mukai_bound = corollary_bound_table()[args.n, args.iota]
    _emit({
        "n": args.n,
        "iota": args.iota,
        "face_count_bound": face_bound,
        "mukai_bound": mukai_bound,
        "face_count_bound_suffices": face_bound <= mukai_bound,
    }, args.format)
    return EXIT_OK


def _process_file(path: str) -> dict:
    entry: dict = {"path": path}
    try:
        fan = _load_unchecked(path)
    except _PARSE_ERRORS as err:
        entry["status"] = "parse_error"
        entry["detail"] = str(err)
        return entry
    report = validate(fan)
    if not report.ok:
        entry["status"] = "check_failed"
        entry["detail"] = "validation failed: " + \
            ", ".join(report.failed_names)
        return entry
    entry["invariants"] = _invariants_payload(fan)
    if is_fano(fan):
        payload = _mukai_payload(fan)
        entry["mukai"] = payload
        if _mukai_failed(payload):
            entry["status"] = "check_failed"
            entry["detail"] = "inequality or equality recognition failed"
            return entry
    entry["status"] = "ok"
    return entry


def cmd_batch(args) -> int:
    if args.workers < 1:
        return _fail(f"--workers must be at least 1, got {args.workers}")
    root = Path(args.directory)
    try:
        candidates = sorted(str(p) for p in root.iterdir()
                            if p.suffix in (".fan", ".poly"))
    except OSError as err:
        return _fail(str(err))
    # The pool starts all its processes at once, so never ask for more than
    # there are files or CPUs.
    workers = min(args.workers, len(candidates), os.cpu_count() or 1)
    if workers > 1:
        # Imported here, so that the other subcommands and a serial batch
        # never load concurrent.futures and multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_process_file, candidates))
    else:
        entries = [_process_file(p) for p in candidates]
    summary = {
        "files": len(entries),
        "passed": sum(e["status"] == "ok" for e in entries),
        "check_failures": sum(e["status"] == "check_failed" for e in entries),
        "parse_errors": sum(e["status"] == "parse_error" for e in entries),
        "mukai_equality": sum(
            e.get("mukai", {}).get("equality_case")
            == "ProductOfProjectiveSpaces" for e in entries),
    }
    data = {"entries": entries, "summary": summary}
    rendered = render_report(data, _normal_format(args.format))
    # Write the file first, so a run that fails on it prints no report.
    if args.report:
        try:
            Path(args.report).write_text(rendered, encoding="utf-8")
        except OSError as err:
            return _fail(str(err))
    sys.stdout.write(rendered)
    return EXIT_CHECK_FAILED if summary["check_failures"] else EXIT_OK


def _int_argument(token: str) -> int:
    """_ascii_int for argparse, which prints the message of an
    ArgumentTypeError as it is but echoes the whole token on a
    ValueError."""
    try:
        return _ascii_int(token)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"invalid integer: {err}") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", default="text",
                        choices=("text", "json", "json-like-structured"),
                        help="report rendering (json-like-structured is an "
                             "alias for json)")
    parser = argparse.ArgumentParser(
        prog="toricfano",
        description="Exact checks for smooth complete toric fans: "
                    "validation, Fano invariants, the rho*(iota-1) <= n "
                    "inequality, and face-count bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="run the structural validation checks on a file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", parents=[common],
                       help="print rho, iota, relations, walls, and the "
                            "f-vector")
    p.add_argument("path")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("mukai", parents=[common],
                       help="check rho*(iota-1) <= n and classify equality")
    p.add_argument("path")
    p.set_defaults(func=cmd_mukai)

    p = sub.add_parser("bounds", parents=[common],
                       help="print the face-count and inequality bounds for "
                            "a supported (n, iota) cell")
    p.add_argument("n", type=_int_argument)
    p.add_argument("iota", type=_int_argument)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("batch", parents=[common],
                       help="verify every .fan/.poly file in a directory")
    p.add_argument("directory")
    p.add_argument("--workers", type=_int_argument, default=1,
                   help="parallel worker processes (at least 1; capped at "
                        "the number of files and of CPUs)")
    p.add_argument("--report", default=None,
                   help="also write the report to this path")
    p.set_defaults(func=cmd_batch)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
