"""Command line interface.

Exit codes: 0 success, 1 verification mismatch, 2 bad input,
3 search or enumeration budget exceeded, 141 (128 + SIGPIPE) standard
output closed by its reader, as `agstab betti ... | head` does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cones import DEFAULT_NODE_BUDGET, analyze, check_declared_automorphisms, load_cone
from .errors import (
    AgstabError,
    CapExceeded,
    InputError,
    SearchBudgetExceeded,
    VerificationFailed,
    json_int,
    json_int_list,
    json_list,
    json_object,
    read_json,
)
from .molien import LinearAction, molien_series
from .perms import PermGroup, Permutation
from .pipeline import (
    betti_series,
    display_report,
    load_dataset,
    validate_smallness,
)
from .reference import SUITE_NAMES, run_suite
from .series import DEFAULT_ORDER, TruncatedSeries
from .symfunc import exp_series, plethysm_h

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141
GROUP_KEYS = ("degree", "generators")


def _order_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"order must be non-negative, got {value}")
    return value


def _budget_arg(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"node budget must be positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agstab",
        description="Exact generating series of stable cohomology for cone-indexed compactification families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cone = sub.add_parser("cone", help="cone-level computations")
    cone_sub = cone.add_subparsers(dest="action", required=True)
    cone_analyze = cone_sub.add_parser("analyze", help="dimension, rank, components, automorphisms, Molien series")
    cone_analyze.add_argument("file", help="cone JSON file")
    cone_analyze.add_argument("--order", type=_order_arg, default=DEFAULT_ORDER)
    cone_analyze.add_argument("--node-budget", type=_budget_arg, default=DEFAULT_NODE_BUDGET)

    molien = sub.add_parser("molien", help="Molien series of a permutation group file")
    molien.add_argument("file", help='group JSON file: {"degree": n, "generators": [[images], ...]}')
    molien.add_argument("--order", type=_order_arg, default=DEFAULT_ORDER)

    series = sub.add_parser("series", help="series operators on JSON from standard input")
    series_sub = series.add_subparsers(dest="operator", required=True)
    series_exp = series_sub.add_parser("exp", help="plethystic exponential")
    series_exp.add_argument("--order", type=_order_arg, default=None)
    series_pl = series_sub.add_parser("plethysm", help="complete homogeneous plethysm h_n[P]")
    series_pl.add_argument("--order", type=_order_arg, default=None)
    series_pl.add_argument("--degree", type=int, required=True, help="the index n of h_n")

    betti = sub.add_parser("betti", help="stable Betti series of a dataset")
    betti.add_argument("--dataset", required=True, help="manifest path, or packaged family name")
    betti.add_argument("--order", type=_order_arg, default=DEFAULT_ORDER)
    betti.add_argument("--no-lambda", action="store_true", help="omit the lambda-class factor")
    betti.add_argument(
        "--paper-display",
        action="store_true",
        help="generator-count display series (leading 1, full records only) instead of Betti numbers",
    )
    betti.add_argument("--format", choices=("json", "csv"), default="json")

    verify = sub.add_parser("verify", help="recompute a reference suite and compare")
    verify.add_argument("--suite", required=True, choices=SUITE_NAMES)

    validate = sub.add_parser("validate", help="smallness and declared-generator checks for a dataset")
    validate.add_argument("--dataset", required=True)
    return parser


def _read_stdin_series(order) -> TruncatedSeries:
    text = sys.stdin.read()
    series = TruncatedSeries.from_json(text)
    if order is not None:
        if order <= series.order:
            series = series.truncate(order)
        else:
            raise InputError(
                f"requested order {order} exceeds the input series order {series.order}"
            )
    return series


def _load_group(path: str):
    payload = json_object(read_json(path, "group file"), GROUP_KEYS, "group file")
    try:
        degree = json_int(payload["degree"], "degree")
        generators = [
            Permutation(json_int_list(images, "a generator"))
            for images in json_list(payload["generators"], "generators")
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed group file: {exc}") from exc
    if degree < 1:
        raise InputError(f"group degree must be positive, got {degree}")
    for p in generators:
        if p.degree != degree:
            raise InputError(f"generator {p!r} does not act on {degree} points")
    if not generators:
        generators = [Permutation.identity(degree)]
    return PermGroup.from_generators(generators)


def _cmd_cone_analyze(args) -> int:
    spec = load_cone(args.file)
    result = analyze(spec, order=args.order, node_budget=args.node_budget)
    payload = {"name": spec.name, **result.to_json_dict()}
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_molien(args) -> int:
    group = _load_group(args.file)
    series = molien_series(LinearAction.natural(group), args.order)
    print(series.to_json())
    return EXIT_OK


def _cmd_series(args) -> int:
    series = _read_stdin_series(args.order)
    if args.operator == "exp":
        result = exp_series(series)
    else:
        if args.degree < 0:
            raise InputError("plethysm degree must be non-negative")
        result = plethysm_h(args.degree, series)
    print(result.to_json())
    return EXIT_OK


def _cmd_betti(args) -> int:
    dataset = load_dataset(args.dataset, order=args.order)
    if args.paper_display:
        report = display_report(dataset, order=args.order)
    else:
        report = betti_series(dataset, order=args.order, include_lambda=not args.no_lambda)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(json.dumps(report.to_json_dict(), indent=2))
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_suite(args.suite)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _cmd_validate(args) -> int:
    dataset = load_dataset(args.dataset, order=0, check=check_declared_automorphisms)
    report = validate_smallness(dataset)
    print(json.dumps({"family": dataset.family, **report.to_json_dict()}, indent=2))
    return EXIT_OK if report.ok else EXIT_MISMATCH


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # exact coefficients may run past the interpreter's 4,300-digit int/str limit
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    handlers = {
        "cone": _cmd_cone_analyze,
        "molien": _cmd_molien,
        "series": _cmd_series,
        "betti": _cmd_betti,
        "verify": _cmd_verify,
        "validate": _cmd_validate,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # later writes, the interpreter's last flush among them, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (SearchBudgetExceeded, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except AgstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
