"""Command-line front end.

Subcommands map one-to-one onto the library layers: ``coeffs`` prints the
weight families and classical constants, ``verify`` exercises the summation
identities on seeded random polynomials, ``sum`` evaluates fractional and
downsampled sums of a user polynomial, ``downsample`` runs the correction
error study on a CSV signal, and ``accelerate`` runs the series-acceleration
demos.

Exit codes: 0 success, 1 a verification found a nonzero residual, 2 bad
input (unknown flags, malformed or non-finite numbers, unreadable files,
violated preconditions, arithmetic overflow).  Output for a fixed seed is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
from typing import Optional, Sequence

from .errors import DownsumError
from .exact import Polynomial, format_rational, parse_rational
from .family import classical_numbers, coefficient_table, correction_family
from .sumcalc import (
    alternating_residual,
    downsampled_sum,
    euler_maclaurin_residual,
    fractional_sum,
    gregory_residual,
    random_polynomial,
    step_identity_reports,
)
from .timeseries import (
    error_report,
    euler_mascheroni,
    euler_transform,
    load_series,
    load_terms,
)

DEFAULT_X_GRID = "-2,-1,-1/2,1/3,1/2,1,2,3"


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser; only the subparser of ``command`` when it names one.

    A request names its subcommand first, so building the other four
    subparsers is wasted work.  Without a known command (``--help``, an empty
    or unknown argv) every subparser is built.  The one-subparser parser pins
    the subcommand metavar so that its top-level usage line (printed, e.g.,
    for stray arguments) reads as the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="downsum",
        description="Exact summation-correction weights and their applications.",
    )
    known = command in SUBCOMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(SUBCOMMANDS) + "}" if known else None,
    )
    for name, add_subparser in SUBCOMMANDS.items():
        if not known or name == command:
            add_subparser(sub)
    return parser


def _add_coeffs(sub) -> None:
    coeffs = sub.add_parser(
        "coeffs", help="print the correction-weight polynomials and constants"
    )
    coeffs.add_argument("--max-order", type=int, required=True, metavar="R")
    coeffs.add_argument(
        "--star", action="store_true",
        help="show the reversed (unit-difference) family instead",
    )
    coeffs.add_argument(
        "--eval", dest="eval_at", metavar="p/q",
        help="print values at this point instead of coefficient lists",
    )
    coeffs.add_argument("--format", choices=("table", "csv"), default="table")
    coeffs.set_defaults(handler=_run_coeffs)


def _add_verify(sub) -> None:
    verify = sub.add_parser(
        "verify", help="check the summation identities on random polynomials"
    )
    verify.add_argument("--degree", type=int, required=True, metavar="D")
    verify.add_argument("--trials", type=int, required=True, metavar="T")
    verify.add_argument("--seed", type=int, required=True, metavar="S")
    verify.add_argument("--x-grid", default=DEFAULT_X_GRID, metavar="LIST")
    verify.add_argument(
        "--classical", action="store_true",
        help="also check the derivative, quadrature, and alternating forms",
    )
    verify.set_defaults(handler=_run_verify)


def _add_sum(sub) -> None:
    sum_cmd = sub.add_parser(
        "sum", help="evaluate the fractional (or downsampled) sum of a polynomial"
    )
    sum_cmd.add_argument("--poly", required=True, metavar="c0,c1,...")
    sum_cmd.add_argument("--n", required=True, metavar="p/q")
    sum_cmd.add_argument("--downsample-x", metavar="p/q")
    sum_cmd.set_defaults(handler=_run_sum)


def _add_downsample(sub) -> None:
    down = sub.add_parser(
        "downsample", help="error study of corrected downsampled sums on a CSV column"
    )
    down.add_argument("--input", required=True, metavar="FILE")
    down.add_argument("--col", type=int, required=True, metavar="K")
    down.add_argument("--header", action="store_true")
    down.add_argument("--window", type=int, required=True, metavar="N")
    down.add_argument("--factors", required=True, metavar="LIST")
    down.add_argument("--max-order", type=int, required=True, metavar="R")
    down.add_argument("--t0", type=int, default=0, metavar="T")
    down.add_argument("--output", required=True, metavar="FILE")
    down.set_defaults(handler=_run_downsample)


def _add_accelerate(sub) -> None:
    accel = sub.add_parser("accelerate", help="series acceleration demos")
    accel.add_argument("--target", choices=("gamma", "ln2"))
    accel.add_argument("--terms", type=int, metavar="N")
    accel.add_argument("--order", type=int, metavar="R")
    accel.add_argument("--terms-file", metavar="FILE")
    accel.set_defaults(handler=_run_accelerate)


#: Subcommand name -> the function adding its subparser, in ``--help`` order.
SUBCOMMANDS = {
    "coeffs": _add_coeffs,
    "verify": _add_verify,
    "sum": _add_sum,
    "downsample": _add_downsample,
    "accelerate": _add_accelerate,
}


def _print_aligned(rows: Sequence[Sequence[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _run_coeffs(args: argparse.Namespace) -> int:
    if args.max_order < 0:
        raise ValueError("--max-order must be >= 0")
    family = correction_family(args.max_order)
    table = classical_numbers(family)
    chosen = family.unit_weights if args.star else family.weights
    label = "F_r*" if args.star else "F_r"
    out = csv.writer(sys.stdout, lineterminator="\n") if args.format == "csv" else None

    if args.eval_at is not None:
        point = parse_rational(args.eval_at)
        header = ["r", f"{label}({format_rational(point)})"]
        body = [
            [str(r), format_rational(chosen[r](point))]
            for r in range(args.max_order + 1)
        ]
        if out is not None:
            out.writerow(["r", "value"])
            out.writerows(body)
        else:
            _print_aligned([header] + body)
        return 0

    if out is not None:
        out.writerow(["r", "F_r_coeffs", "F_r_star_coeffs", "B_r", "G_r"])
        for r in range(args.max_order + 1):
            out.writerow(
                [
                    r,
                    family.weights[r].text(),
                    family.unit_weights[r].text(),
                    format_rational(table.bernoulli[r]),
                    format_rational(table.gregory[r]),
                ]
            )
    else:
        rows = [["r", f"{label}(x)", "B_r", "G_r"]]
        for r in range(args.max_order + 1):
            rows.append(
                [
                    str(r),
                    chosen[r].pretty(var="x"),
                    format_rational(table.bernoulli[r]),
                    format_rational(table.gregory[r]),
                ]
            )
        _print_aligned(rows)
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    if args.degree < 0:
        raise ValueError("--degree must be >= 0")
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    grid = [parse_rational(part) for part in args.x_grid.split(",")]
    if any(x == 0 for x in grid):
        raise ValueError("x-grid entries must be nonzero")
    family = correction_family(args.degree + 1)
    rng = random.Random(args.seed)
    print(f"seed: {args.seed}")
    print(f"x-grid: {','.join(format_rational(x) for x in grid)}")
    clean_trials = 0
    for i in range(args.trials):
        f = random_polynomial(rng, args.degree)
        trial_ok = True
        for x, (step_form, unit_form) in zip(grid, step_identity_reports(f, grid, family)):
            ok = step_form.passed and unit_form.passed
            print(f"trial {i:03d} x={format_rational(x)}: {'pass' if ok else 'FAIL'}")
            if not ok:
                trial_ok = False
                print(f"  f = {f.text()}")
                if not step_form.passed:
                    print(f"  step-weight residual = {step_form.residual.text()}")
                if not unit_form.passed:
                    print(f"  unit-weight residual = {unit_form.residual.text()}")
        if args.classical:
            classical = (
                ("euler-maclaurin", euler_maclaurin_residual(f)),
                ("gregory", gregory_residual(f)),
                ("alternating", alternating_residual(f)),
            )
            for name, report in classical:
                print(f"trial {i:03d} {name}: {'pass' if report.passed else 'FAIL'}")
                if not report.passed:
                    trial_ok = False
                    print(f"  f = {f.text()}")
                    print(f"  residual = {report.residual.text()}")
        if trial_ok:
            clean_trials += 1
    print(f"{clean_trials}/{args.trials} passed")
    return 0 if clean_trials == args.trials else 1


def _run_sum(args: argparse.Namespace) -> int:
    f = Polynomial.from_text(args.poly)
    n = parse_rational(args.n)
    if args.downsample_x is not None:
        x = parse_rational(args.downsample_x)
        value = downsampled_sum(f, x)(n)
    else:
        value = fractional_sum(f, n)
    print(format_rational(value))
    return 0


def _run_downsample(args: argparse.Namespace) -> int:
    series = load_series(args.input, args.col, args.header)
    factors = [int(part) for part in args.factors.split(",")]
    family_order = args.max_order
    if family_order >= 0:
        # error_report starts with the smallest factor.  A window its sum
        # rejects (factor < 1, negative or non-divisible length, out of the
        # series) fails before any weight is read; otherwise the factor's
        # first order past the series' tail raises OutOfRange, and the family
        # must still hold that order, which _corrected_sums reads before it
        # checks the tail sample.
        smallest, reachable = min(factors), 0
        if smallest >= 1 and args.window >= 0 and args.window % smallest == 0 and (
            0 <= args.t0 <= len(series) - args.window
        ):
            reachable = (len(series) - 1 - args.t0 - args.window) // smallest + 2
        family_order = min(family_order, reachable)
    family = correction_family(family_order)
    report = error_report(
        series, args.t0, args.window, factors, args.max_order, family
    )
    with open(args.output, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x", "R", "err"])
        for x, order, err in report.rows:
            writer.writerow([x, order, f"{err:.9g}"])
    return 0


def _run_accelerate(args: argparse.Namespace) -> int:
    if args.terms_file is not None:
        if args.target is not None:
            raise ValueError("--terms-file and --target are mutually exclusive")
        if args.order is None:
            raise ValueError("--terms-file requires --order")
        value = euler_transform(load_terms(args.terms_file), args.order)
    elif args.target == "gamma":
        if args.terms is None:
            raise ValueError("--target gamma requires --terms")
        if args.order is not None:
            raise ValueError("--target gamma takes --terms, not --order")
        value = euler_mascheroni(args.terms, coefficient_table(args.terms))
    elif args.target == "ln2":
        if args.order is None:
            raise ValueError("--target ln2 requires --order")
        if args.terms is not None:
            raise ValueError("--target ln2 takes --order, not --terms")
        terms = [1.0 / (k + 1) for k in range(args.order + 1)]
        value = euler_transform(terms, args.order)
    else:
        raise ValueError("choose --target gamma, --target ln2, or --terms-file")
    print(f"{value:.12g}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (DownsumError, OSError, ValueError, ArithmeticError) as exc:
        print(f"downsum: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
