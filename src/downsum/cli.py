"""Command-line front end.

Subcommands map one-to-one onto the library layers: ``coeffs`` prints the
weight families and classical constants, ``verify`` exercises the summation
identities on seeded random polynomials, ``sum`` evaluates fractional and
downsampled sums of a user polynomial, ``downsample`` runs the correction
error study on a CSV signal, and ``accelerate`` runs the series-acceleration
demos.

Each subcommand's options are declared once, as data, in ``SUBCOMMANDS``:
per long flag, the keywords ``argparse`` takes (action, dest, type,
required, default, choices, metavar, help).  Two readers share that table.
``_read_argv`` turns a well-formed argv (a known subcommand, then exact
long flags with their values) into the namespace argparse would return,
without building a parser.  Everything else, such as help, usage errors,
abbreviations, ``--`` and separate values that start with ``-`` but are not
negative numbers (``-7/3``, ``-.5``), goes to the parser of ``build_parser``,
so argparse remains the only source of usage messages.

Exit codes: 0 success, 1 a verification found a nonzero residual, 2 bad
input (unknown flags, malformed or non-finite numbers, unreadable files,
violated preconditions, arithmetic overflow).  Output for a fixed seed is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import random
import re
import sys
from collections.abc import Sequence
from itertools import tee
from math import factorial

from .errors import DownsumError
from .exact import Polynomial, _ratio, format_rational, parse_rational
from .family import _values_at, correction_family
from .sumcalc import downsampled_sum, random_polynomial, step_identity_residuals
from .timeseries import (
    error_report,
    euler_mascheroni,
    euler_transform,
    load_series,
    load_terms,
)

DEFAULT_X_GRID = "-2,-1,-1/2,1/3,1/2,1,2,3"

#: A word that both readers take as a value, not a flag: no flag starts with "-" and a digit.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _print_aligned(rows: Sequence[Sequence[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _run_coeffs(args: argparse.Namespace) -> int:
    if args.max_order < 0:
        raise ValueError("--max-order must be >= 0")
    label = "F_r*" if args.star else "F_r"
    as_csv = args.format == "csv"
    orders = range(args.max_order + 1)
    if args.eval_at is not None:
        point = parse_rational(args.eval_at)
        q = point.denominator
        values, den = _values_at(args.max_order, point.numerator, q, args.star)
        header = ["r", "value" if as_csv else f"{label}({format_rational(point)})"]
        rows = [[str(r), _ratio(values[r], den * q**r)] for r in orders]
    else:
        family = correction_family(args.max_order)
        if as_csv:
            header = ["r", "F_r_coeffs", "F_r_star_coeffs", "B_r", "G_r"]
            polys = [[family.weights[r].text(), family.unit_weights[r].text()] for r in orders]
        else:
            header = ["r", f"{label}(x)", "B_r", "G_r"]
            chosen = family.unit_weights if args.star else family.weights
            polys = [[chosen[r].pretty(var="x")] for r in orders]
        # B_r and G_r are w_r's x^0 and top coefficients, the latter over r!.
        rows = [
            [str(r), *polys[r], _ratio(w._num[0], w._den), _ratio(w._num[-1], w._den * factorial(r))]
            for r, w in enumerate(family.weights)
        ]
    if as_csv:
        csv.writer(sys.stdout, lineterminator="\n").writerows([header, *rows])
    else:
        _print_aligned([header, *rows])
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
    steps = [format_rational(x) for x in grid]
    print(f"x-grid: {','.join(steps)}")
    # Two readers of the same draws: tee holds a trial until both have read it.
    fs, draws = tee(random_polynomial(rng, args.degree) for _ in range(args.trials))
    residual_lists = step_identity_residuals(
        draws, grid + [0, 2] if args.classical else grid, family, terms=args.degree + 1
    )
    clean_trials = 0
    for i, (f, residuals) in enumerate(zip(fs, residual_lists)):
        checks = [
            (f"x={step}", {"step-weight residual": step_form, "unit-weight residual": unit_form})
            for step, (step_form, unit_form) in zip(steps, residuals)
        ]
        if args.classical:
            # At x = 0 the two identities are Euler–Maclaurin and Gregory; at x = 2
            # the unit one is Euler's alternating form.
            forms = zip(("euler-maclaurin", "gregory", "alternating"), (*residuals[-2], residuals[-1][1]))
            checks += [(name, {"residual": r}) for name, r in forms]
        trial_ok = True
        for label, fields in checks:
            failed = [(name, r) for name, r in fields.items() if not r.is_zero]
            print(f"trial {i:03d} {label}: {'FAIL' if failed else 'pass'}")
            if failed:
                trial_ok = False
                print(f"  f = {f.text()}")
                for name, r in failed:
                    print(f"  {name} = {r.text()}")
        clean_trials += trial_ok
    print(f"{clean_trials}/{args.trials} passed")
    return 0 if clean_trials == args.trials else 1


def _run_sum(args: argparse.Namespace) -> int:
    f = Polynomial.from_text(args.poly)
    n = parse_rational(args.n)
    x = 1 if args.downsample_x is None else parse_rational(args.downsample_x)
    print(format_rational(downsampled_sum(f, x)(n)))
    return 0


def _run_downsample(args: argparse.Namespace) -> int:
    series = load_series(args.input, args.col, args.header)
    factors = [int(part) for part in args.factors.split(",")]
    rows = error_report(series, args.t0, args.window, factors, args.max_order)
    with open(args.output, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x", "R", "err"])
        for x, order, err in rows:
            writer.writerow([x, order, f"{err:.9g}"])
    return 0


def _run_accelerate(args: argparse.Namespace) -> int:
    if args.terms_file is not None and args.target is not None:
        raise ValueError("--terms-file and --target are mutually exclusive")
    if args.terms_file is None and args.target is None:
        raise ValueError("choose --target gamma, --target ln2, or --terms-file")
    mode = "--terms-file" if args.terms_file is not None else f"--target {args.target}"
    count, other = ("terms", "order") if args.target == "gamma" else ("order", "terms")
    if getattr(args, count) is None:
        raise ValueError(f"{mode} requires --{count}")
    if getattr(args, other) is not None:
        raise ValueError(f"{mode} takes --{count}, not --{other}")
    if args.target == "gamma":
        value = euler_mascheroni(args.terms)
    elif args.target == "ln2":
        value = euler_transform([1.0 / (k + 1) for k in range(args.order + 1)], args.order)
    else:
        value = euler_transform(load_terms(args.terms_file), args.order)
    print(f"{value:.12g}")
    return 0


#: Subcommand -> (help, handler, {long flag: argparse keywords}), in --help
#: order.  _read_argv understands the keywords used here and no others.
SUBCOMMANDS = {
    "coeffs": ("print the correction-weight polynomials and constants", _run_coeffs, {
        "--max-order": {"type": int, "required": True, "metavar": "R"},
        "--star": {"action": "store_true",
                   "help": "show the reversed (unit-difference) family instead"},
        "--eval": {"dest": "eval_at", "metavar": "p/q",
                   "help": "print values at this point instead of coefficient lists"},
        "--format": {"choices": ("table", "csv"), "default": "table"},
    }),
    "verify": ("check the summation identities on random polynomials", _run_verify, {
        "--degree": {"type": int, "required": True, "metavar": "D"},
        "--trials": {"type": int, "required": True, "metavar": "T"},
        "--seed": {"type": int, "required": True, "metavar": "S"},
        "--x-grid": {"default": DEFAULT_X_GRID, "metavar": "LIST"},
        "--classical": {"action": "store_true",
                        "help": "also check the derivative, quadrature, and alternating forms"},
    }),
    "sum": ("evaluate the fractional (or downsampled) sum of a polynomial", _run_sum, {
        "--poly": {"required": True, "metavar": "c0,c1,..."},
        "--n": {"required": True, "metavar": "p/q"},
        "--downsample-x": {"metavar": "p/q"},
    }),
    "downsample": ("error study of corrected downsampled sums on a CSV column", _run_downsample, {
        "--input": {"required": True, "metavar": "FILE"},
        "--col": {"type": int, "required": True, "metavar": "K"},
        "--header": {"action": "store_true"},
        "--window": {"type": int, "required": True, "metavar": "N"},
        "--factors": {"required": True, "metavar": "LIST"},
        "--max-order": {"type": int, "required": True, "metavar": "R"},
        "--t0": {"type": int, "default": 0, "metavar": "T"},
        "--output": {"required": True, "metavar": "FILE"},
    }),
    "accelerate": ("series acceleration demos", _run_accelerate, {
        "--target": {"choices": ("gamma", "ln2")},
        "--terms": {"type": int, "metavar": "N"},
        "--order": {"type": int, "metavar": "R"},
        "--terms-file": {"metavar": "FILE"},
    }),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``SUBCOMMANDS``.

    main builds it only for an argv that _read_argv declines: help, usage
    errors and the forms the reader leaves to argparse.
    """
    parser = argparse.ArgumentParser(
        prog="downsum",
        description="Exact summation-correction weights and their applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        subparser._negative_number_matcher = _NEGATIVE_NUMBER  # "-7/3", not only "-7" and "-.5"
        for flag, keywords in options.items():
            subparser.add_argument(flag, **keywords)
        subparser.set_defaults(handler=handler)
    return parser


def _read_argv(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, or None.

    Reads only a known subcommand followed by exact long flags of it: a
    store flag as ``--flag=value`` or as ``--flag value``, a store_true
    flag bare.  A repeated flag keeps its last value.  Returns None, leaving
    the argv to argparse, for any other token, a separate value token that
    starts with ``-`` and does not match _NEGATIVE_NUMBER (argparse may read
    it as a flag; after ``=`` it reads it as the value), a value its type or
    choices reject, and a missing required flag.
    """
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    _, handler, options = SUBCOMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, text = token.partition("=")
        keywords = options.get(flag)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            if equals:
                return None
            given[flag] = True
            continue
        if not equals:
            text = next(tokens, None)
            if text is None or text.startswith("-") and not _NEGATIVE_NUMBER.match(text):
                return None
        try:
            value = keywords.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    if any(keywords.get("required") and flag not in given for flag, keywords in options.items()):
        return None
    args = argparse.Namespace(command=argv[0])
    for flag, keywords in options.items():
        default = False if keywords.get("action") == "store_true" else keywords.get("default")
        setattr(args, keywords.get("dest", flag[2:].replace("-", "_")), given.get(flag, default))
    args.handler = handler
    return args


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
