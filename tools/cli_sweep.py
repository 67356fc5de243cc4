"""Byte-identity sweep of the downsum CLI.

Runs a fixed list of argvs in-process through ``downsum.cli.main``, with
stdout and stderr captured, and prints one line per argv: the exit code,
the sha256 of stdout, of stderr and of the file ``downsample`` wrote (``-``
when there is none), then the argv.  The list covers every subcommand and
flag, the ``--help`` texts, each error class and exit code, and
``downsample`` on a plain, a quoted and a ragged CSV that the sweep writes
into a temporary directory.  It runs from inside that directory, so every
path in an argv or a message is relative and the output does not depend on
where the directory is.

Usage: run it against two trees and compare.

    git worktree add ../parent HEAD~1
    PYTHONPATH=../parent/src python tools/cli_sweep.py > before.txt
    PYTHONPATH=src python tools/cli_sweep.py > after.txt
    diff before.txt after.txt

Standard library only.
"""

import contextlib
import hashlib
import io
import itertools
import math
import os
import shlex
import sys
import tempfile

from downsum.cli import main

OUTPUT = "out.csv"


def _write_files():
    """The CSV signals and the term files the argvs read."""
    rows = [(t, math.exp(-(((t - 25) / 25) ** 2)), math.sin(t / 7)) for t in range(121)]
    with open("plain.csv", "w") as handle:
        handle.writelines(f"{t},{a!r},{b!r}\n" for t, a, b in rows)
    with open("quoted.csv", "w") as handle:
        handle.write('"t","bump","wave"\n')
        handle.writelines(f'"{t}","{a!r}",{b!r}\n' for t, a, b in rows)
    with open("ragged.csv", "w") as handle:
        handle.writelines(f"{t},{a!r},{b!r}\n" for t, a, b in rows[:60])
        handle.write("60,0.5\n")
        handle.writelines(f"{t},{a!r},{b!r}\n" for t, a, b in rows[61:])
    with open("nonfinite.csv", "w") as handle:
        handle.writelines(f"{t},{'nan' if t == 30 else a!r},{b!r}\n" for t, a, b in rows)
    with open("empty.csv", "w") as handle:
        handle.write("t,v\n")
    with open("terms.txt", "w") as handle:
        handle.writelines(f"{1.0 / (k + 1)!r}\n" for k in range(31))
    with open("bad_terms.txt", "w") as handle:
        handle.write("1, 0.5\n0.25 inf\n")
    with open("huge_terms.txt", "w") as handle:
        handle.write("1e308 -1e308 1e308\n")
    with open("overflow_terms.txt", "w") as handle:
        handle.write("1.7e308 -1.7e308 1.7e308 -1.7e308\n")


def _options(**choices):
    """Every combination of the given flag values; None leaves a flag out, True is bare."""
    names = list(choices)
    for values in itertools.product(*choices.values()):
        argv = []
        for name, value in zip(names, values):
            flag = "--" + name.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif value is not None:
                argv += [flag, value]
        yield argv


def argvs():
    """The fixed argv list, in a fixed order."""
    yield from [[], ["--help"], ["-h"], ["frobnicate"], ["--max-order", "3"]]
    for command in ("coeffs", "verify", "sum", "downsample", "accelerate"):
        yield [command, "--help"]
        yield [command, "--bogus"]
        yield [command]
    for options in _options(
        max_order=["-1", "0", "1", "5", "12", "40", "x"],
        star=[None, True],
        eval=[None, "1/3", "-2/5", "0", "7/2", "abc", "1/0"],
        format=[None, "table", "csv", "json"],
    ):
        yield ["coeffs", *options]
    # High orders, where the denominators and the numerators are largest.
    for order, form in itertools.product(("120", "200"), ([], ["--star"], ["--format", "csv"])):
        yield ["coeffs", "--max-order", order, *form]
    for point, star in itertools.product(("1/7", "-3", "2", "9/4"), ([], ["--star"])):
        yield ["coeffs", "--max-order", "200", f"--eval={point}", *star]
    for options in _options(
        degree=["-1", "0", "3", "6"],
        trials=["0", "1", "3"],
        seed=["0", "42"],
        x_grid=[None, "1/2,2", "-3,1/5", "0,1", "a"],
        classical=[None, True],
    ):
        yield ["verify", *options]
    # Grids that repeat a step or write it unreduced.
    for grid, classical in itertools.product(
        (["--x-grid", "1/2,2/4,2"], ["--x-grid=2,2"]), ([], ["--classical"])
    ):
        yield ["verify", "--degree", "4", "--trials", "2", "--seed", "7", *grid, *classical]
    # Many trials share each step's weight row.  At seed 195 a later trial of the
    # first five draws a lower degree at each of these degrees (zero at degree 0).
    for degree, trials, seed, classical in itertools.product(
        ("0", "5", "10"), ("5", "20"), ("42", "195"), ([], ["--classical"])
    ):
        yield ["verify", "--degree", degree, "--trials", trials, "--seed", seed, *classical]
    for classical in ([], ["--classical"]):
        yield ["verify", "--degree", "6", "--trials", "5", "--seed", "195",
               "--x-grid=1/2,2/4,2,-3,-3", *classical]
    # Integer scaling of the residual n rows: degrees 0 and 20, a huge, a
    # negative and an unreduced step, and a step past the float range.
    for degree, grid, classical in itertools.product(
        ("0", "20"),
        ([], ["--x-grid=123456789012345678901234567890/7,-13/11,2/4"], ["--x-grid=1e400"]),
        ([], ["--classical"]),
    ):
        yield ["verify", "--degree", degree, "--trials", "3", "--seed", "11", *grid, *classical]
    # Long runs, which print each trial as it is solved, and a degree-12 run on
    # a grid with a decimal step.
    for classical in ([], ["--classical"]):
        yield ["verify", "--degree", "3", "--trials", "300", "--seed", "5", *classical]
    yield ["verify", "--degree", "12", "--trials", "40", "--seed", "77",
           "--x-grid=-5/3,0.25,7", "--classical"]
    for options in _options(
        poly=["1", "0,1", "1,2,3", "1/2,-1/3,0,5", "", "a", "1e5000"],
        n=["10", "7/2", "-3", "0", "x", "1e5000"],
        downsample_x=[None, "2", "1/3", "-1", "0", "y"],
    ):
        yield ["sum", *options]
    for poly, n, x in itertools.product(
        ("1,2,3", "1/2,-1/3,0,5,0,0,7", "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1"),
        ("10", "-7/3", "98765432109876543210/3"),
        ("123456789012345678901234567890/7", "-13/11", "2/4", "1e400", "-1e-30"),
    ):
        yield ["sum", f"--poly={poly}", f"--n={n}", f"--downsample-x={x}"]
    for options in _options(
        input=["plain.csv", "quoted.csv", "ragged.csv", "nonfinite.csv", "empty.csv", "missing.csv"],
        col=["0", "1", "2", "-1", "5"],
        header=[None, True],
        window=["12", "60", "0", "500"],
        factors=["2", "3,2", "0", "x"],
        max_order=["0", "3", "-1"],
    ):
        yield ["downsample", *options, "--output", OUTPUT]
    for t0 in ("-1", "0", "7", "100"):
        yield ["downsample", "--input", "plain.csv", "--col", "1", "--window", "20",
               "--factors", "2,4", "--max-order", "4", "--t0", t0, "--output", OUTPUT]
    yield ["downsample", "--input", "plain.csv", "--col", "1", "--window", "20",
           "--factors", "2", "--max-order", "2", "--output", "missing/out.csv"]
    for options in _options(
        target=[None, "gamma", "ln2", "pi"],
        terms=[None, "0", "7", "-1"],
        order=[None, "0", "2", "7", "-1"],
        terms_file=[None, "terms.txt", "bad_terms.txt", "huge_terms.txt", "missing.txt"],
    ):
        yield ["accelerate", *options]
    # High orders, past 1022 where 2.0 ** (order + 1) overflows, every term of
    # terms.txt, and a transform that leaves the float range.
    for order in ("600", "1100"):
        yield ["accelerate", "--target", "ln2", "--order", order]
    yield ["accelerate", "--terms-file", "terms.txt", "--order", "30"]
    yield ["accelerate", "--terms-file", "overflow_terms.txt", "--order", "3"]
    # Spellings the fast reader leaves to argparse, and the ones it reads itself.
    yield from [
        ["coeffs", "--max-order=3"],
        ["coeffs", "--max-order", "3", "--max-order", "4"],
        ["coeffs", "--max", "3"],
        ["coeffs", "--max-order", "3", "--star=1"],
        ["coeffs", "--", "--max-order", "3"],
        ["coeffs", "--max-order", "-3"],
        ["coeffs", "--max-order=-3"],
        ["coeffs", "--max-order", "3", "extra"],
        ["sum", "--poly", "-1,2", "--n", "3"],
        ["sum", "--poly=-1,2", "--n=-3"],
        # argparse reads a separate negative fraction as a flag (exit 2); joined with = it is a value.
        ["sum", "--poly", "1,2", "--n", "-7/3"],
        ["sum", "--poly", "1,2", "--n=-7/3"],
        ["sum", "--poly", "1,2", "--n", "10", "--downsample-x", "-13/11"],
        ["sum", "--poly", "1,2", "--n", "10", "--downsample-x=-13/11"],
        ["verify", "--degree", "2", "--trials", "1", "--seed", "1", "--x-grid=-1/2,2"],
        ["accelerate", "--target=gamma", "--terms=9"],
        ["accelerate", "--target", "ln2", "--order", "5", "7"],
        ["accelerate", "--target", "gamma", "--terms", "7", "--target", "pi"],
        ["accelerate", "--targ", "gamma", "--terms", "7"],
        ["accelerate", "--terms", "1.5"],
    ]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def sweep():
    """Print one line per argv; returns the number of argvs run."""
    count = 0
    for argv in argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except BaseException as exc:  # a traceback is a difference too
                code = f"raised:{type(exc).__name__}"
        written = "-"
        if os.path.exists(OUTPUT):
            with open(OUTPUT, "rb") as handle:
                written = _sha(handle.read())
            os.remove(OUTPUT)
        print(code, _sha(out.getvalue().encode()), _sha(err.getvalue().encode()), written,
              shlex.join(argv))
        count += 1
    return count


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # argparse wraps --help and usage text to this width
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            _write_files()
            total = sweep()
        finally:
            os.chdir(home)
    print(f"# {total} argvs", file=sys.stderr)
