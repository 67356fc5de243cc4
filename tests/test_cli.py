"""End-to-end tests of the command-line interface.

Everything goes through cli.main(argv) so exit codes and output can be
asserted without spawning subprocesses.
"""

import contextlib
import csv
import importlib.util
import io
import itertools
import math
import random
import re
import shlex
import sys
import time
from fractions import Fraction as Fr
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import downsum.cli
import downsum.sumcalc
import downsum.timeseries
from downsum import correction_family, random_polynomial
from downsum.cli import SUBCOMMANDS, _read_argv, build_parser, main

from . import oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def str_without_digit_limit(values):
    """str() of each value with the int->str digit limit lifted, then restored."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)


def write_bump_csv(path, header=False):
    with open(path, "w") as handle:
        if header:
            handle.write("t,v\n")
        for t in range(121):
            handle.write(f"{t},{math.exp(-(((t - 25) / 25) ** 2))}\n")


def write_signal_csv(path):
    """5000 rows of three slow sinusoids, a Gaussian bump and an offset."""
    with open(path, "w") as handle:
        handle.write("t,v\n")
        for t in range(5000):
            value = (
                0.3
                + 0.7 * math.sin(2 * math.pi * t / 2200 + 0.4)
                + 0.4 * math.sin(2 * math.pi * t / 900 + 2.1)
                + 0.25 * math.sin(2 * math.pi * t / 410 + 5.0)
                + 1.3 * math.exp(-(((t - 2600) / 350) ** 2))
            )
            handle.write(f"{t},{value!r}\n")


# Recorded err CSVs of the acceptance bump study and of one signal window.  The
# float operations behind them run in a fixed order, so the bytes must not move.
BUMP_ERR_CSV = """\
x,R,err
2,0,0.102207895
2,1,0.0113026154
2,2,4.4691973e-05
2,3,2.13122216e-05
2,4,6.31833773e-06
3,0,0.196878093
3,1,0.0301429273
3,2,0.000201213765
3,3,0.000149986558
3,4,5.94304533e-05
4,0,0.284006739
4,1,0.0565247914
4,2,0.000565195104
4,3,0.000574484374
4,4,0.000259293526
5,0,0.363588585
5,1,0.0904534551
5,2,0.00126678975
5,3,0.00162159345
5,4,0.000750569545
"""
SIGNAL_ERR_CSV = """\
x,R,err
2,0,1.36583364
2,1,0.0024455267
2,2,2.12552253e-05
2,3,4.57225383e-07
2,4,5.98163297e-09
2,5,2.12594387e-10
2,6,4.43378667e-12
3,0,2.7332977
3,1,0.00652148456
3,2,8.44948054e-05
3,3,2.78394191e-06
3,4,5.30928901e-08
3,5,3.0014462e-09
3,6,6.17319529e-11
5,0,5.47311766
5,1,0.0195652221
5,2,0.000417130414
5,3,2.36165665e-05
5,4,6.97311179e-07
5,5,7.2319267e-08
5,6,2.06284767e-09
8,0,9.5950804
8,1,0.0513636257
8,2,0.00171780274
8,3,0.000162047342
8,4,6.75185174e-06
8,5,1.29301532e-06
8,6,4.45314754e-08
"""

# Recorded stdout of `accelerate --target gamma` and `coeffs --max-order 40
# --format csv`.  Both print exact Bernoulli and Gregory numbers (the first
# as a float sum of them), so the bytes must not move when their
# construction does.
GAMMA_STDOUT = {
    0: "0\n",
    1: "0.5\n",
    2: "0.541666666667\n",
    100: "0.576984757968\n",
    157: "0.577085325062\n",
    220: "0.577130398822\n",
}
COEFFS_40_CSV = Path(__file__).parent / "data" / "coeffs_max_order_40.csv"
COEFFS_40_TABLE = Path(__file__).parent / "data" / "coeffs_max_order_40.txt"
# Each "$ downsum <argv>" line is followed by that verify run's stdout.
VERIFY_CLASSICAL = Path(__file__).parent / "data" / "verify_classical.txt"
VERIFY_FAIL = Path(__file__).parent / "data" / "verify_fail.txt"


class TestCoeffs:
    def test_csv_bytes(self, capsys):
        code, out, err = run(capsys, "coeffs", "--max-order", "40", "--format", "csv")
        assert (code, err) == (0, "")
        assert out.encode() == COEFFS_40_CSV.read_bytes()

    def test_table_bytes(self, capsys):
        code, out, err = run(capsys, "coeffs", "--max-order", "40")
        assert (code, err) == (0, "")
        assert out.encode() == COEFFS_40_TABLE.read_bytes()

    def test_table(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--max-order", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["r", "F_r(x)", "B_r", "G_r"]
        assert "1/4*x^3 - 1/4*x" in out
        assert len(lines) == 5

    def test_star_table(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--max-order", "3", "--star")
        assert code == 0
        assert "F_r*(x)" in out
        assert "-1/4*x^2 + 1/4" in out

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--max-order", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["r", "F_r_coeffs", "F_r_star_coeffs", "B_r", "G_r"]
        assert rows[2] == ["1", "-1/2,1/2", "1/2,-1/2", "-1/2", "1/2"]
        assert rows[3] == ["2", "1/6,0,-1/6", "-1/6,0,1/6", "1/6", "-1/12"]

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--max-order", "2", "--eval", "1/2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["r", "F_r(1/2)"]
        assert lines[1].split() == ["0", "1"]
        assert lines[2].split() == ["1", "-1/4"]
        assert lines[3].split() == ["2", "1/8"]

    def test_eval_csv(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", "--max-order", "1", "--eval", "0", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["r", "value"], ["0", "1"], ["1", "-1/2"]]

    def test_eval_past_int_str_digit_limit(self, capsys):
        # F_3(1/q) for a 1500-digit q has a 4500-digit denominator.
        q = "7" * 1500
        code, out, _ = run(capsys, "coeffs", "--max-order", "3", "--eval", "1/" + q)
        assert code == 0
        x = Fr(1, int(q))
        closed_forms = [Fr(1), (x - 1) / 2, -(x**2 - 1) / 6, (x**3 - x) / 4]
        expected = [["r", f"F_r(1/{q})"]] + [
            [str(r), text] for r, text in enumerate(str_without_digit_limit(closed_forms))
        ]
        assert [line.split() for line in out.splitlines()] == expected

    def test_negative_order(self, capsys):
        code, _, err = run(capsys, "coeffs", "--max-order", "-2")
        assert code == 2
        assert "ValueError" in err

    def test_bad_eval_point(self, capsys):
        code, _, err = run(capsys, "coeffs", "--max-order", "2", "--eval", "zzz")
        assert code == 2
        assert "ValueError" in err


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--degree", "4", "--trials", "3", "--seed", "11"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "seed: 11"
        assert lines[1].startswith("x-grid: ")
        assert lines[-1] == "3/3 passed"
        assert sum(1 for line in lines if ": pass" in line) == 3 * 8

    def test_classical_bytes(self, capsys):
        expected = VERIFY_CLASSICAL.read_text()
        argvs = [shlex.split(line[len("$ downsum "):]) for line in expected.splitlines() if line.startswith("$ ")]
        assert len(argvs) >= 20
        produced = []
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            produced.append(f"$ downsum {shlex.join(argv)}\n{out}")
        assert "".join(produced).encode() == VERIFY_CLASSICAL.read_bytes()

    def test_classical_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--degree", "3", "--trials", "2", "--seed", "5", "--classical",
        )
        assert code == 0
        assert "euler-maclaurin: pass" in out
        assert "gregory: pass" in out
        assert "alternating: pass" in out
        assert out.splitlines()[-1] == "2/2 passed"

    def test_custom_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--degree", "2", "--trials", "1", "--seed", "1",
            "--x-grid", "2,-1/2",
        )
        assert code == 0
        assert "x-grid: 2,-1/2" in out
        assert "x=2: pass" in out and "x=-1/2: pass" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run(
            capsys, "verify", "--degree", "5", "--trials", "4", "--seed", "123"
        )
        _, second, _ = run(
            capsys, "verify", "--degree", "5", "--trials", "4", "--seed", "123"
        )
        assert first == second

    def test_zero_in_grid_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "verify", "--degree", "2", "--trials", "1", "--seed", "1",
            "--x-grid", "0,1",
        )
        assert code == 2
        assert "ValueError" in err

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "verify", "--degree", "2", "--trials", "1")
        assert code == 2

    def test_each_trial_is_drawn_as_it_is_solved(self, capsys, monkeypatch):
        """verify holds no list of its trials: trial i is drawn after trial
        i - 1 has printed, so its memory stays flat in --trials."""
        printed_before_draw = []

        def drawing(rng, degree):
            printed_before_draw.append(capsys.readouterr().out)
            return random_polynomial(rng, degree)

        monkeypatch.setattr(downsum.cli, "random_polynomial", drawing)
        code, out, _ = run(capsys, "verify", "--degree", "3", "--trials", "4", "--seed", "1")
        assert (code, out.splitlines()[-1]) == (0, "4/4 passed")
        assert printed_before_draw[0].startswith("seed: 1\nx-grid: ")
        for i, text in enumerate(printed_before_draw[1:]):
            lines = text.splitlines()
            assert len(lines) == 8 and all(line.startswith(f"trial {i:03d} x=") for line in lines), i

    def test_each_step_is_solved_once_per_request(self, capsys, monkeypatch):
        """Each distinct step gets one build of its two n rows per request.

        Default grid with --classical: the grid's steps, then 0 for
        Euler–Maclaurin and Gregory; the alternating form reads the n rows
        of 2, already built.  With the grid 1/2,2/4,2 and --classical: 1/2
        (also written 2/4), 2 and 0.  Nothing is built per trial.
        """
        n_rows = []

        def counting_n_rows(family, a, b, *tables):
            n_rows.append(Fr(a, b))
            return residual_rows(family, a, b, *tables)

        residual_rows = downsum.sumcalc._residual_rows
        monkeypatch.setattr(downsum.sumcalc, "_residual_rows", counting_n_rows)
        verify = ["verify", "--degree", "6", "--trials", "3", "--seed", "1", "--classical"]
        for grid, expected in (
            ([], [-2, -1, Fr(-1, 2), Fr(1, 3), Fr(1, 2), 1, 2, 3, 0]),
            (["--x-grid=1/2,2/4,2"], [Fr(1, 2), 2, 0]),
        ):
            n_rows.clear()
            code, out, _ = run(capsys, *verify, *grid)
            assert code == 0
            assert out.endswith("3/3 passed\n")
            assert n_rows == expected, grid


def _text_coeffs(text):
    """The ascending coefficients of a polynomial printed by the CLI."""
    return [Fr(c) for c in text.split(",")]


def _verify_report(out):
    """{(trial, label): (verdict, {field: coefficients})} read off verify's stdout."""
    report = {}
    for line in out.splitlines():
        if line.startswith("trial "):
            head, verdict = line.rsplit(": ", 1)
            _, trial, label = head.split(" ", 2)
            fields = {}
            report[int(trial), label] = verdict, fields
        elif line.startswith("  "):
            name, text = line.strip().split(" = ")
            fields[name] = _text_coeffs(text)
    return report


class TestVerifyFailure:
    """A corrupted weight family must make verify fail and print its residual.

    The family is perturbed by delta * x^m in weights[r] and in unit_weights[r];
    oracle.perturbed_residuals gives the exact residuals that leaves.  The
    three trials at SEED draw degrees 5, 3 and 5, so the second reads a
    shorter prefix of each weight row and the third the whole row again; at
    r = 4 and 5 every span of the degree-3 trial vanishes and it passes.
    """

    M, DELTA = 1, Fr(3, 7)
    # Negative numerators and denominators != 1 exercise the sign of a^(r-1)
    # and the powers of b in the integer weight coefficients.
    GRID = (Fr(-2, 3), Fr(5, 2), Fr(-3))
    SEED, TRIALS, DEGREE = 449, 3, 5

    @pytest.fixture
    def corrupt(self, monkeypatch, perturbed_family):
        def install(r, m, delta):
            def perturbed(max_order):
                family = correction_family(max_order)
                return perturbed_family(family, {r: (m, delta)}) if r <= max_order else family

            monkeypatch.setattr(downsum.cli, "correction_family", perturbed)
            monkeypatch.setattr(downsum.sumcalc, "correction_family", perturbed)

        return install

    def trials(self):
        """The polynomials verify draws: random_polynomial in turn on one seeded rng."""
        rng = random.Random(self.SEED)
        fs = [list(random_polynomial(rng, self.DEGREE).coeffs) for _ in range(self.TRIALS)]
        assert [len(f) - 1 for f in fs] == [5, 3, 5]
        return fs

    def check(self, code, out, expected):
        """expected holds each trial's f and its (label, {field: residual}) rows.

        A row passes when every residual is zero; otherwise it prints f and
        each nonzero residual.
        """
        report = _verify_report(out)
        clean = 0
        for trial, (f, rows) in enumerate(expected):
            trial_ok = True
            for label, residuals in rows:
                fields = {name: value for name, value in residuals.items() if value}
                if fields:
                    trial_ok = False
                    fields["f"] = f
                verdict = "FAIL" if fields else "pass"
                assert report.pop((trial, label)) == (verdict, fields), (trial, label)
            clean += trial_ok
        assert report == {}
        assert out.splitlines()[-1] == f"{clean}/{self.TRIALS} passed"
        assert code == (0 if clean == self.TRIALS else 1)

    def test_prints_exact_residuals(self, capsys, corrupt):
        m, delta = self.M, self.DELTA
        fs = self.trials()
        for r in range(2, 6):  # odd and even powers x^(r-1)
            corrupt(r, m, delta)
            code, out, _ = run(
                capsys, "verify", "--degree", str(self.DEGREE), "--trials", str(self.TRIALS),
                "--seed", str(self.SEED), "--x-grid=" + ",".join(str(x) for x in self.GRID),
            )
            expected = []
            for f in fs:
                rows = []
                for x in self.GRID:
                    step, unit = oracle.perturbed_residuals(f, x, {r: (m, delta)})
                    rows.append((f"x={x}", {"step-weight residual": step, "unit-weight residual": unit}))
                expected.append((f, rows))
            self.check(code, out, expected)
            # The degree-3 trial fails exactly while r - 1 < 3 leaves a span.
            assert (_verify_report(out)[1, f"x={self.GRID[0]}"][0] == "pass") == (r >= 4), r

    def test_failing_report_bytes(self, capsys, corrupt):
        """Every byte of two failing runs, so the order of the lines is pinned too.

        With weights[2] off by delta * x both forms fail at each grid step;
        off by delta, B_2 and G_2 move as well, and all three classical
        lines fail beside the x = 2 step.
        """
        common = ["verify", "--degree", str(self.DEGREE), "--trials", str(self.TRIALS),
                  "--seed", str(self.SEED)]
        runs = (
            (1, [*common, "--x-grid=" + ",".join(str(x) for x in self.GRID)]),
            (0, [*common, "--x-grid", "2", "--classical"]),
        )
        produced = []
        for m, argv in runs:
            corrupt(2, m, self.DELTA)
            code, out, err = run(capsys, *argv)
            assert (code, err) == (1, "")
            produced.append(f"$ downsum {shlex.join(argv)}\n{out}")
        assert "".join(produced).encode() == VERIFY_FAIL.read_bytes()

    def test_corrupted_constants_fail_classical(self, capsys, corrupt):
        # m = 0 moves B_r = weights[r](0) and G_r = unit_weights[r](0)/r!; m = 1
        # leaves both and still moves u_r(2), the alternating form's weight.
        delta = self.DELTA
        fs = self.trials()
        for r, m in itertools.product(range(2, 6), (0, 1)):
            corrupt(r, m, delta)
            code, out, _ = run(
                capsys, "verify", "--degree", str(self.DEGREE), "--trials", str(self.TRIALS),
                "--seed", str(self.SEED), "--x-grid", "2", "--classical",
            )
            expected = []
            for f in fs:
                at_zero = oracle.perturbed_residuals(f, 0, {r: (m, delta)})
                at_two = oracle.perturbed_residuals(f, 2, {r: (m, delta)})
                expected.append((f, [
                    ("x=2", {"step-weight residual": at_two[0], "unit-weight residual": at_two[1]}),
                    ("euler-maclaurin", {"residual": at_zero[0]}),
                    ("gregory", {"residual": at_zero[1]}),
                    ("alternating", {"residual": at_two[1]}),
                ]))
            self.check(code, out, expected)
            verdict = "FAIL" if m == 0 else "pass"
            assert f"trial 000 euler-maclaurin: {verdict}" in out, (r, m)
            assert f"trial 000 gregory: {verdict}" in out, (r, m)
            assert "trial 000 alternating: FAIL" in out, (r, m)


class TestSum:
    def test_fractional(self, capsys):
        code, out, _ = run(capsys, "sum", "--poly", "0,1", "--n", "1/2")
        assert code == 0
        assert out.strip() == "-1/8"

    def test_downsampled(self, capsys):
        code, out, _ = run(
            capsys, "sum", "--poly", "0,1", "--n", "6", "--downsample-x", "2"
        )
        assert code == 0
        assert out.strip() == "12"

    def test_integer_window(self, capsys):
        code, out, _ = run(capsys, "sum", "--poly", "0,0,1", "--n", "3")
        assert code == 0
        assert out.strip() == "5"

    def test_result_past_int_str_digit_limit(self, capsys):
        # sum_{k<n} k = n(n-1)/2 has 4400 digits for n = 10^2200.
        n = "1" + "0" * 2200
        code, out, _ = run(capsys, "sum", "--poly", "0,1", "--n", n)
        assert code == 0
        assert out == str_without_digit_limit([int(n) * (int(n) - 1) // 2])[0] + "\n"

    def test_malformed_poly(self, capsys):
        code, _, err = run(capsys, "sum", "--poly", "0,one", "--n", "2")
        assert code == 2
        assert "ValueError" in err

    def test_zero_downsample_factor(self, capsys):
        code, _, err = run(
            capsys, "sum", "--poly", "0,1", "--n", "2", "--downsample-x", "0"
        )
        assert code == 2
        assert err == (
            "downsum: ValueError: downsampling step must be nonzero "
            "(the 0 limit is the derivative form)\n"
        )


class TestDownsample:
    def test_error_study(self, capsys, tmp_path):
        source = tmp_path / "bump.csv"
        target = tmp_path / "errs.csv"
        write_bump_csv(source)
        code, _, _ = run(
            capsys,
            "downsample", "--input", str(source), "--col", "1",
            "--window", "60", "--factors", "2,3", "--max-order", "2",
            "--output", str(target),
        )
        assert code == 0
        with target.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x", "R", "err"]
        assert len(rows) == 1 + 2 * 3
        assert [row[0] for row in rows[1:]] == ["2", "2", "2", "3", "3", "3"]
        for row in rows[1:]:
            assert float(row[2]) >= 0.0

    BUMP_STUDY = (write_bump_csv, ["--window", "60", "--factors", "2,3,4,5", "--max-order", "4"], BUMP_ERR_CSV)
    SIGNAL_STUDY = (
        write_signal_csv,
        ["--header", "--window", "960", "--factors", "8,3,5,2", "--max-order", "6", "--t0", "1717"],
        SIGNAL_ERR_CSV,
    )

    @pytest.mark.parametrize(
        "write, options, expected, layout",
        [
            (*BUMP_STUDY, "plain"),
            (*SIGNAL_STUDY, "plain"),
            (*BUMP_STUDY, "quoted"),
            (*BUMP_STUDY, "crlf"),
            (*SIGNAL_STUDY, "quoted"),
            (*SIGNAL_STUDY, "crlf"),
        ],
        ids=["bump", "signal", "bump-quoted", "bump-crlf", "signal-quoted", "signal-crlf"],
    )
    def test_err_csv_bytes(self, capsys, tmp_path, write, options, expected, layout):
        # Quoted fields and CRLF line ends load through the checked csv.reader
        # loop, plain files through the bulk split; the bytes must agree.
        source = tmp_path / "in.csv"
        target = tmp_path / "errs.csv"
        write(source)
        lines = source.read_text().splitlines()
        if layout == "quoted":
            lines = [",".join(f'"{field}"' for field in line.split(",")) for line in lines]
        source.write_bytes("".join(line + ("\r\n" if layout == "crlf" else "\n") for line in lines).encode())
        code, out, err = run(
            capsys,
            "downsample", "--input", str(source), "--col", "1", *options, "--output", str(target),
        )
        assert (code, out, err) == (0, "", "")
        assert target.read_bytes() == expected.encode()

    def test_header_flag(self, capsys, tmp_path):
        source = tmp_path / "bump.csv"
        target = tmp_path / "errs.csv"
        write_bump_csv(source, header=True)
        code, _, _ = run(
            capsys,
            "downsample", "--input", str(source), "--col", "1", "--header",
            "--window", "30", "--factors", "2", "--max-order", "1",
            "--output", str(target),
        )
        assert code == 0
        with target.open() as handle:
            assert len(list(csv.reader(handle))) == 3

    def test_missing_input(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "downsample", "--input", str(tmp_path / "nope.csv"), "--col", "0",
            "--window", "10", "--factors", "2", "--max-order", "1",
            "--output", str(tmp_path / "out.csv"),
        )
        assert code == 2
        assert "FileNotFoundError" in err

    def test_non_divisible_window(self, capsys, tmp_path):
        source = tmp_path / "bump.csv"
        write_bump_csv(source)
        code, _, err = run(
            capsys,
            "downsample", "--input", str(source), "--col", "1",
            "--window", "61", "--factors", "2", "--max-order", "1",
            "--output", str(tmp_path / "out.csv"),
        )
        assert code == 2
        assert err == "downsum: DownsumError: window 61 is not divisible by factor 2\n"

    @pytest.mark.parametrize(
        "options, built, code, err",
        [
            (["--factors", "5", "--max-order", "13"], [13], 0, ""),
            (
                ["--factors", "5", "--max-order", "200"], [13], 2,
                "DownsumError: order-14 correction at window end 60 needs sample 125, series has 121",
            ),
            (
                ["--factors", "5,2", "--max-order", "400"], [31], 2,
                "DownsumError: order-32 correction at window end 60 needs sample 122, series has 121",
            ),
            (
                ["--factors", "5", "--max-order", "400", "--t0", "59"], [1], 2,
                "DownsumError: order-2 correction at window end 119 needs sample 124, series has 121",
            ),
            (
                ["--factors", "2,0", "--max-order", "300"], [], 2,
                "ValueError: downsampling factor must be a positive integer",
            ),
            (
                ["--window", "-60", "--factors", "5", "--max-order", "400"], [], 2,
                "ValueError: window length must be >= 0",
            ),
            (
                ["--t0", "-1", "--factors", "5", "--max-order", "400"], [], 2,
                "DownsumError: window [-1, 59) exceeds series of length 121",
            ),
            (
                ["--window", "61", "--factors", "2", "--max-order", "400"], [], 2,
                "DownsumError: window 61 is not divisible by factor 2",
            ),
            (
                ["--t0", "62", "--factors", "5", "--max-order", "400"], [], 2,
                "DownsumError: window [62, 122) exceeds series of length 121",
            ),
        ],
        ids=[
            "reachable", "order-200", "order-400-two-factors", "order-400-late-window",
            "zero-factor", "negative-window", "negative-t0", "non-divisible-window",
            "window-past-tail",
        ],
    )
    def test_unreachable_order_fails_fast(self, capsys, tmp_path, monkeypatch, options, built, code, err):
        """Past the series' tail the weights are read only up to the last
        order the series reaches, and the next order's error is what the
        user sees.

        On 121 samples a window [t0, t0+60) at factor x reaches order
        (60 - t0) // x + 1, the largest r with t0 + 60 + (r-1)*x <= 120.  A
        window the smallest factor's sum rejects (a factor < 1, a negative
        or non-divisible length, a window outside the series) fails before
        any weight is read.
        """
        source = tmp_path / "bump.csv"
        write_bump_csv(source)
        orders = []
        values_at = downsum.timeseries._values_at

        def recording(order, *rest):
            orders.append(order)
            return values_at(order, *rest)

        monkeypatch.setattr(downsum.timeseries, "_values_at", recording)
        result = run(
            capsys,
            "downsample", "--input", str(source), "--col", "1", "--window", "60",
            *options, "--output", str(tmp_path / "out.csv"),
        )
        assert orders == built
        assert result == (code, "", f"downsum: {err}\n" if err else "")

    @pytest.mark.parametrize(
        "options",
        [
            ["--window", "-60"],
            ["--t0", "-1"],
            ["--window", "61", "--factors", "2,0"],
            ["--t0", "62", "--factors", "0"],
        ],
    )
    def test_negative_max_order_precedes_window_errors(self, capsys, tmp_path, options):
        source = tmp_path / "bump.csv"
        write_bump_csv(source)
        result = run(
            capsys,
            "downsample", "--input", str(source), "--col", "1", "--window", "60",
            "--factors", "5", "--max-order", "-1", *options,
            "--output", str(tmp_path / "out.csv"),
        )
        assert result == (2, "", "downsum: ValueError: max_order must be >= 0\n")

    def test_non_finite_sample(self, capsys, tmp_path):
        source = tmp_path / "bump.csv"
        target = tmp_path / "errs.csv"
        write_bump_csv(source)
        with source.open("a") as handle:
            handle.write("121,nan\n")
        code, _, err = run(
            capsys,
            "downsample", "--input", str(source), "--col", "1",
            "--window", "60", "--factors", "2", "--max-order", "1",
            "--output", str(target),
        )
        assert code == 2
        assert "ParseError" in err and "row 121" in err
        assert not target.exists()

    def test_over_long_field(self, capsys, tmp_path):
        source = tmp_path / "big.csv"
        target = tmp_path / "o.csv"
        source.write_text(f"0\n{'7' * 200_000}\n2\n")
        code, out, err = run(
            capsys,
            "downsample", "--input", str(source), "--col", "0",
            "--window", "1", "--factors", "1", "--max-order", "0",
            "--output", str(target),
        )
        assert code == 2
        assert out == ""
        assert "ParseError" in err and "row 1" in err
        assert "Traceback" not in err
        assert not target.exists()

    def test_overflowing_samples(self, capsys, tmp_path):
        source = tmp_path / "huge.csv"
        target = tmp_path / "errs.csv"
        source.write_text("1e308\n" * 10)
        code, out, err = run(
            capsys,
            "downsample", "--input", str(source), "--col", "0",
            "--window", "4", "--factors", "2", "--max-order", "1",
            "--output", str(target),
        )
        assert (code, out) == (2, "")
        assert "OverflowError" in err and "Traceback" not in err
        assert not target.exists()

    def test_negative_window(self, capsys, tmp_path):
        source = tmp_path / "bump.csv"
        target = tmp_path / "errs.csv"
        write_bump_csv(source)
        code, out, err = run(
            capsys,
            "downsample", "--input", str(source), "--col", "1",
            "--window", "-4", "--factors", "2", "--max-order", "1", "--t0", "4",
            "--output", str(target),
        )
        assert (code, out) == (2, "")
        assert "window length must be >= 0" in err
        assert not target.exists()

    def test_negative_column(self, capsys, tmp_path):
        source = tmp_path / "bump.csv"
        target = tmp_path / "errs.csv"
        write_bump_csv(source)
        code, out, err = run(
            capsys,
            "downsample", "--input", str(source), "--col", "-1",
            "--window", "60", "--factors", "2", "--max-order", "1",
            "--output", str(target),
        )
        assert (code, out) == (2, "")
        assert "ParseError" in err and "column -1" in err
        assert not target.exists()


class TestAccelerate:
    def test_ln2(self, capsys):
        code, out, _ = run(capsys, "accelerate", "--target", "ln2", "--order", "20")
        assert code == 0
        assert abs(float(out) - math.log(2.0)) < 1e-6

    def test_gamma(self, capsys):
        code, out, _ = run(capsys, "accelerate", "--target", "gamma", "--terms", "50")
        assert code == 0
        assert abs(float(out) - 0.5772156649) < 2e-2

    def test_terms_file(self, capsys, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("".join(f"{1.0 / (k + 1)}\n" for k in range(21)))
        code, out, _ = run(
            capsys, "accelerate", "--terms-file", str(path), "--order", "20"
        )
        assert code == 0
        assert abs(float(out) - math.log(2.0)) < 1e-6

    def test_ln2_past_float_exponent_range(self, capsys):
        code, out, err = run(capsys, "accelerate", "--target", "ln2", "--order", "1100")
        assert (code, err) == (0, "")
        assert abs(float(out) - math.log(2.0)) < 1e-10

    def test_terms_file_non_finite(self, capsys, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("1, 0.5\n0.25 inf\n")
        code, out, err = run(
            capsys, "accelerate", "--terms-file", str(path), "--order", "2"
        )
        assert (code, out) == (2, "")
        assert "ParseError" in err and "row 1, column 1" in err

    def test_overflow_exits_2(self, capsys, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("1.7e308 -1.7e308 1.7e308 -1.7e308\n")
        code, out, err = run(
            capsys, "accelerate", "--terms-file", str(path), "--order", "3"
        )
        assert (code, out) == (2, "")
        assert err == "downsum: OverflowError: Euler transform of order 3 left the float range\n"
        # Differences past the float range, but a transform inside it.
        path.write_text("1e308 -1e308 1e308\n")
        code, out, err = run(
            capsys, "accelerate", "--terms-file", str(path), "--order", "2"
        )
        assert (code, out, err) == (0, "1.5e+308\n", "")

    @pytest.mark.parametrize("terms", sorted(GAMMA_STDOUT))
    def test_gamma_stdout_bytes(self, capsys, terms):
        code, out, err = run(capsys, "accelerate", "--target", "gamma", "--terms", str(terms))
        assert (code, out, err) == (0, GAMMA_STDOUT[terms], "")

    @pytest.mark.parametrize("terms", [["--terms", "-1"], ["--terms=-3"]])
    def test_gamma_negative_terms_names_the_count(self, capsys, terms):
        code, out, err = run(capsys, "accelerate", "--target", "gamma", *terms)
        assert (code, out, err) == (2, "", "downsum: ValueError: number of terms must be >= 0\n")

    @pytest.mark.parametrize("options, message", [
        ([], "choose --target gamma, --target ln2, or --terms-file"),
        (["--terms-file", "t.txt", "--target", "gamma"],
         "--terms-file and --target are mutually exclusive"),
        (["--terms-file", "t.txt"], "--terms-file requires --order"),
        (["--target", "gamma"], "--target gamma requires --terms"),
        (["--target", "ln2"], "--target ln2 requires --order"),
        (["--terms-file", "t.txt", "--order", "3", "--terms", "3"],
         "--terms-file takes --order, not --terms"),
        (["--target", "gamma", "--terms", "3", "--order", "3"],
         "--target gamma takes --terms, not --order"),
        (["--target", "ln2", "--order", "3", "--terms", "3"],
         "--target ln2 takes --order, not --terms"),
        (["--terms-file", "t.txt", "--order", "1", "--terms", "3"],
         "--terms-file takes --order, not --terms"),
        (["--target", "ln2", "--order", "5", "--terms", "3"],
         "--target ln2 takes --order, not --terms"),
        (["--target", "ln2", "--order", "1", "--terms-file", "t.txt"],
         "--terms-file and --target are mutually exclusive"),
    ])
    def test_mode_errors_are_pinned(self, capsys, options, message):
        """The file is never opened: the mode is checked before any load."""
        code, out, err = run(capsys, "accelerate", *options)
        assert (code, out, err) == (2, "", f"downsum: ValueError: {message}\n")


class TestParsing:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "coeffs", "--max-order", "2", "--bogus")
        assert code == 2
        assert "unrecognized arguments" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_no_arguments(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "coeffs" in out and "accelerate" in out

    @pytest.mark.parametrize("argv, flag, value", [
        (["sum", "--poly", "1,2"], "--n", "-7/3"),
        (["sum", "--poly", "1,2"], "--n", "-2.5e3"),
        (["sum", "--poly", "1,2", "--n", "10"], "--downsample-x", "-13/11"),
        (["sum", "--n", "3"], "--poly", "-1,2"),
        (["coeffs", "--max-order", "4"], "--eval", "-2/5"),
        (["coeffs", "--max-order", "4"], "--eval", "-.5"),
        (["verify", "--degree", "2", "--trials", "1", "--seed", "1"], "--x-grid", "-1/2,2"),
    ])
    def test_negative_value_as_its_own_word(self, capsys, argv, flag, value):
        """A separate word that starts with "-" and a digit is the flag's value,
        for both readers, as it is when joined with "="."""
        separate, joined = [*argv, flag, value], [*argv, f"{flag}={value}"]
        assert _read_argv(separate) is not None
        assert _read_argv(separate) == _read_argv(joined)
        assert _parse(build_parser(), separate) == _parse(build_parser(), joined)
        expected = run(capsys, *joined)
        assert expected[0] == 0 and expected[1]
        assert run(capsys, *separate) == expected

    @pytest.mark.parametrize("argv", [
        ["sum", "--poly", "1", "--n", "{}"],
        ["sum", "--poly", "1,{}", "--n", "2"],
        ["sum", "--poly", "1", "--n", "2", "--downsample-x", "{}"],
        ["coeffs", "--max-order", "2", "--eval", "{}"],
        ["verify", "--degree", "1", "--trials", "1", "--seed", "1", "--x-grid", "2,{}"],
    ])
    def test_huge_decimal_exponent_exits_2_fast(self, capsys, argv):
        """Every rational option goes through parse_rational, which rejects an
        exponent past the int digit limit before Fraction expands it."""
        text = "1e-99999999999"
        start = time.perf_counter()
        code, out, err = run(capsys, *(arg.format(text) for arg in argv))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"downsum: ValueError: not a rational number: {text!r}\n"


def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            parsed, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), parsed


PARSER_ARGV = [
    [],
    ["--help"],
    ["-h"],
    ["frobnicate"],
    ["frobnicate", "--max-order", "2"],
    *([name, "--help"] for name in SUBCOMMANDS),
    ["verify", "--degree", "1", "--trials", "1", "--seed", "1", "extra"],
    ["verify", "--degree", "1", "--trials", "1", "--seed", "1", "--classical"],
    ["verify", "--degree", "x", "--trials", "1", "--seed", "1"],
    ["coeffs", "--max-order", "2", "--bogus"],
    ["coeffs", "--max-order", "3", "--format", "xml"],
    ["sum", "--poly", "1"],
    ["downsample"],
    ["accelerate", "--target", "pi"],
    ["accelerate", "--target", "ln2", "--order", "5", "7"],
    # Well-formed, then the spellings _read_argv leaves to argparse.
    ["coeffs", "--max-order", "2"],
    ["coeffs", "--max-order=2", "--star", "--eval=1/2", "--format", "csv"],
    ["coeffs", "--max-order", "2", "--eval="],
    ["coeffs", "--max-order", "2", "--eval", ""],
    ["coeffs", "--max-order", "2", "--max-order", "3"],
    ["coeffs", "--max-order", "2", "--star="],
    ["coeffs", "--max-order", "2", "--star=1"],
    ["coeffs", "--max-order", "-2"],
    ["coeffs", "--max-order=-2"],
    ["coeffs", "--max-order="],
    ["coeffs", "--max-order", " 7 "],
    ["coeffs", "--max", "2"],
    ["coeffs", "--max-order", "2", "--eval", "-1/2"],
    ["coeffs", "--max-order", "2", "--eval", "-x"],
    ["coeffs", "--max-order", "2", "--star", "-1"],
    ["coeffs", "--max-order", "2", "--format"],
    ["coeffs", "--max-order", "2", "-h"],
    ["coeffs", "--", "--max-order", "2"],
    ["coeffs", "--max-order", "2", "--"],
    ["verify", "--degree", "1", "--trials", "1", "--seed", "1", "--x-grid=-1,2"],
    ["verify", "--degree", "1", "--trials", "1", "--seed", "1", "--x-grid", "2,-1"],
    ["verify", "--degree", "1", "--trials", "1", "--seed", "1", "--x-grid", "--classical"],
    ["verify", "--degree", "1", "--trials", "1", "--seed", "1", "--classical", "--classical"],
    ["verify", "--degree", "1", "--trials", "1", "--seed"],
    ["sum", "--poly", "0,1", "--n", "3", "--downsample-x", "1/2"],
    ["sum", "--poly=1=2", "--n", "a b"],
    ["sum", "--poly", "1", "--n", "3", "--help"],
    ["downsample", "--input", "in.csv", "--col", "1", "--window", "4", "--factors", "2",
     "--max-order", "2", "--output", "out.csv", "--header", "--t0", "3"],
    ["downsample", "--input", "in.csv", "--col", "1", "--window", "4", "--factors", "2",
     "--max-order", "2", "--output", "out.csv", "--t0", "-3"],
    ["downsample", "--input", "in.csv", "--col", "1", "--window", "4", "--factors", "2",
     "--max-order", "2"],
    ["accelerate", "--target", "gamma", "--terms", "7"],
    ["accelerate", "--target=ln2", "--order=5", "--terms-file", "t.txt"],
    ["accelerate", "--target", "gamma", "--terms", "7", "--target", "pi"],
    ["accelerate", "--targ", "gamma", "--terms", "7"],
    ["accelerate", "--terms", "1.5"],
]


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=lambda argv: " ".join(argv) or "<none>")
def test_lazy_parser_matches_full_parser(argv, capsys, monkeypatch, tmp_path):
    """main builds argparse only for an argv the reader declines.

    Where argparse then exits, with help or a usage error, main answers
    with its exit code, stdout and stderr.
    """
    built = []
    monkeypatch.setattr(downsum.cli, "build_parser", lambda: built.append(1) or build_parser())
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    assert built == ([1] if _read_argv(argv) is None else [])
    full = _parse(build_parser(), argv)
    if full[0] is not None:
        assert (code, out, err) == full[:3]


def _assert_read_as_argparse(argv):
    """_read_argv(argv) is None, or what argparse returns for argv without printing."""
    read = _read_argv(argv)
    if read is not None:
        assert _parse(build_parser(), argv) == (None, "", "", vars(read))
    return read


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=lambda argv: " ".join(argv) or "<none>")
def test_reader_matches_argparse(argv):
    _assert_read_as_argparse(argv)


def test_reader_declines_what_argparse_reports():
    """Every PARSER_ARGV entry argparse rejects, or answers with help, goes to argparse."""
    for argv in PARSER_ARGV:
        if _parse(build_parser(), argv)[0] is not None:
            assert _read_argv(argv) is None, argv


def test_option_table_uses_only_what_the_reader_reads():
    """_read_argv handles these keywords alone, and a store_true action alone.

    argparse would also pass a string default through the option's type,
    which the reader does not, so no typed option has one.
    """
    for _, _, options in SUBCOMMANDS.values():
        for flag, keywords in options.items():
            assert flag.startswith("--") and "=" not in flag
            assert set(keywords) <= {"action", "dest", "type", "required", "default", "choices", "metavar", "help"}
            assert keywords.get("action", "store_true") == "store_true"
            assert not (isinstance(keywords.get("default"), str) and "type" in keywords)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TOOLS = Path(__file__).resolve().parent.parent / "tools"
README = Path(__file__).resolve().parent.parent / "README.md"


def _deck_argvs(tmp_path, monkeypatch):
    """The argv of every request in the first three decks of each perfbench workload."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        plan = workloads.Plan(workload, 1, str(tmp_path))
        for number in range(3):
            for request in plan.deck(number):
                yield request.argv


def _readme_argvs():
    """The argv of every ``downsum`` command line in README.md."""
    text = README.read_text().replace("\\\n", " ")
    for line in re.findall(r"^(?:\$ )?downsum (.*)$", text, re.M):
        yield shlex.split(line, comments=True)


def test_reader_reads_every_deck_and_readme_argv(tmp_path, monkeypatch):
    """The benchmark's requests and the documented commands never build argparse."""
    argvs = [*_deck_argvs(tmp_path, monkeypatch), *_readme_argvs()]
    assert len(argvs) > 100
    for argv in argvs:
        assert _assert_read_as_argparse(argv) is not None, argv


def test_each_request_builds_at_most_one_family(tmp_path, monkeypatch):
    """The benchmark's requests and the documented commands each call
    correction_family at most once, so a cache of families would never be hit."""
    calls = []

    def counting(max_order):
        calls.append(max_order)
        return correction_family(max_order)

    monkeypatch.setattr(downsum.cli, "correction_family", counting)
    monkeypatch.setattr(downsum.sumcalc, "correction_family", counting)
    monkeypatch.chdir(tmp_path)
    builds = 0
    for argv in [*_deck_argvs(tmp_path, monkeypatch), *_readme_argvs()]:
        calls.clear()
        _run_in_process(argv)
        assert len(calls) <= 1, argv
        builds += len(calls)
    assert builds > 10


def test_byte_identity_sweep_never_raises(tmp_path, monkeypatch, capsys):
    """Every argv of tools/cli_sweep.py, the byte-identity sweep run against
    two trees, exits 0, 1 or 2 and none ends in a traceback."""
    spec = importlib.util.spec_from_file_location("cli_sweep", TOOLS / "cli_sweep.py")
    cli_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_sweep)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    cli_sweep._write_files()
    total = cli_sweep.sweep()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == total > 4000
    # A traceback shows as raised:<class> in the exit code's place.
    assert [line for line in lines if line.split()[0] not in ("0", "1", "2")] == []


# Bounded argument vectors: every subcommand with in-range, out-of-range and
# malformed values, plus stray flags and tokens, so that the runs stay short.
RATIONAL_TEXT = st.sampled_from(
    ["0", "1", "-1", "2", "1/2", "-3/4", "7/3", "2/4", "1/0", "x", "nan", "inf", ""]
)
SMALL_INT_TEXT = st.integers(-3, 12).map(str) | st.sampled_from(["", "1.5", "ten"])


def _flag(name, values):
    return st.tuples(st.just(name), values).map(list)


def _argv(command, *options):
    return st.tuples(*options).map(
        lambda chosen: [command] + [token for option in chosen for token in option]
    )


def _optional(name, values):
    return st.just([]) | _flag(name, values)


COEFFS_ARGV = _argv(
    "coeffs",
    _flag("--max-order", SMALL_INT_TEXT),
    st.sampled_from([[], ["--star"]]),
    _optional("--eval", RATIONAL_TEXT),
    _optional("--format", st.sampled_from(["table", "csv", "json"])),
)
VERIFY_ARGV = _argv(
    "verify",
    _flag("--degree", st.integers(-1, 5).map(str)),
    _flag("--trials", st.integers(0, 2).map(str)),
    _flag("--seed", st.integers(0, 99).map(str)),
    _optional("--x-grid", st.lists(RATIONAL_TEXT, min_size=1, max_size=4).map(",".join)),
    st.sampled_from([[], ["--classical"]]),
)
SUM_ARGV = _argv(
    "sum",
    _flag("--poly", st.lists(RATIONAL_TEXT, min_size=1, max_size=6).map(",".join)),
    _flag("--n", RATIONAL_TEXT),
    _optional("--downsample-x", RATIONAL_TEXT),
)
ACCELERATE_ARGV = _argv(
    "accelerate",
    _optional("--target", st.sampled_from(["gamma", "ln2", "pi"])),
    _optional("--terms", st.integers(-2, 60).map(str)),
    _optional("--order", st.integers(-2, 60).map(str)),
)
DOWNSAMPLE_ARGV = _argv(
    "downsample",
    _flag("--col", st.integers(0, 2).map(str)),
    st.sampled_from([[], ["--header"]]),
    _flag("--window", st.integers(-6, 80).map(str)),
    _flag("--factors", st.lists(st.integers(0, 9).map(str), min_size=1, max_size=3).map(",".join)),
    _flag("--max-order", st.integers(-1, 6).map(str)),
    _optional("--t0", st.integers(-5, 70).map(str)),
)
STRAY = st.lists(st.sampled_from(["--bogus", "-h", "--star", "7", "--seed", "--"]), max_size=2)


@st.composite
def _respelled(draw, tokens):
    """tokens after the first, some left as they are, some cut to a prefix,
    joined to the next token by "=", or replaced by "", "-", "--" or a negative number."""
    out, rest = tokens[:1], tokens[1:]
    while rest:
        token, *rest = rest
        how = draw(st.sampled_from(["keep", "keep", "keep", "prefix", "join", "replace"]))
        if how == "prefix" and len(token) > 3:
            token = token[: draw(st.integers(2, len(token) - 1))]
        elif how == "join" and rest:
            token = token + "=" + rest.pop(0)
        elif how == "replace":
            token = draw(st.sampled_from(["", "-", "--", "-1", "-3/4", "=", "=2"]))
        out.append(token)
    return out


@pytest.fixture(scope="module")
def bump_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("argv")
    source = folder / "bump.csv"
    write_bump_csv(source)
    return str(source), str(folder / "out.csv")


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestArgvProperties:
    @given(
        argv=st.one_of(COEFFS_ARGV, VERIFY_ARGV, SUM_ARGV, ACCELERATE_ARGV, DOWNSAMPLE_ARGV),
        stray=STRAY,
    )
    @settings(max_examples=150, deadline=None)
    def test_exit_codes_and_determinism(self, bump_paths, argv, stray):
        source, target = bump_paths
        if argv[0] == "downsample":
            argv = argv + ["--input", source, "--output", target]
        argv = argv + stray
        first = _run_in_process(argv)
        assert first[0] in (0, 1, 2)
        assert "Traceback" not in first[2]
        assert _run_in_process(argv) == first
        # A negative window exits 2, unless -h prints the help first.
        if argv[0] == "downsample" and int(argv[argv.index("--window") + 1]) < 0 and "-h" not in stray:
            assert first[0] == 2

    @given(
        argv=st.one_of(COEFFS_ARGV, VERIFY_ARGV, SUM_ARGV, ACCELERATE_ARGV, DOWNSAMPLE_ARGV),
        stray=STRAY,
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_reader_matches_argparse(self, argv, stray, data):
        if argv[0] == "downsample":
            argv = argv + ["--input", "in.csv", "--output", "out.csv"]
        _assert_read_as_argparse(data.draw(_respelled(argv + stray)))
