"""Tests for the floating-point application layer."""

import csv
import math
import os
import random
import re
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from downsum import (
    DownsumError,
    ParseError,
    coefficient_table,
    corrected_sum,
    error_report,
    euler_mascheroni,
    euler_transform,
    gaussian_bump,
    gregory_integral,
    load_series,
    windowed_sum,
)
from downsum import timeseries
from downsum.timeseries import forward_difference

from . import oracle

LN2 = math.log(2.0)
GAMMA = 0.5772156649


def ramp(length):
    return tuple(float(k) for k in range(length))


# (function, arguments after the series, its result on an empty series or the
# error it raises).  Only an empty window sums to 0.0; every call that reads
# a sample, or asks for a correction beyond the series, is refused.
EMPTY_SERIES_CALLS = [
    (forward_difference, (0, 1, 0), DownsumError),
    (forward_difference, (0, 2, 3), DownsumError),
    (forward_difference, (-1, 1, 0), DownsumError),
    (forward_difference, (0, 0, 0), ValueError),
    (forward_difference, (0, 1, -1), ValueError),
    (windowed_sum, (0, 0, 1), 0.0),
    (windowed_sum, (0, 0, 3), 0.0),
    (windowed_sum, (0, 2, 1), DownsumError),
    (windowed_sum, (1, 0, 1), DownsumError),
    (windowed_sum, (0, 0, 0), ValueError),
    (corrected_sum, (0, 0, 2, 0), 0.0),
    (corrected_sum, (0, 0, 2, 1), DownsumError),
    (corrected_sum, (0, 4, 2, 0), DownsumError),
    (corrected_sum, (0, 0, 2, -1), ValueError),
    (error_report, (0, 0, [2, 1], 0), ((1, 0, 0.0), (2, 0, 0.0))),
    (error_report, (0, 0, [], 3), ()),
    (error_report, (0, 0, [1], 1), DownsumError),
    (error_report, (0, 3, [1], 0), DownsumError),
    (error_report, (0, 0, [1], -1), ValueError),
    (gregory_integral, (0, 0), 0.0),
    (gregory_integral, (0, 2), DownsumError),
    (gregory_integral, (1, 0), DownsumError),
    (gregory_integral, (0, -1), ValueError),
    (euler_transform, (0,), DownsumError),
    (euler_transform, (-1,), ValueError),
]


@pytest.mark.parametrize("empty", [(), []], ids=["tuple", "list"])
@pytest.mark.parametrize(
    "function, args, expected", EMPTY_SERIES_CALLS,
    ids=[f"{function.__name__}{args}" for function, args, _ in EMPTY_SERIES_CALLS],
)
def test_empty_series(empty, function, args, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            function(empty, *args)
    else:
        assert function(empty, *args) == expected


class TestLoadSeries:
    def test_plain_two_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.5\n1,2.0\n")
        assert load_series(str(path), 1) == (1.5, 2.0)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,v\n0,1.5\n1,2.5\n")
        assert load_series(str(path), 1, has_header=True) == (1.5, 2.5)

    def test_bad_field_reports_location(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.5\n1,abc\n")
        with pytest.raises(ParseError) as excinfo:
            load_series(str(path), 1)
        assert excinfo.value.row == 1
        assert excinfo.value.column == 1
        assert "row 1" in str(excinfo.value)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_field_rejected(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(f"0,1.5\n1,{text}\n")
        with pytest.raises(ParseError) as excinfo:
            load_series(str(path), 1)
        assert (excinfo.value.row, excinfo.value.column) == (1, 1)

    def test_short_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.5\n1\n")
        with pytest.raises(ParseError) as excinfo:
            load_series(str(path), 1)
        assert excinfo.value.row == 1

    def test_only_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,v\n")
        with pytest.raises(DownsumError, match="^no data rows in "):
            load_series(str(path), 1, has_header=True)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_series(str(tmp_path / "nope.csv"), 0)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.0\n\n1,2.0\n")
        assert load_series(str(path), 1) == (1.0, 2.0)

    def test_negative_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.0,2.0\n1,3.0,4.0\n")
        with pytest.raises(ParseError) as excinfo:
            load_series(str(path), -1)
        assert excinfo.value.column == -1

    def test_over_long_field_reports_location(self, tmp_path):
        # csv.reader refuses fields past its 131072-character limit.
        path = tmp_path / "data.csv"
        path.write_text(f"0,1.0\n1,{'7' * 200_000}\n2,3.0\n")
        with pytest.raises(ParseError) as excinfo:
            load_series(str(path), 1)
        assert (excinfo.value.row, excinfo.value.column) == (1, 1)
        assert "field larger than field limit" in str(excinfo.value)

    @pytest.mark.parametrize("last", ["1,abc", "1,nan", "1"], ids=["bad", "non-finite", "short"])
    def test_error_row_after_multiline_field(self, tmp_path, last):
        # The quoted field spans rows 0 and 1, so the bad record is row 2.
        path = tmp_path / "data.csv"
        path.write_text(f'0,"1.5\n"\n{last}\n')
        with pytest.raises(ParseError) as excinfo:
            load_series(str(path), 1)
        assert (excinfo.value.row, excinfo.value.column) == (2, 1)
        assert "(row 2, column 1)" in str(excinfo.value)

    @pytest.mark.parametrize("trailing_newline", [True, False], ids=["newline", "no-newline"])
    @pytest.mark.parametrize("has_header", [False, True], ids=["rows", "header"])
    @pytest.mark.parametrize("width, column", [(3, 0), (3, 1), (3, 2), (2, 0), (2, 1)])
    def test_plain_file_takes_bulk_path(
        self, tmp_path, monkeypatch, width, column, has_header, trailing_newline
    ):
        path = tmp_path / "plain.csv"
        rows = [(float(t), math.sin(t / 100), math.cos(t / 70))[:width] for t in range(5000)]
        text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
        header = ",".join("tab"[:width]) + "\n" if has_header else ""
        path.write_text(header + (text if trailing_newline else text[:-1]))

        def refuse(*args):
            raise AssertionError("a plain file reached the checked csv.reader loop")

        monkeypatch.setattr(timeseries, "_checked_column", refuse)
        assert load_series(str(path), column, has_header) == tuple(row[column] for row in rows)

    def test_bulk_peak_memory_near_checked_loop(self, tmp_path):
        # The bulk path holds one block's field list at a time; a larger
        # _BLOCK raises its peak, which must stay near the row-by-row loop's.
        path = tmp_path / "plain.csv"
        path.write_text("".join(f"{t},{math.sin(t / 100)!r},{math.cos(t / 70)!r}\n" for t in range(5000)))

        def peak(load):
            load(str(path), 2, False)
            tracemalloc.start()
            try:
                load(str(path), 2, False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(load_series) <= peak(timeseries._checked_column) + 256 * 1024

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_once(self, tmp_path):
        # Quotes send a file to the checked loop, which must not reopen a
        # pipe whose first block is already gone.
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        loaded = []
        reader = threading.Thread(
            target=lambda: loaded.append(load_series(str(path), 1)), daemon=True
        )
        reader.start()
        path.write_text('0,"1.5"\n1,2.5\n')
        reader.join(timeout=10)
        assert loaded == [(1.5, 2.5)]


def reference_outcome(path, column, has_header):
    """What load_series must give, by csv.reader alone: the float values, or
    the exception's type name, text, row and column."""
    values = []
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                for index, row in enumerate(reader):
                    if has_header and index == 0:
                        continue
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    row_number = reader.line_num - 1
                    if column >= len(row):
                        message = f"row has only {len(row)} fields"
                    else:
                        text = row[column].strip()
                        try:
                            value = float(text)
                        except ValueError:
                            message = f"not a number: {text!r}"
                        else:
                            if math.isfinite(value):
                                values.append(value)
                                continue
                            message = f"not a finite number: {text!r}"
                    where = f"(row {row_number}, column {column})"
                    return ("ParseError", f"{message} {where}", row_number, column)
            except csv.Error as exc:
                row_number = reader.line_num - 1
                where = f"(row {row_number}, column {column})"
                return ("ParseError", f"unreadable CSV row: {exc} {where}", row_number, column)
    except UnicodeDecodeError as exc:
        return ("UnicodeDecodeError", str(exc), None, None)
    if not values:
        return ("DownsumError", f"no data rows in {path}", None, None)
    return tuple(values)


def load_outcome(path, column, has_header):
    try:
        return load_series(path, column, has_header)
    except (DownsumError, UnicodeDecodeError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "row", None), getattr(exc, "column", None))


def block_straddling_csv(bad_last):
    """A three-column CSV of more than three bulk blocks.  Lines straddle the
    first and third block boundaries, and one ends exactly at the second."""
    block = timeseries._BLOCK
    lines = ["t,a,b"] + [f"{k},{math.sin(k) * 10 ** (k % 5)!r},{k % 7}" for k in range(4000)]
    if bad_last:
        lines[-1] = f"{len(lines)},abc,0"
    for newline_at in (block + 1, 2 * block - 1, 3 * block + 1):
        # Pad the last line ending before newline_at so its newline lands there.
        end = -1
        for index, line in enumerate(lines):
            if end + len(line) + 1 >= newline_at:
                break
            end += len(line) + 1
        lines[index - 1] += " " * (newline_at - end)
    text = "".join(line + "\n" for line in lines)
    assert len(text) > 3 * block + 1000 and text[2 * block - 1] == "\n"
    assert "\n" not in (text[block - 1], text[block], text[3 * block - 1], text[3 * block])
    return text.encode()


LIMIT = csv.field_size_limit()
DIFFERENTIAL_FILES = {
    "plain": b"t,v\n0,1.5\n1,2.5\n",
    "quoted": b'"t","v"\n"0","1.5"\n1," 2.5 "\n"2",3.5\n',
    "quoted-comma": b'"1,5",2.5\n"2,5",3.5\n',
    "quoted-multiline": b'0,"1.5\n"\n1,abc\n',
    "crlf": b"t,v\r\n0,1.5\r\n\r\n1,2.5\r\n",
    "lone-cr": b"t,v\r0,1.5\r1,2.5\r",
    "blank-lines": b"\n0,1.5\n   \n\t\n\n1,2.5\n\n",
    "unicode-space": "0,1.5\u2028\n\u2028\n\x0c\n1, 2.5\x0c\n".encode(),
    "spaced-fields": b"0, 1_000 \n1,+2.5e-3\n , \n",
    "header-only": b"t,v\n",
    "empty": b"",
    "no-trailing-newline": b"t,v\n0,1.5\n1,2.5",
    "short-row": b"t,v\n0,1.5\n1\n",
    "nan": b"t,v\n0,1.5\n1,nan\n",
    "overflow": b"t,v\n0,1e999\n",
    "field-at-limit": b"0,1.5," + b"7" * LIMIT + b"\n1,2.5,3\n",
    "field-past-limit": b"0,1.5," + b"7" * (LIMIT + 1) + b"\n1,2.5,3\n",
    "nul": b"0,1.5\n1,2\x005\n",
    "nul-unread": b"0,1.5,a\x00b\n1,2.5,c\n",
    "non-utf8": b"t,v\n0,1.5\n1,\xff\n",
    "extra-field": b"0,1.5\n1,2.5,3\n2,3.5\n",
    "short-first-row": b"0,1.5\n1,2.5,3\n2,3.5,4\n",
    "utf8-header": "t,\u00e9\n0,1.5\n1,2.5\n".encode(),
    "info-separator": b"0,\x1c1.5\n1,2.5\x1f\n",
    "single-column-blank": b"1.5\n\n2.5\n",
    "trailing-blank": b"t,v\n0,1.5\n1,2.5\n\n",
    "wide-header": b"t,v,w\n0,1.5\n1,2.5\n",
    "ragged-same-commas": b"0,1.5\n1\n2,2.5,3\n",
    "blocks": block_straddling_csv(bad_last=False),
    "blocks-bad-last": block_straddling_csv(bad_last=True),
}


@pytest.mark.parametrize("has_header", [False, True], ids=["rows", "header"])
@pytest.mark.parametrize("name", list(DIFFERENTIAL_FILES))
def test_load_series_matches_csv_reader(tmp_path, name, has_header):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(DIFFERENTIAL_FILES[name])
    for column in (0, 1, 2, 2**64):
        assert load_outcome(str(path), column, has_header) == reference_outcome(
            str(path), column, has_header
        ), column


CSV_BYTES = [bytes([byte]) for byte in b'0123456789,\n.e- "\r\x1c'] + ["\u00e9".encode()]


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(st.sampled_from(CSV_BYTES), max_size=60).map(b"".join),
    block=st.sampled_from([1, 2, 5, timeseries._BLOCK]),
)
def test_drawn_files_match_csv_reader(tmp_path_factory, data, block):
    path = tmp_path_factory.mktemp("drawn") / "drawn.csv"
    path.write_bytes(data)
    with mock.patch.object(timeseries, "_BLOCK", block):
        for has_header in (False, True):
            for column in (0, 1, 2):
                assert load_outcome(str(path), column, has_header) == reference_outcome(
                    str(path), column, has_header
                ), (column, has_header)


class TestSampleDifferences:
    def test_step_two_on_squares(self):
        s = (0.0, 1.0, 4.0, 9.0, 16.0)
        assert forward_difference(s, 0, 2, 1) == 4.0

    def test_order_zero(self):
        s = (5.0, 7.0)
        assert forward_difference(s, 1, 1, 0) == 7.0

    def test_linear_second_difference_vanishes(self):
        s = (0.0, 1.0, 2.0, 3.0)
        assert forward_difference(s, 0, 1, 2) == 0.0

    def test_out_of_range(self):
        s = (0.0, 1.0, 2.0)
        with pytest.raises(DownsumError, match=r"^difference of order 1 at t=1 \(step 2\) needs sample 3, series has 3$"):
            forward_difference(s, 1, 2, 1)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            forward_difference((1.0,), 0, 0, 0)


class TestWindowedSum:
    def test_factor_two(self):
        assert windowed_sum(ramp(8), 0, 4, 2) == 4.0

    def test_factor_one(self):
        assert windowed_sum(ramp(8), 0, 4, 1) == 6.0

    def test_factor_equals_window(self):
        assert windowed_sum(ramp(8), 0, 4, 4) == 0.0

    def test_offset_start(self):
        assert windowed_sum(ramp(8), 2, 4, 1) == 2 + 3 + 4 + 5

    def test_non_divisible(self):
        with pytest.raises(DownsumError, match="^window 4 is not divisible by factor 3$"):
            windowed_sum(ramp(8), 0, 4, 3)

    def test_window_overrun(self):
        with pytest.raises(DownsumError, match=r"^window \[6, 10\) exceeds series of length 8$"):
            windowed_sum(ramp(8), 6, 4, 2)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            windowed_sum(ramp(8), 0, 4, 0)

    def test_overflow_raises(self):
        huge = (1e308,) * 10
        with pytest.raises(OverflowError):
            windowed_sum(huge, 0, 4, 2)

    def test_negative_window_rejected(self):
        squares = tuple(float(k * k) for k in range(10))
        with pytest.raises(ValueError, match="window length"):
            windowed_sum(squares, 4, -4, 2)
        with pytest.raises(ValueError, match="window length"):
            corrected_sum(squares, 4, -4, 2, 2)


class TestCorrectedSum:
    def test_linear_samples_corrected_exactly(self):
        report = corrected_sum(ramp(8), 0, 4, 2, 2)
        assert report == 6.0

    def test_order_zero_is_plain_windowed(self):
        assert corrected_sum(ramp(8), 0, 4, 2, 0) == 4.0

    def test_tail_samples_required(self):
        # order 2 at window end 4 with x = 2 reads sample 6.
        with pytest.raises(DownsumError, match="^order-2 correction at window end 4 needs sample 6,"):
            corrected_sum(ramp(6), 0, 4, 2, 2)

    def test_overflowing_correction_raises(self):
        # The window sum 2 * (s[0] + s[2]) is 0, but the order-1 span
        # s[4] - s[0] = 3.4e308 leaves the float range.
        s = (-1.7e308, 0.0, 1.7e308, 0.0, 1.7e308, 0.0)
        assert windowed_sum(s, 0, 4, 2) == 0.0
        with pytest.raises(OverflowError):
            corrected_sum(s, 0, 4, 2, 1)

    def test_deterministic(self):
        bump = gaussian_bump()
        a = corrected_sum(bump, 0, 60, 3, 4)
        b = corrected_sum(bump, 0, 60, 3, 4)
        assert a == b

    def test_bump_error_shrinks_with_order(self):
        bump = gaussian_bump()
        truth = windowed_sum(bump, 0, 60, 1)
        errors = [
            abs(truth - corrected_sum(bump, 0, 60, 3, order))
            for order in range(1, 5)
        ]
        assert errors[0] > errors[1] > errors[2] > errors[3]


class TestErrorReport:
    def test_shape_and_order(self):
        bump = gaussian_bump()
        rows = error_report(bump, 0, 60, [5, 2, 3, 4], 4)
        assert len(rows) == 4 * 5
        assert [row[:2] for row in rows] == [(x, order) for x in (2, 3, 4, 5) for order in range(5)]

    def test_overflowing_error_raises(self):
        # Both sums are finite (1.6e308 and -1.6e308); their distance is not.
        s = (-4e307, 1.2e308, -4e307, 1.2e308)
        with pytest.raises(OverflowError):
            error_report(s, 0, 4, [2], 0)

    def test_identity_factor_is_exact(self):
        bump = gaussian_bump()
        rows = error_report(bump, 0, 60, [1], 3)
        assert all(err == 0.0 for _, _, err in rows)

    def test_duplicate_factors_collapse(self):
        bump = gaussian_bump()
        assert len(error_report(bump, 0, 60, [2, 2], 1)) == 2

    def test_list_gives_the_bits_of_the_tuple(self):
        bump = gaussian_bump()
        for t0, n, xs in ((0, 60, [5, 2, 3, 4]), (11, 48, [1, 6, 8])):
            rows = [(x, order, err.hex()) for x, order, err in error_report(bump, t0, n, xs, 8)]
            from_list = error_report(list(bump), t0, n, xs, 8)
            assert [(x, order, err.hex()) for x, order, err in from_list] == rows

    def test_polynomial_samples_corrected_to_rounding(self):
        s = tuple(float(k * k) for k in range(80))
        # At t0 = 7 the order-3 tail reaches sample 7 + 60 + 2 * 5 = 77.
        for t0 in (0, 7):
            truth = windowed_sum(s, t0, 60, 1)
            err = {(x, order): value for x, order, value in error_report(s, t0, 60, [2, 3, 4, 5], 3)}
            for x in (2, 3, 4, 5):
                assert err[x, 3] <= 1e-9 * abs(truth), (t0, x)

    def test_bits_match_the_golden_file(self):
        """Every err equals, bit for bit, the value recorded before the weights
        came from the fixed-point recurrence (the closed-form family then)."""
        assert error_report_bits() == ERROR_REPORT_BITS.read_text().splitlines()


ERROR_REPORT_BITS = Path(__file__).parent / "data" / "error_report_bits.txt"


def _random_walk(length, seed):
    """A seeded random walk: the running sum of uniform steps in [-1, 1)."""
    rng = random.Random(seed)
    values, level = [], 0.0
    for _ in range(length):
        level += rng.uniform(-1.0, 1.0)
        values.append(level)
    return tuple(values)


def error_report_bits():
    """Every err of error_report as float.hex, one line per row.

    Factors 1..8 and orders 0..8 on the Gaussian bump and a 2000-sample
    random walk: each factor alone on windows of several lengths that reach
    order 8, then several factors sharing one window.
    """
    lines = []
    for name, s, starts, multiples, shared in (
        ("gaussian-bump", gaussian_bump(), (0, 11), (0, 1, 2, 5, 9), ((0, 24, (1, 2, 3, 4, 6, 8)), (2, 60, (6, 1, 5, 2, 4, 3)))),
        ("walk", _random_walk(2000, 20211), (0, 977), (1, 3, 10, 64, 200), ((0, 840, tuple(range(8, 0, -1))),)),
    ):
        calls = [
            (t0, k * x, (x,))
            for x in range(1, 9) for t0 in starts for k in multiples
            if t0 + k * x + 7 * x <= len(s) - 1
        ]
        for t0, n, xs in calls + list(shared):
            for x, order, err in error_report(s, t0, n, xs, 8):
                lines.append(f"{name} t0={t0} n={n} xs={','.join(map(str, xs))} {x} {order} {err.hex()}")
    return lines


class TestEulerTransform:
    def test_ln2(self):
        terms = [1.0 / (k + 1) for k in range(21)]
        assert abs(euler_transform(terms, 20) - LN2) < 1e-6

    def test_constant_terms(self):
        for order in (0, 3, 10):
            terms = [1.0] * (order + 1)
            assert euler_transform(terms, order) == 0.5

    def test_linear_terms(self):
        assert euler_transform([1.0, 2.0], 1) == 0.25

    def test_insufficient_terms(self):
        with pytest.raises(DownsumError, match="^order 2 needs 3 terms, got 2$"):
            euler_transform([1.0, 0.5], 2)

    def test_order_past_float_exponent_range(self):
        """ln 2 to within one ulp at every order from 60, where the truncation
        error is below 1e-20, to 1100: past order 1022, 2.0 ** (order + 1)
        and the differences of the rounded terms leave the float range."""
        terms = [1.0 / (k + 1) for k in range(1101)]
        for order in range(60, 1101):
            assert abs(euler_transform(terms, order) - LN2) <= math.ulp(LN2), order

    def test_overflowing_differences_raise(self):
        # The transform is 2 * 1.7e308: it leaves the float range.
        with pytest.raises(OverflowError, match="^Euler transform of order 3 left the float range$"):
            euler_transform([1.7e308, -1.7e308, 1.7e308, -1.7e308], 3)

    def test_overflowing_differences_with_a_finite_transform(self):
        # D^2 of these terms is 4e308, but the weights are 7/8, 1/2 and 1/8.
        assert euler_transform([1e308, -1e308, 1e308], 2) == 1.5e308
        assert euler_transform([-1e308, 1e308, -1e308], 2) == -1.5e308

    def test_weighted_terms_are_added_with_one_rounding(self):
        # 7e16 - 0.5 - 7e16: a running float sum loses the -0.5.
        assert euler_transform([8e16, 1.0, -5.6e17], 2) == -0.5

    @pytest.mark.parametrize("terms, order", [
        ([math.inf], 0),
        ([1.0, math.nan, 1.0], 2),
        ([math.inf, math.inf], 1),  # inf - inf
        ([1.0, -math.inf, 0.5, 1e308], 3),
    ])
    def test_non_finite_term_raises(self, terms, order):
        with pytest.raises(OverflowError, match=f"^Euler transform of order {order} left the float range$"):
            euler_transform(terms, order)

    def test_against_exact_differencing(self):
        """Within 2 eps * sum |t_j| of the exact transform of the same float
        terms (oracle.euler_transform), on seeded terms of mixed magnitude."""
        rng = random.Random(83)
        for case in range(20):
            order = 300 if case == 0 else rng.randint(0, 300)
            terms = [rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-8, 8) for _ in range(order + 1)]
            exact = oracle.euler_transform(terms, order)
            bound = 2 * sys.float_info.epsilon * math.fsum(map(abs, terms))
            assert abs(Fraction(euler_transform(terms, order)) - exact) <= bound, (case, order)

    def test_terms_past_order_are_unused(self):
        terms = [1.0 / (k + 1) for k in range(8)]
        # Differencing these trailing terms would overflow to inf and nan.
        tail = [1e308, -1e308, float("inf"), 1e308] * 50
        for order in range(8):
            assert euler_transform(terms + tail, order) == euler_transform(terms[:order + 1], order)

    def test_geometric_convergence(self):
        terms = [1.0 / (k + 1) for k in range(25)]
        errors = {
            order: abs(euler_transform(terms, order) - LN2) for order in range(5, 20)
        }
        for order in range(5, 19):
            assert errors[order + 1] <= 0.6 * errors[order], order


class TestEulerMascheroni:
    def test_one_term(self):
        assert euler_mascheroni(1) == 0.5

    def test_two_terms(self):
        value = euler_mascheroni(2)
        assert abs(value - (0.5 + 1.0 / 24.0)) < 1e-15

    def test_two_hundred_terms(self):
        assert abs(euler_mascheroni(200) - GAMMA) < 2e-3

    def test_negative_terms_rejected(self):
        # A negative count is an error, not the empty sum 0.0.
        with pytest.raises(ValueError, match="^number of terms must be >= 0$"):
            euler_mascheroni(-3)


class TestGregoryIntegral:
    def test_gregory_floats_are_the_rounded_table(self):
        """Every float(G_r) the float layer reads, for orders k <= 200, is the
        exact table's Gregory number rounded once."""
        exact = [float(g) for g in coefficient_table(200).gregory]
        for k in range(201):
            assert list(timeseries._gregory_floats(k)) == exact[1:k + 1], k

    def test_constant(self):
        s = (1.0,) * 7
        assert gregory_integral(s, 5, 1) == 5.0

    def test_squares(self):
        s = tuple(float(k * k) for k in range(8))
        estimate = gregory_integral(s, 4, 3)
        assert abs(estimate - 64.0 / 3.0) < 1e-12

    def test_higher_order_beats_lower(self):
        s = tuple(1.0 / (1.0 + t) for t in range(14))
        exact = math.log(9.0)
        rough = abs(gregory_integral(s, 8, 1) - exact)
        sharp = abs(gregory_integral(s, 8, 6) - exact)
        assert sharp < rough

    def test_out_of_range(self):
        s = (1.0,) * 5
        with pytest.raises(DownsumError, match="^order-2 correction at window end 4 needs sample 5,"):
            gregory_integral(s, 4, 3)

    @pytest.mark.parametrize(
        "values, n, order",
        [
            ((1e308,) * 7, 7, 0),  # the unit sum would be inf
            ((1.7e308, -1.7e308) * 4, 2, 3),  # the corrected total would be nan
        ],
        ids=["inf", "nan"],
    )
    def test_non_finite_raises(self, values, n, order):
        with pytest.raises(OverflowError):
            gregory_integral(values, n, order)


@pytest.fixture
def built(monkeypatch):
    """The orders of every weight row and Gregory row timeseries builds, in call order."""
    orders = []

    def recording(build):
        def record(order, *rest):
            orders.append(order)
            return build(order, *rest)

        return record

    monkeypatch.setattr(timeseries, "_values_at", recording(timeseries._values_at))
    monkeypatch.setattr(timeseries, "_gregory_numerators", recording(timeseries._gregory_numerators))
    return orders


class TestWeightsSizedToSeries:
    """Each call builds one row of weights per factor, no further than the series reaches.

    On 20 samples the window [0, 4) at step x reaches order 1 + 15 // x:
    order r reads sample 4 + (r - 1) * x, and the last sample is 19.  So
    step 2 reaches order 8 and step 1 order 16.
    """

    def test_corrected_sum_past_reach(self, built):
        with pytest.raises(DownsumError, match="^order-9 correction at window end 4 needs sample 20,"):
            corrected_sum(ramp(20), 0, 4, 2, 10_000)
        assert built == [8]

    def test_error_report_past_reach(self, built):
        with pytest.raises(DownsumError, match="^order-9 correction at window end 4 needs sample 20,"):
            error_report(ramp(20), 0, 4, [4, 2], 10_000)
        assert built == [8]

    def test_gregory_integral_past_reach(self, built):
        with pytest.raises(DownsumError, match="^order-17 correction at window end 4 needs sample 20,"):
            gregory_integral(ramp(20), 4, 10_000)
        assert built == [16]

    def test_window_at_the_series_end_reaches_order_zero(self, built):
        with pytest.raises(DownsumError, match="^order-1 correction at window end 20 needs sample 20,"):
            corrected_sum(ramp(20), 0, 20, 2, 1)
        assert built == [0]

    def test_reachable_order_is_built_as_asked(self, built):
        corrected_sum(ramp(20), 0, 4, 2, 3)
        gregory_integral(ramp(20), 4, 5)
        euler_mascheroni(6)
        assert built == [3, 5, 6]

    def test_error_report_builds_one_row_per_factor(self, built):
        assert len(error_report(gaussian_bump(), 0, 60, [5, 2, 3], 4)) == 3 * 5
        assert built == [4, 4, 4]

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: corrected_sum(ramp(20), 0, 4, 0, 3), ValueError,
             "downsampling factor must be a positive integer"),
            (lambda: corrected_sum(ramp(20), 0, -4, 2, 3), ValueError, "window length must be >= 0"),
            (lambda: corrected_sum(ramp(20), 0, 5, 2, 3), DownsumError,
             "window 5 is not divisible by factor 2"),
            (lambda: corrected_sum(ramp(20), 17, 4, 2, 3), DownsumError,
             "window [17, 21) exceeds series of length 20"),
            # A negative order is rejected before the window [0, 100) past the series.
            (lambda: corrected_sum(ramp(10), 0, 100, 2, -1), ValueError,
             "correction order must be >= 0"),
            (lambda: error_report(ramp(20), 0, 4, [2, 0], 3), ValueError,
             "downsampling factor must be a positive integer"),
            (lambda: error_report(ramp(20), 0, 4, [3, 6], 3), DownsumError,
             "window 4 is not divisible by factor 3"),
            (lambda: error_report(ramp(20), -1, 4, [2], 3), DownsumError,
             "window [-1, 3) exceeds series of length 20"),
            (lambda: error_report(ramp(10), -1, 100, [0], -1), ValueError, "max_order must be >= 0"),
            (lambda: gregory_integral(ramp(20), 21, 3), DownsumError,
             "window [0, 21) exceeds series of length 20"),
            (lambda: gregory_integral(ramp(20), -1, 3), ValueError, "window length must be >= 0"),
            (lambda: gregory_integral(ramp(10), 100, -1), ValueError, "order must be >= 0"),
        ],
        ids=[
            "corrected-zero-factor", "corrected-negative-window", "corrected-non-divisible",
            "corrected-past-series", "corrected-negative-order",
            "report-zero-factor", "report-non-divisible", "report-negative-t0",
            "report-negative-order",
            "gregory-past-series", "gregory-negative-window", "gregory-negative-order",
        ],
    )
    def test_rejected_input_builds_nothing(self, built, call, error, message):
        """The first check that fails is the one named, and it fails before any build."""
        with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
            call()
        assert type(raised.value) is error
        assert built == []


class TestGaussianBump:
    def test_shape(self):
        bump = gaussian_bump()
        assert len(bump) == 121
        assert bump[25] == 1.0
        assert max(bump) == 1.0
        assert all(0.0 < v <= 1.0 for v in bump)

    def test_one_width_from_center(self):
        bump = gaussian_bump()
        assert bump[0] == bump[50] == pytest.approx(math.exp(-1.0))
        assert bump[75] == pytest.approx(math.exp(-4.0))
