"""Tests for the floating-point application layer."""

import math

import pytest

from downsum import (
    EmptySeries,
    InsufficientOrder,
    NonDivisibleWindow,
    OutOfRange,
    ParseError,
    TimeSeries,
    coefficient_table,
    corrected_sum,
    correction_family,
    error_report,
    euler_mascheroni,
    euler_transform,
    gaussian_bump,
    gregory_integral,
    load_series,
    windowed_sum,
)
from downsum.timeseries import forward_difference

LN2 = math.log(2.0)
GAMMA = 0.5772156649


def ramp(length):
    return TimeSeries(tuple(float(k) for k in range(length)))


class TestTimeSeries:
    def test_basic(self):
        s = TimeSeries((1.0, 2.0), "pair")
        assert len(s) == 2
        assert s[1] == 2.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySeries):
            TimeSeries(())


class TestLoadSeries:
    def test_plain_two_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.5\n1,2.0\n")
        s = load_series(str(path), 1)
        assert s.values == (1.5, 2.0)
        assert s.name == "data"

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,v\n0,1.5\n1,2.5\n")
        assert load_series(str(path), 1, has_header=True).values == (1.5, 2.5)

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
        with pytest.raises(EmptySeries):
            load_series(str(path), 1, has_header=True)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_series(str(tmp_path / "nope.csv"), 0)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.0\n\n1,2.0\n")
        assert load_series(str(path), 1).values == (1.0, 2.0)

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


class TestSampleDifferences:
    def test_step_two_on_squares(self):
        s = TimeSeries((0.0, 1.0, 4.0, 9.0, 16.0))
        assert forward_difference(s, 0, 2, 1) == 4.0

    def test_order_zero(self):
        s = TimeSeries((5.0, 7.0))
        assert forward_difference(s, 1, 1, 0) == 7.0

    def test_linear_second_difference_vanishes(self):
        s = TimeSeries((0.0, 1.0, 2.0, 3.0))
        assert forward_difference(s, 0, 1, 2) == 0.0

    def test_out_of_range(self):
        s = TimeSeries((0.0, 1.0, 2.0))
        with pytest.raises(OutOfRange):
            forward_difference(s, 1, 2, 1)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            forward_difference(TimeSeries((1.0,)), 0, 0, 0)


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
        with pytest.raises(NonDivisibleWindow):
            windowed_sum(ramp(8), 0, 4, 3)

    def test_window_overrun(self):
        with pytest.raises(OutOfRange):
            windowed_sum(ramp(8), 6, 4, 2)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            windowed_sum(ramp(8), 0, 4, 0)

    def test_overflow_raises(self):
        huge = TimeSeries((1e308,) * 10)
        with pytest.raises(OverflowError):
            windowed_sum(huge, 0, 4, 2)


class TestCorrectedSum:
    def test_linear_samples_corrected_exactly(self):
        report = corrected_sum(ramp(8), 0, 4, 2, 2, correction_family(2))
        assert report == 6.0

    def test_order_zero_is_plain_windowed(self):
        assert corrected_sum(ramp(8), 0, 4, 2, 0, correction_family(2)) == 4.0

    def test_tail_samples_required(self):
        # order 2 at window end 4 with x = 2 reads sample 6.
        with pytest.raises(OutOfRange):
            corrected_sum(ramp(6), 0, 4, 2, 2, correction_family(2))

    def test_family_too_short(self):
        with pytest.raises(InsufficientOrder):
            corrected_sum(ramp(20), 0, 4, 2, 3, correction_family(2))

    def test_overflowing_correction_raises(self):
        # The window sum 2 * (s[0] + s[2]) is 0, but the order-1 span
        # s[4] - s[0] = 3.4e308 leaves the float range.
        s = TimeSeries((-1.7e308, 0.0, 1.7e308, 0.0, 1.7e308, 0.0))
        assert windowed_sum(s, 0, 4, 2) == 0.0
        with pytest.raises(OverflowError):
            corrected_sum(s, 0, 4, 2, 1, correction_family(1))

    def test_deterministic(self):
        bump = gaussian_bump()
        family = correction_family(4)
        a = corrected_sum(bump, 0, 60, 3, 4, family)
        b = corrected_sum(bump, 0, 60, 3, 4, family)
        assert a == b

    def test_bump_error_shrinks_with_order(self):
        bump = gaussian_bump()
        family = correction_family(4)
        truth = windowed_sum(bump, 0, 60, 1)
        errors = [
            abs(truth - corrected_sum(bump, 0, 60, 3, order, family))
            for order in range(1, 5)
        ]
        assert errors[0] > errors[1] > errors[2] > errors[3]


class TestErrorReport:
    def test_shape_and_order(self):
        bump = gaussian_bump()
        report = error_report(bump, 0, 60, [5, 2, 3, 4], 4, correction_family(4))
        assert report.window == 60
        assert len(report.rows) == 4 * 5
        assert [row[0] for row in report.rows] == sorted(row[0] for row in report.rows)
        xs = [row[:2] for row in report.rows]
        assert xs == sorted(xs)

    def test_overflowing_error_raises(self):
        # Both sums are finite (1.6e308 and -1.6e308); their distance is not.
        s = TimeSeries((-4e307, 1.2e308, -4e307, 1.2e308))
        with pytest.raises(OverflowError):
            error_report(s, 0, 4, [2], 0, correction_family(0))

    def test_identity_factor_is_exact(self):
        bump = gaussian_bump()
        report = error_report(bump, 0, 60, [1], 3, correction_family(3))
        assert all(err == 0.0 for _, _, err in report.rows)

    def test_baseline_is_order_zero(self):
        bump = gaussian_bump()
        report = error_report(bump, 0, 60, [2, 3], 2, correction_family(2))
        assert report.baseline[2] == report.err(2, 0)
        assert report.baseline[3] == report.err(3, 0)

    def test_duplicate_factors_collapse(self):
        bump = gaussian_bump()
        report = error_report(bump, 0, 60, [2, 2], 1, correction_family(1))
        assert len(report.rows) == 2

    def test_unknown_row_lookup(self):
        bump = gaussian_bump()
        report = error_report(bump, 0, 60, [2], 1, correction_family(1))
        with pytest.raises(KeyError):
            report.err(3, 0)

    def test_polynomial_samples_corrected_to_rounding(self):
        s = TimeSeries(tuple(float(k * k) for k in range(80)))
        family = correction_family(3)
        report = error_report(s, 0, 60, [2, 3, 4, 5], 3, family)
        truth = windowed_sum(s, 0, 60, 1)
        for x in (2, 3, 4, 5):
            assert report.err(x, 3) <= 1e-9 * abs(truth)


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
        with pytest.raises(InsufficientOrder):
            euler_transform([1.0, 0.5], 2)

    def test_order_past_float_exponent_range(self):
        # Past order 1022 neither 2.0 ** (order + 1) nor the unscaled
        # differences of the rounded terms fit in a float.
        terms = [1.0 / (k + 1) for k in range(1101)]
        assert abs(euler_transform(terms, 1100) - LN2) < 1e-10

    def test_overflowing_differences_raise(self):
        with pytest.raises(OverflowError):
            euler_transform([1e308, -1e308, 1e308], 2)

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
        assert euler_mascheroni(1, coefficient_table(1)) == 0.5

    def test_two_terms(self):
        value = euler_mascheroni(2, coefficient_table(2))
        assert abs(value - (0.5 + 1.0 / 24.0)) < 1e-15

    def test_two_hundred_terms(self):
        table = coefficient_table(200)
        assert abs(euler_mascheroni(200, table) - GAMMA) < 2e-3

    def test_table_too_short(self):
        with pytest.raises(InsufficientOrder):
            euler_mascheroni(10, coefficient_table(5))


class TestGregoryIntegral:
    def test_constant(self):
        s = TimeSeries((1.0,) * 7)
        assert gregory_integral(s, 5, 1, coefficient_table(1)) == 5.0

    def test_squares(self):
        s = TimeSeries(tuple(float(k * k) for k in range(8)))
        estimate = gregory_integral(s, 4, 3, coefficient_table(3))
        assert abs(estimate - 64.0 / 3.0) < 1e-12

    def test_higher_order_beats_lower(self):
        s = TimeSeries(tuple(1.0 / (1.0 + t) for t in range(14)))
        exact = math.log(9.0)
        rough = abs(gregory_integral(s, 8, 1, coefficient_table(1)) - exact)
        sharp = abs(gregory_integral(s, 8, 6, coefficient_table(6)) - exact)
        assert sharp < rough

    def test_out_of_range(self):
        s = TimeSeries((1.0,) * 5)
        with pytest.raises(OutOfRange):
            gregory_integral(s, 4, 3, coefficient_table(3))

    def test_table_too_short(self):
        s = TimeSeries((1.0,) * 20)
        with pytest.raises(InsufficientOrder):
            gregory_integral(s, 4, 3, coefficient_table(2))


class TestGaussianBump:
    def test_shape(self):
        bump = gaussian_bump()
        assert len(bump) == 121
        assert bump[25] == 1.0
        assert max(bump.values) == 1.0
        assert all(0.0 < v <= 1.0 for v in bump.values)

    def test_custom_parameters(self):
        bump = gaussian_bump(length=11, center=5.0, width=2.0)
        assert len(bump) == 11
        assert bump[5] == 1.0
        assert bump[3] == pytest.approx(math.exp(-1.0))
