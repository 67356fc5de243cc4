"""Tests for finite differences, indefinite sums, and the summation identities."""

import random
from fractions import Fraction as Fr
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from downsum import (
    DownsumError,
    Polynomial,
    alternating_residual,
    correction_family,
    downsampled_sum,
    euler_maclaurin_residual,
    forward_difference,
    gregory_residual,
    indefinite_sum,
    random_polynomial,
    scaled_difference_residual,
    unit_difference_residual,
)

P = Polynomial

X_GRID = [Fr(-2), Fr(-1), Fr(-1, 2), Fr(1, 3), Fr(1, 2), Fr(1), Fr(2), Fr(3)]

WIDE_RATIONAL = st.builds(Fr, st.integers(-1000, 1000), st.integers(1, 1000))
NONZERO_STEP = st.builds(Fr, st.integers(-12, 12).filter(bool), st.integers(1, 12))


def _value(coeffs, at):
    """f(at) for ascending coefficients, summed term by term."""
    return sum((c * at**i for i, c in enumerate(coeffs)), Fr(0))


class TestForwardDifference:
    def test_square_step_two(self):
        assert forward_difference(P([0, 0, 1]), 2, 1) == P([4, 4])

    def test_order_zero_is_identity(self):
        p = P([3, Fr(1, 2), 7])
        assert forward_difference(p, Fr(5, 3), 0) == p

    def test_degree_drop_to_zero(self):
        assert forward_difference(P([0, 1]), Fr(9, 2), 2) == P()

    def test_zero_step_annihilates(self):
        assert forward_difference(P([1, 2, 3]), 0, 1) == P()

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            forward_difference(P([1]), 1, -1)

    def test_matches_pointwise_definition(self):
        # D^k f(t) = sum_j (-1)^(k-j) C(k,j) f(t + j*step), with f evaluated
        # term by term, at every order up to one past the degree.
        rng = random.Random(5)
        steps = [Fr(-3), Fr(-2, 3), Fr(5, 4), Fr(7)]
        for _ in range(20):
            f = random_polynomial(rng, 6)
            for step in steps + [Fr(rng.randint(-5, 5) or 1, rng.randint(1, 4))]:
                at = Fr(rng.randint(-10, 10), rng.randint(1, 5))
                for order in range(f.degree + 2):
                    literal = sum(
                        (
                            (-1) ** (order - j) * comb(order, j) * _value(f.coeffs, at + j * step)
                            for j in range(order + 1)
                        ),
                        Fr(0),
                    )
                    difference = forward_difference(f, step, order)
                    assert _value(difference.coeffs, at) == literal, (f, step, order)


class TestIndefiniteSum:
    def test_identity_function(self):
        # sum_{k<n} k = n(n-1)/2
        assert indefinite_sum(P([0, 1])) == P([0, Fr(-1, 2), Fr(1, 2)])

    def test_constant(self):
        assert indefinite_sum(P([1])) == P([0, 1])

    def test_squares(self):
        assert indefinite_sum(P([0, 0, 1])) == P([0, Fr(1, 6), Fr(-1, 2), Fr(1, 3)])

    def test_zero(self):
        assert indefinite_sum(P()) == P()

    def test_fundamental_theorem(self):
        rng = random.Random(11)
        for _ in range(25):
            f = random_polynomial(rng, 10)
            s = indefinite_sum(f)
            assert forward_difference(s, 1, 1) == f
            assert s(Fr(0)) == 0

    def test_linearity(self):
        rng = random.Random(13)
        for _ in range(15):
            f = random_polynomial(rng, 7)
            g = random_polynomial(rng, 7)
            a = Fr(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fr(rng.randint(-9, 9), rng.randint(1, 9))
            assert indefinite_sum(a * f + b * g) == a * indefinite_sum(f) + b * indefinite_sum(g)

    def test_matches_literal_summation(self):
        rng = random.Random(17)
        for _ in range(10):
            f = random_polynomial(rng, 6)
            s = indefinite_sum(f)
            for n in (0, 1, 2, 7, 50):
                literal = sum((f(Fr(k)) for k in range(n)), Fr(0))
                assert s(Fr(n)) == literal


class TestAgainstLiteralSums:
    """Both sums against literal summation at deg f + 2 points, enough to fix
    polynomials of degree <= deg f + 1."""

    @given(st.lists(WIDE_RATIONAL, min_size=1, max_size=13))
    @settings(deadline=None)
    def test_indefinite_sum(self, coeffs):
        s = indefinite_sum(P(coeffs))
        for n in range(len(coeffs) + 1):
            literal = sum((_value(coeffs, Fr(k)) for k in range(n)), Fr(0))
            assert s(Fr(n)) == literal

    @given(st.lists(WIDE_RATIONAL, min_size=1, max_size=13), NONZERO_STEP)
    @settings(deadline=None)
    def test_downsampled_sum(self, coeffs, x):
        coarse = downsampled_sum(P(coeffs), x)
        for j in range(len(coeffs) + 1):
            literal = x * sum((_value(coeffs, k * x) for k in range(j)), Fr(0))
            assert coarse(j * x) == literal


class TestFractionalSum:
    def test_half(self):
        assert indefinite_sum(P([0, 1]))(Fr(1, 2)) == Fr(-1, 8)

    def test_integer(self):
        assert indefinite_sum(P([0, 0, 1]))(Fr(3)) == 5

    def test_constant_at_non_integer(self):
        assert indefinite_sum(P([1]))(Fr(22, 7)) == Fr(22, 7)


class TestDownsampledSum:
    def test_identity_with_factor_two(self):
        # 2 * sum_{k<n/2} 2k = n^2/2 - n
        assert downsampled_sum(P([0, 1]), 2) == P([0, -1, Fr(1, 2)])

    def test_factor_one_reduces_to_indefinite_sum(self):
        f = P([3, 0, 2, 1])
        assert downsampled_sum(f, 1) == indefinite_sum(f)

    def test_constant(self):
        for x in (Fr(2), Fr(-3), Fr(5, 7)):
            assert downsampled_sum(P([1]), x) == P([0, 1])
            assert downsampled_sum(P(), x) == P()

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="^downsampling step must be nonzero"):
            downsampled_sum(P([0, 1]), 0)

    def test_matches_literal_coarse_sum(self):
        # x * sum_{k<n/x} f(kx) at n = j*x, against literal sums, for odd
        # and even degrees and negative and fractional steps.
        rng = random.Random(19)
        for i in range(10):
            f = random_polynomial(rng, 4 + i % 2)
            for x in (Fr(2), Fr(3), Fr(5), Fr(-3), Fr(-5, 7), Fr(5, 7)):
                coarse = downsampled_sum(f, x)
                for j in (0, 1, 4, 10):
                    literal = x * sum((f(k * x) for k in range(j)), Fr(0))
                    assert coarse(j * x) == literal


class TestMasterIdentity:
    def test_hand_worked_spot(self):
        """f(k) = k at x = 2, n = 4: 6 = 4 + 2."""
        f = P([0, 1])
        family = correction_family(2)
        lhs = indefinite_sum(f)(Fr(4))
        coarse = downsampled_sum(f, 2)(Fr(4))
        assert (lhs, coarse) == (6, 4)
        # Only the r = 1 correction survives: w_1(2) = 1/2 times f(4)-f(0).
        assert family.weights[1](Fr(2)) == Fr(1, 2)
        assert lhs == coarse + Fr(1, 2) * (f(Fr(4)) - f(Fr(0)))
        assert scaled_difference_residual(f, 2, family).is_zero

    def test_step_one_terms_vanish_individually(self, family20):
        rng = random.Random(23)
        f = random_polynomial(rng, 8)
        for r in range(1, f.degree + 2):
            assert family20.weights[r](Fr(1)) == 0
            assert family20.unit_weights[r](Fr(1)) == 0
        assert scaled_difference_residual(f, 1, family20).is_zero
        assert unit_difference_residual(f, 1, family20).is_zero

    def test_sample_of_random_polynomials(self, family20):
        rng = random.Random(29)
        for _ in range(10):
            f = random_polynomial(rng, 6)
            for x in X_GRID:
                step_form = scaled_difference_residual(f, x, family20)
                unit_form = unit_difference_residual(f, x, family20)
                assert step_form.is_zero, (f, x, step_form)
                assert unit_form.is_zero, (f, x, unit_form)

    def test_specific_examples(self, family20):
        assert scaled_difference_residual(P([0, 0, 1]), Fr(1, 2), family20).is_zero
        assert unit_difference_residual(P([0, 1]), 2, family20).is_zero
        assert unit_difference_residual(P([0, 0, 0, 1]), Fr(1, 3), family20).is_zero

    def test_truncation_is_exact(self):
        rng = random.Random(31)
        f = random_polynomial(rng, 5)
        for x in (Fr(2), Fr(-1, 2)):
            for extra in (1, 2, 3):
                assert forward_difference(f, x, f.degree + extra).is_zero

    def test_family_too_short(self):
        f = P([0, 0, 0, 1])
        with pytest.raises(DownsumError, match="^family has max_order 2, identity needs 4$"):
            scaled_difference_residual(f, 2, correction_family(2))
        with pytest.raises(DownsumError, match="^family has max_order 2, identity needs 4$"):
            unit_difference_residual(f, 2, correction_family(2))

    def test_zero_step_is_the_classical_limit(self, family20):
        # At x = 0 the coarse sum is the integral and the step differences
        # are derivatives: Euler-Maclaurin and Gregory.
        rng = random.Random(53)
        for _ in range(6):
            f = random_polynomial(rng, 7)
            step_form = scaled_difference_residual(f, 0, family20)
            unit_form = unit_difference_residual(f, 0, family20)
            assert step_form.is_zero, (f, step_form)
            assert unit_form.is_zero, (f, unit_form)


class TestDerivativeForm:
    def test_squares_hand_expansion(self, calculus):
        # n^3/3 - n^2/2 + n/6 decomposed as integral + corrections.
        derivative, antiderivative = calculus
        f = P([0, 0, 1])
        assert euler_maclaurin_residual(f).is_zero
        s = indefinite_sum(f)
        integral = antiderivative(f)
        # B_1 = -1/2 weights f(n) - f(0); B_2 = 1/6 weights f'(n) - f'(0).
        rebuilt = (
            integral
            + Fr(-1, 2) * f
            + Fr(1, 6) / factorial(2) * (derivative(f) - P())
        )
        assert rebuilt == s

    def test_constant(self):
        assert euler_maclaurin_residual(P([1])).is_zero
        assert euler_maclaurin_residual(P()).is_zero

    def test_quartic(self):
        assert euler_maclaurin_residual(P([0, 0, 0, 0, 1])).is_zero

    def test_matches_in_test_bernoulli_construction(self, calculus):
        """Rebuild the derivative-form residual from scratch with Bernoulli
        numbers from the classical recurrence; it must agree."""
        derivative, antiderivative = calculus
        bernoulli = [Fr(1)]
        for m in range(1, 12):
            bernoulli.append(-sum(comb(m + 1, j) * bernoulli[j] for j in range(m)) / (m + 1))
        rng = random.Random(37)
        for _ in range(8):
            f = random_polynomial(rng, 8)
            residual = indefinite_sum(f) - antiderivative(f)
            g = f
            for r in range(1, f.degree + 2):
                span = g - P([g(Fr(0))])
                residual = residual - bernoulli[r] / factorial(r) * span
                g = derivative(g)
            assert residual.is_zero
            assert euler_maclaurin_residual(f) == residual


class TestQuadratureForm:
    def test_linear_hand_expansion(self, calculus):
        # n^2/2 = n(n-1)/2 + (1/2) n with G_1 = 1/2 and no higher terms.
        _, antiderivative = calculus
        f = P([0, 1])
        assert gregory_residual(f).is_zero
        assert antiderivative(f) == indefinite_sum(f) + Fr(1, 2) * f

    def test_constant(self):
        assert gregory_residual(P([1])).is_zero
        assert gregory_residual(P()).is_zero

    def test_cubic(self):
        assert gregory_residual(P([0, 0, 0, 1])).is_zero

    def test_matches_in_test_gregory_construction(self, calculus):
        """Rebuild the quadrature-form residual from scratch with Gregory
        coefficients from sum_{k<=n} G_k (-1)^(n-k)/(n-k+1) = 0 (the series
        of z/log(1+z)) and pointwise unit differences; it must agree."""
        _, antiderivative = calculus
        gregory = [Fr(1)]
        for n in range(1, 12):
            gregory.append(-sum(gregory[k] * Fr((-1) ** (n - k), n - k + 1) for k in range(n)))
        assert gregory[1:4] == [Fr(1, 2), Fr(-1, 12), Fr(1, 24)]
        rng = random.Random(59)
        for _ in range(8):
            f = random_polynomial(rng, 8)
            residual = antiderivative(f) - indefinite_sum(f)
            for r in range(1, f.degree + 2):
                # D^{r-1} f(t) = sum_j (-1)^(r-1-j) C(r-1, j) f(t + j)
                difference = P()
                for j in range(r):
                    difference = difference + (-1) ** (r - 1 - j) * comb(r - 1, j) * f.shift(j)
                span = difference - P([difference(Fr(0))])
                residual = residual - gregory[r] * span
            assert residual.is_zero
            assert gregory_residual(f) == residual


class TestAlternatingForm:
    def test_linear_hand_expansion(self):
        # sum_{k<2m} (-1)^k k = -m; only the r = 0 term contributes.
        f = P([0, 1])
        paired = f.scale_argument(2) - f.shift(1).scale_argument(2)
        assert indefinite_sum(paired) == P([0, -1])
        assert alternating_residual(f).is_zero

    def test_constant(self):
        assert alternating_residual(P([1])).is_zero
        assert alternating_residual(P()).is_zero

    def test_squares(self):
        assert alternating_residual(P([0, 0, 1])).is_zero

    def test_matches_literal_alternating_sum(self):
        rng = random.Random(41)
        f = random_polynomial(rng, 6)
        paired = f.scale_argument(2) - f.shift(1).scale_argument(2)
        lhs = indefinite_sum(paired)
        for m in (0, 1, 3, 9):
            literal = sum(((-1) ** k * f(Fr(k)) for k in range(2 * m)), Fr(0))
            assert lhs(Fr(m)) == literal


class TestReductionsBatch:
    def test_all_three_on_random_sample(self):
        rng = random.Random(43)
        for _ in range(12):
            f = random_polynomial(rng, 8)
            assert euler_maclaurin_residual(f).is_zero
            assert gregory_residual(f).is_zero
            assert alternating_residual(f).is_zero


class TestRandomPolynomial:
    def test_deterministic(self):
        assert random_polynomial(random.Random(7), 5) == random_polynomial(
            random.Random(7), 5
        )

    def test_degree_bound(self):
        rng = random.Random(47)
        for _ in range(30):
            assert random_polynomial(rng, 4).degree <= 4
