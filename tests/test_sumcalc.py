"""Tests for finite differences, indefinite sums, and the summation identities."""

import itertools
import random
from fractions import Fraction as Fr
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from downsum import (
    CorrectionFamily,
    DownsumError,
    Polynomial,
    alternating_residual,
    correction_family,
    downsampled_sum,
    euler_maclaurin_residual,
    gregory_residual,
    indefinite_sum,
    random_polynomial,
    scaled_difference_residual,
    step_identity_residuals,
    unit_difference_residual,
)
from downsum.sumcalc import _faulhaber

from . import oracle

P = Polynomial

X_GRID = [Fr(-2), Fr(-1), Fr(-1, 2), Fr(1, 3), Fr(1, 2), Fr(1), Fr(2), Fr(3)]

WIDE_RATIONAL = st.builds(Fr, st.integers(-1000, 1000), st.integers(1, 1000))
NONZERO_STEP = st.builds(Fr, st.integers(-12, 12).filter(bool), st.integers(1, 12))
# Any step: 0, small integers, and rationals with numerator and denominator up
# to 10^40, some written over a common factor (which Fraction reduces).
ANY_STEP = st.one_of(
    st.integers(-3, 3),
    st.builds(Fr, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
    st.builds(lambda p, q, g: Fr(p * g, q * g), st.integers(-9, 9), st.integers(1, 9), st.integers(2, 10**20)),
)


class TestFaulhaberRows:
    """The two factors of the Faulhaber rows, from the one builder, against the oracle."""

    def test_sum_rows_are_falling_factorial_sums(self):
        # sum_{k<n} (k)_m = (n)_{m+1}/(m+1), over den = lcm(1..16) = 720720
        _, sums, den = _faulhaber(16)
        assert den == 720720
        assert len(sums) == 16
        for m, row in enumerate(sums):
            expected = [c / (m + 1) for c in oracle.falling_factorial(m + 1)]
            assert [Fr(c, den) for c in row] == expected, m
            falling = oracle.falling_factorial(m)
            for n in range(m + 3):
                assert oracle.value(expected, n) == sum(oracle.value(falling, k) for k in range(n)), (m, n)

    def test_second_kind_rows_expand_powers(self):
        # t^m = sum_k S(m, k) (t)_k
        second, _, _ = _faulhaber(16)
        assert len(second) == 17
        for m, row in enumerate(second):
            expanded = oracle.combination((s, oracle.falling_factorial(k)) for k, s in enumerate(row))
            assert expanded == [0] * m + [1], m

    def test_rows_match_literal_power_sums(self):
        # The builder's two factors give sum_{k<n} k^j = sum_m S(j, m) (n)_{m+1}/(m+1);
        # the oracle's sum_i C(j+1, i) B_i n^(j+1-i) / (j+1), with B_1 = -1/2, is
        # checked against literal sums first.  Its n coefficient F_j[1] is B_j.
        second, sums, den = _faulhaber(16)
        for j in range(16):
            expected = _power_sum(j)
            for n in range(j + 3):
                assert oracle.value(expected, n) == sum(k**j for k in range(n)), (j, n)
            assert oracle.combination((Fr(s, den), sums[m]) for m, s in enumerate(second[j])) == expected, j

    def test_zero_step_coarse_sum_is_the_integral(self):
        # With every weight zero the x = 0 scaled residual of t^j is its gap,
        # the power sum minus the coarse sum, which at x = 0 is the integral.
        zero = (P(),) * 17
        monomials = [P([0] * j + [1]) for j in range(16)]
        residuals = step_identity_residuals(monomials, [0], CorrectionFamily(zero, zero), terms=16)
        for j, [(scaled, _)] in enumerate(residuals):
            coarse = oracle.combination([(1, _power_sum(j)), (-1, scaled.coeffs)])
            assert coarse == oracle.antiderivative([0] * j + [1]), j

    def test_empty(self):
        assert _faulhaber(0) == ([[1]], [], 1)


def _power_sum(j):
    """sum_{k<n} k^j as a polynomial in n, from the Bernoulli numbers of the oracle."""
    bernoulli = oracle.bernoulli(j)
    expected = [Fr(0)] * (j + 2)
    for i in range(j + 1):
        expected[j + 1 - i] = Fr(comb(j + 1, i)) * bernoulli[i] / (j + 1)
    return expected


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
            s = indefinite_sum(f).coeffs
            assert oracle.combination([(1, oracle.shift(s, 1)), (-1, s)]) == list(f.coeffs)
            assert oracle.value(s, 0) == 0

    def test_linearity(self):
        rng = random.Random(13)
        for _ in range(15):
            f = random_polynomial(rng, 7)
            g = random_polynomial(rng, 7)
            a = Fr(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fr(rng.randint(-9, 9), rng.randint(1, 9))
            combined = P(oracle.combination([(a, f.coeffs), (b, g.coeffs)]))
            expected = oracle.combination(
                [(a, indefinite_sum(f).coeffs), (b, indefinite_sum(g).coeffs)]
            )
            assert list(indefinite_sum(combined).coeffs) == expected

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
            literal = sum((oracle.value(coeffs, Fr(k)) for k in range(n)), Fr(0))
            assert s(Fr(n)) == literal

    @given(st.lists(WIDE_RATIONAL, min_size=1, max_size=13), NONZERO_STEP)
    @settings(deadline=None)
    def test_downsampled_sum(self, coeffs, x):
        coarse = downsampled_sum(P(coeffs), x)
        for j in range(len(coeffs) + 1):
            literal = x * sum((oracle.value(coeffs, k * x) for k in range(j)), Fr(0))
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

    def test_one_call_over_polynomials_of_different_degrees(self, perturbed_family):
        """One call checks polynomials of degree 5 and 2 and the zero polynomial.

        Every weight of order 1..6 is off by delta * x^m, so each residual
        is oracle.perturbed_residuals; the quadratic reads a prefix of each
        weight row and the zero polynomial none of it.  The grid names 5/2
        and 2 twice each and holds 0 and 1.
        """
        bumps = {r: (r % 3, Fr((-1) ** r * r, 7)) for r in range(1, 7)}
        family = perturbed_family(correction_family(6), bumps)
        fs = [[Fr(3, 4), -2, 0, Fr(1, 5), Fr(-7, 3), 9], [5, Fr(-1, 2), Fr(2, 9)], []]
        grid = [Fr(-2, 3), 0, Fr(5, 2), 2, 1, Fr(-3), Fr(5, 2), Fr(4, 2)]
        results = list(step_identity_residuals([P(f) for f in fs], grid, family, terms=6))
        assert len(results) == len(fs)
        for f, pairs in zip(fs, results):
            expected = [tuple(P(r) for r in oracle.perturbed_residuals(f, x, bumps)) for x in grid]
            assert pairs == expected, f
            assert any(not (step.is_zero and unit.is_zero) for step, unit in pairs) == bool(f)

    @given(
        st.lists(st.lists(WIDE_RATIONAL, max_size=13), min_size=1, max_size=3),
        st.lists(ANY_STEP, min_size=1, max_size=3),
        st.dictionaries(st.integers(1, 13), st.tuples(st.integers(0, 4), WIDE_RATIONAL.filter(bool)), max_size=3),
    )
    @settings(max_examples=15, deadline=None)
    @example([[Fr(1, 2), 3, Fr(-1, 7)]], [Fr(1, 2), 2, Fr(-3, 5)], {1: (20, Fr(1, 3)), 12: (15, Fr(-2, 5))})
    def test_random_calls_against_the_oracle(self, perturbed_family, fs, grid, bumps):
        """Degrees 0..12 and the zero polynomial in one call, any steps, a bumped family.

        The grid repeats its first step, so a repeated step reads the same
        n rows; every residual is oracle.perturbed_residuals.  The example
        bumps two weights past degree 13, the size of the tables.
        """
        fs = [*fs, []]
        grid = [*grid, grid[0]]
        family = perturbed_family(correction_family(13), bumps)
        results = step_identity_residuals([P(f) for f in fs], grid, family, terms=13)
        for f, pairs in zip(fs, results):
            assert pairs == [tuple(P(r) for r in oracle.perturbed_residuals(f, x, bumps)) for x in grid]

    def test_each_polynomial_is_solved_as_the_iterator_reaches_it(self, family20, perturbed_family, monkeypatch):
        """The call builds each step's n rows but no residual; each next() solves
        one polynomial.  A step where the family is exact reads the one shared
        zero, with no Polynomial._from_ints; a bumped step makes two."""
        made = []
        from_ints = Polynomial._from_ints

        def counting(num, den, lowest=False):
            made.append(den)
            return from_ints(num, den, lowest)

        monkeypatch.setattr(Polynomial, "_from_ints", staticmethod(counting))
        rng = random.Random(61)
        fs = [random_polynomial(rng, 6) for _ in range(4)]
        grid = [Fr(1, 2), 2, Fr(2, 4), 0, 2]
        residuals = step_identity_residuals(fs, grid, family20, terms=7)
        assert made == []
        first = next(residuals)
        assert len(first) == 5 and all(step.is_zero and unit.is_zero for step, unit in first)
        assert first[0][0] is first[4][1]
        assert len(list(residuals)) == 3
        assert made == []
        # A bump of w_2 by x/3 is zero at x = 0, so of the steps 1/2, 2 and 0 two are bumped.
        family = perturbed_family(family20, {2: (1, Fr(1, 3))})
        residuals = step_identity_residuals(fs, grid, family, terms=7)
        assert made == []
        first = next(residuals)
        assert len(made) == 2 * 2
        assert first[3] == (P(), P()) and not first[1][0].is_zero
        assert len(list(residuals)) == 3
        assert len(made) == 2 * 2 * 4

    def test_each_residual_row_rescales_the_n_row(self):
        """The fact the n rows rest on, from the oracle alone: with M[i][j] the
        n^i coefficient of a residual of t^j, row 0 is zero and
        i M[i][j] = C(j, i-1) M[1][j-i+1] for i >= 1, in both forms."""
        size = 7
        families = [{r: (m, Fr(m + 2, r + 1))} for r in range(1, size + 1) for m in range(3)]
        families.append({r: (r % 3, Fr((-1) ** r * r, 7)) for r in range(1, size + 1)})
        nonzero = 0
        for bumps, x in itertools.product(families, [0, 2, Fr(-1, 2), Fr(5, 7)]):
            columns = [oracle.perturbed_residuals([0] * j + [1], x, bumps) for j in range(size)]
            for form in (0, 1):
                rows = [
                    [(column[form] + [0] * (size + 1))[i] for column in columns]
                    for i in range(size + 1)
                ]
                assert rows[0] == [0] * size, (bumps, x, form)
                nonzero += any(rows[1])
                for i, j in itertools.product(range(1, size + 1), range(size)):
                    rescaled = comb(j, i - 1) * rows[1][j - i + 1] if i <= j + 1 else 0
                    assert i * rows[i][j] == rescaled, (bumps, x, form, i, j)
        # A bump of order r reaches t^j only for j >= r, and one of x^m with m > 0 vanishes at 0.
        assert nonzero == 2 * (6 * 3 * 4 - 6 * 2 + 4)

    def test_streamed_polynomials_with_the_table_size(self, family20, perturbed_family):
        """The call reads fs one polynomial at a time and solves each as a call
        over a list with the same terms does; larger tables give the same
        residuals, and a polynomial of degree terms or more is refused when
        the iterator reaches it.  Two bumped weights make the residuals nonzero."""
        family = perturbed_family(family20, {2: (1, Fr(1, 3)), 4: (0, Fr(-2, 5))})
        rng = random.Random(67)
        fs = [random_polynomial(rng, 5) for _ in range(4)]
        grid = [Fr(-1, 3), 2, 0]
        drawn = []

        def draws():
            for f in fs:
                drawn.append(f)
                yield f

        expected = list(step_identity_residuals(fs, grid, family, terms=6))
        assert all(not r.is_zero for pairs in expected for pair in pairs for r in pair)
        residuals = step_identity_residuals(draws(), grid, family, terms=6)
        assert drawn == []
        assert next(residuals) == expected[0]
        assert drawn == fs[:1]
        assert list(residuals) == expected[1:]
        assert drawn == fs
        assert list(step_identity_residuals(fs, grid, family, terms=9)) == expected
        residuals = step_identity_residuals(iter([P([1]), P([0] * 9 + [1])]), grid, family20, terms=9)
        assert next(residuals) == [(P([]), P([]))] * 3
        with pytest.raises(DownsumError, match="^polynomial of degree 9 needs 10 terms, tables hold 9$"):
            next(residuals)

    @given(st.lists(WIDE_RATIONAL, max_size=30), st.lists(WIDE_RATIONAL, max_size=30), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_the_top_weight_never_enters(self, perturbed_family, top, unit_top, bumped):
        """With tables of size T, w_T and u_T would weigh D_x^(T-1) f, which is zero
        for deg f < T: any polynomials in their place leave every residual as it was."""
        size = 6
        family = correction_family(size)
        if bumped:  # nonzero residuals at every step but 0
            family = perturbed_family(family, {2: (1, Fr(1, 3)), 5: (2, Fr(-2, 5))})
        weights, unit_weights = list(family.weights), list(family.unit_weights)
        weights[size], unit_weights[size] = P(top), P(unit_top)
        swapped = CorrectionFamily(tuple(weights), tuple(unit_weights))
        rng = random.Random(73)
        fs = [*(random_polynomial(rng, size - 1) for _ in range(3)), P([0] * (size - 1) + [1]), P()]
        grid = [0, 2, Fr(-3, 2), -1, Fr(5, 7)]
        expected = list(step_identity_residuals(fs, grid, family, terms=size))
        assert list(step_identity_residuals(fs, grid, swapped, terms=size)) == expected

    @pytest.mark.parametrize("terms", [-1, -7])
    def test_negative_terms_raise_at_the_call(self, family20, terms):
        # A negative table size is wrong on its own: ValueError before any polynomial is read.
        with pytest.raises(ValueError, match="^terms must be >= 0$"):
            step_identity_residuals(iter([P([1])]), [2], family20, terms=terms)

    def test_short_family_raises_at_the_call(self):
        # The degree-3 polynomial needs order 4; nothing is iterated.
        with pytest.raises(DownsumError, match="^family has max_order 2, identity needs 4$"):
            step_identity_residuals([P([1]), P([0, 0, 0, 1])], [2, 0], correction_family(2), terms=4)

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
    def test_squares_hand_expansion(self):
        # n^3/3 - n^2/2 + n/6 decomposed as integral + corrections.
        f = [0, 0, 1]
        assert euler_maclaurin_residual(P(f)).is_zero
        # B_1 = -1/2 weights f(n) - f(0); B_2 = 1/6 weights f'(n) - f'(0).
        rebuilt = oracle.combination([
            (1, oracle.antiderivative(f)),
            (Fr(-1, 2), f),
            (Fr(1, 6) / factorial(2), oracle.derivative(f)),
        ])
        assert list(indefinite_sum(P(f)).coeffs) == rebuilt

    def test_constant(self):
        assert euler_maclaurin_residual(P([1])).is_zero
        assert euler_maclaurin_residual(P()).is_zero

    def test_quartic(self):
        assert euler_maclaurin_residual(P([0, 0, 0, 0, 1])).is_zero

    def test_matches_in_test_bernoulli_construction(self):
        """Rebuild the derivative-form residual from scratch on Fraction lists,
        with Bernoulli numbers from the classical recurrence; it must agree."""
        bernoulli = oracle.bernoulli(11)
        rng = random.Random(37)
        for _ in range(8):
            f = random_polynomial(rng, 8)
            g = list(f.coeffs)
            terms = [(1, indefinite_sum(f).coeffs), (-1, oracle.antiderivative(g))]
            for r in range(1, f.degree + 2):
                terms.append((-bernoulli[r] / factorial(r), [0, *g[1:]]))  # g(n) - g(0)
                g = oracle.derivative(g)
            residual = oracle.combination(terms)
            assert residual == []
            assert euler_maclaurin_residual(f) == P(residual)


class TestQuadratureForm:
    def test_linear_hand_expansion(self):
        # n^2/2 = n(n-1)/2 + (1/2) n with G_1 = 1/2 and no higher terms.
        f = P([0, 1])
        assert gregory_residual(f).is_zero
        rebuilt = oracle.combination([(1, indefinite_sum(f).coeffs), (Fr(1, 2), f.coeffs)])
        assert oracle.antiderivative(f.coeffs) == rebuilt

    def test_constant(self):
        assert gregory_residual(P([1])).is_zero
        assert gregory_residual(P()).is_zero

    def test_cubic(self):
        assert gregory_residual(P([0, 0, 0, 1])).is_zero

    def test_matches_in_test_gregory_construction(self):
        """Rebuild the quadrature-form residual from scratch on Fraction lists,
        with Gregory coefficients from the series of z/log(1+z) and unit
        differences from the binomial sum of shifts; it must agree."""
        gregory = oracle.gregory(11)
        assert gregory[1:4] == [Fr(1, 2), Fr(-1, 12), Fr(1, 24)]
        rng = random.Random(59)
        for _ in range(8):
            f = random_polynomial(rng, 8)
            terms = [(1, oracle.antiderivative(f.coeffs)), (-1, indefinite_sum(f).coeffs)]
            for r in range(1, f.degree + 2):
                difference = oracle.difference(f.coeffs, 1, r - 1)
                terms.append((-gregory[r], [0, *difference[1:]]))
            residual = oracle.combination(terms)
            assert residual == []
            assert gregory_residual(f) == P(residual)


class TestAlternatingForm:
    def test_linear_hand_expansion(self):
        # sum_{k<n} (-1)^k k = -n/2 at even n; only the r = 0 term contributes.
        f = P([0, 1])
        lhs = oracle.combination([(1, downsampled_sum(f, 2).coeffs), (-1, indefinite_sum(f).coeffs)])
        assert lhs == [0, Fr(-1, 2)]
        assert alternating_residual(f).is_zero

    def test_constant(self):
        assert alternating_residual(P([1])).is_zero
        assert alternating_residual(P()).is_zero

    def test_squares(self):
        assert alternating_residual(P([0, 0, 1])).is_zero

    def test_matches_literal_alternating_sum(self):
        rng = random.Random(41)
        f = random_polynomial(rng, 6)
        lhs = oracle.combination([(1, downsampled_sum(f, 2).coeffs), (-1, indefinite_sum(f).coeffs)])
        for m in (0, 1, 3, 9):
            literal = sum(((-1) ** k * f(Fr(k)) for k in range(2 * m)), Fr(0))
            assert oracle.value(lhs, Fr(2 * m)) == literal


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
