"""Tests for the exact arithmetic layer: rationals, polynomials, series."""

import random
import sys
from fractions import Fraction as Fr
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from downsum import (
    Polynomial,
    PowerSeries,
    format_rational,
    parse_rational,
)
from downsum.exact import _linear_combination

from . import oracle

P = Polynomial


def rational_strategy():
    return st.fractions(
        min_value=-50, max_value=50, max_denominator=20
    )


def poly_strategy(max_degree=6):
    return st.lists(rational_strategy(), max_size=max_degree + 1).map(Polynomial)


class TestRationalText:
    def test_parse_fraction(self):
        assert parse_rational("3/4") == Fr(3, 4)
        assert parse_rational("-7") == Fr(-7)
        assert parse_rational(" 22/7 ") == Fr(22, 7)

    def test_parse_unicode_minus(self):
        assert parse_rational("−1/2") == Fr(-1, 2)

    def test_parse_normalizes(self):
        assert parse_rational("2/4") == Fr(1, 2)
        assert parse_rational("0/5") == 0

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("x")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_parse_decimal(self):
        assert parse_rational("2.5e3") == 2500
        assert parse_rational("-3/4") == Fr(-3, 4)
        assert parse_rational("1e-4300") == Fr(1, 10**4300)
        assert parse_rational("1E+2") == 100

    @pytest.mark.parametrize("text", ["1e5000", "1e-99999999999", "2.5E+1_000_000_000", "1e" + "9" * 5000])
    def test_parse_rejects_exponent_past_digit_limit(self, text):
        """An exponent past the int->str digit limit fails as fast as the
        written-out number does, instead of building a huge power of ten."""
        with pytest.raises(ValueError, match="^not a rational number: "):
            parse_rational(text)

    def test_parse_without_digit_limit_takes_any_exponent(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert parse_rational("1e5000") == 10**5000
        finally:
            sys.set_int_max_str_digits(limit)

    def test_format(self):
        assert format_rational(Fr(3, 4)) == "3/4"
        assert format_rational(Fr(-5)) == "-5"
        assert format_rational(Fr(0)) == "0"

    @given(st.integers(-(2**6000), 2**6000), st.integers(1, 2**6000))
    @example(10**1806 - 1, 1)
    @example(-(10**1024), 10**640 + 1)
    @example(3**3000 + 1, 7**900)
    @example(-(2**6000), 1)
    @settings(max_examples=50, deadline=None)
    def test_format_past_the_digit_limit(self, num, den):
        """Under a 640-digit int->str limit, ints of up to 6000 bits (1807
        digits) print split by powers of ten, as str() prints them unlimited."""
        value = Fr(num, den)
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            text = format_rational(value)
            sys.set_int_max_str_digits(0)
            expected = str(value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert text == expected

    def test_roundtrip(self):
        for text in ["1", "-1/3", "22/7", "0"]:
            assert format_rational(parse_rational(text)) == text

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_normalization_invariant(self, num, den):
        value = Fr(num, den)
        assert value.denominator > 0
        assert gcd(abs(value.numerator), value.denominator) == 1

    @given(rational_strategy(), rational_strategy(), rational_strategy())
    def test_addition_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(rational_strategy(), rational_strategy(), rational_strategy())
    def test_multiplication_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)


class TestPolynomialBasics:
    def test_trailing_zeros_trimmed(self):
        assert P([1, 2, 0, 0]).coeffs == (Fr(1), Fr(2))
        assert P([0]).coeffs == ()
        assert P([]).degree == -1
        assert P([0]).is_zero

    def test_degree_and_leading(self):
        p = P([1, 0, Fr(3, 2)])
        assert p.degree == 2
        assert p.coefficient(p.degree) == Fr(3, 2)
        assert p.coefficient(0) == 1
        assert P().coefficient(P().degree) == 0

    def test_coefficient_past_end_is_zero(self):
        assert P([1, 2]).coefficient(5) == 0

    def test_text_roundtrip(self):
        p = P([0, Fr(-1, 6), 0, Fr(1, 6)])
        assert P.from_text(p.text()) == p
        assert P.from_text("0,-1/6,0,1/6") == p
        assert P().text() == "0"

    def test_equality_and_hash(self):
        assert P([1, 2]) == P([Fr(1), Fr(2), 0])
        assert hash(P([1, 2])) == hash(P([1, 2, 0]))
        assert P([1]) != P([2])
        # The integer route and the Fraction route meet in one representation.
        for built, ints in (
            (P([Fr(1, 2), Fr(-3, 4)]), P._from_ints([4, -6, 0], 8)),
            (P([0, 0]), P._from_ints([0], 7)),
            (P([Fr(6, 3)]), P._from_ints([2], 1, lowest=True)),
        ):
            assert built == ints and hash(built) == hash(ints)

    def test_pretty(self):
        assert P([Fr(-1, 2), Fr(1, 2)]).pretty(var="x") == "1/2*x - 1/2"
        assert P().pretty() == "0"


class TestPolynomialEval:
    def test_weight_value(self):
        # -(x^2 - 1)/6 at 2
        p = P([Fr(1, 6), 0, Fr(-1, 6)])
        assert p(Fr(2)) == Fr(-1, 2)

    def test_constant(self):
        assert P([1])(Fr(7, 3)) == 1

    def test_root(self):
        p = P([0, Fr(-1, 4), 0, Fr(1, 4)])  # (x^3 - x)/4
        assert p(Fr(1)) == 0


class TestShift:
    def test_square(self):
        assert P([0, 0, 1]).shift(2) == P([4, 4, 1])

    def test_linear_fractional_step(self):
        assert P([0, 1]).shift(Fr(1, 3)) == P([Fr(1, 3), 1])

    def test_constant_unchanged(self):
        assert P([5]).shift(Fr(9, 7)) == P([5])

    @given(poly_strategy(), rational_strategy(), rational_strategy())
    @settings(max_examples=60)
    def test_composition(self, p, a, b):
        assert p.shift(a).shift(b) == p.shift(a + b)

    @given(poly_strategy(), rational_strategy(), rational_strategy())
    @settings(max_examples=60)
    def test_agrees_with_evaluation(self, p, step, at):
        assert p.shift(step)(at) == p(at + step)


class TestCalculus:
    """The test-side calculus oracle (tests/oracle.py) on hand-worked cases."""

    def test_square(self):
        assert oracle.derivative([0, 0, 1]) == [0, 2]
        assert oracle.antiderivative([0, 0, 1]) == [0, 0, 0, Fr(1, 3)]

    def test_constant(self):
        assert oracle.derivative([1]) == []
        assert oracle.antiderivative([1]) == [0, 1]

    def test_cubic(self):
        p = [0, -1, 0, 1]
        assert oracle.derivative(p) == [-1, 0, 3]
        assert oracle.antiderivative(p) == [0, 0, Fr(-1, 2), 0, Fr(1, 4)]

    @given(st.lists(rational_strategy(), max_size=7))
    def test_round_trip(self, p):
        assert oracle.derivative(oracle.antiderivative(p)) == oracle.trim(p)

    def test_antiderivative_zero_at_origin(self):
        assert oracle.value(oracle.antiderivative([3, 1, 4]), Fr(0)) == 0


class TestPolynomialAlgebra:
    def test_scalar_ops(self):
        p = P([1, 2])
        assert 3 * p == P([3, 6])
        assert p * Fr(1, 2) == P([Fr(1, 2), 1])
        assert p * -1 == P([-1, -2])


# The integer-numerator core is checked against the plain Fraction-list
# polynomials of tests/oracle.py, ascending and trimmed.


def coefficient_lists(max_degree=7):
    # Wider denominators than poly_strategy, so common denominators and
    # content gcds are exercised; trailing zeros are left in on purpose.
    rationals = st.builds(Fr, st.integers(-10**6, 10**6), st.integers(1, 10**4))
    return st.lists(rationals | st.just(Fr(0)), max_size=max_degree + 1)


WIDE_RATIONAL = st.builds(Fr, st.integers(-1000, 1000), st.integers(1, 1000))


def _ref_rational(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _ref_text(a):
    return ",".join(_ref_rational(c) for c in a) or "0"


def _ref_pretty(a, var):
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if i == 0:
            body = _ref_rational(mag)
        else:
            symbol = var if i == 1 else f"{var}^{i}"
            body = symbol if mag == 1 else f"{_ref_rational(mag)}*{symbol}"
        parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
    return " ".join(parts) or "0"


# Numerators and denominators up to 6000 bits: under the interpreter's
# default str() digit limit, which the reference formatter relies on.
HUGE_RATIONAL = st.builds(Fr, st.integers(-(2**6000), 2**6000), st.integers(1, 2**6000))


class TestAgainstFractionOracle:
    @given(coefficient_lists(), coefficient_lists())
    def test_ring_operations(self, a, b):
        p, q = P(a), P(b)
        a, b = oracle.trim(a), oracle.trim(b)
        assert list((p + q).coeffs) == oracle.combination([(1, a), (1, b)])
        assert list((p + q * -1).coeffs) == oracle.combination([(1, a), (-1, b)])
        assert list((p * q).coeffs) == oracle.mul(a, b)

    @given(coefficient_lists(), WIDE_RATIONAL)
    def test_scalar_operations(self, a, s):
        p, a = P(a), oracle.trim(a)
        assert list((p * s).coeffs) == oracle.trim(c * s for c in a)
        assert list((s * p).coeffs) == oracle.trim(c * s for c in a)
        assert list((p * int(s)).coeffs) == oracle.trim(c * int(s) for c in a)

    @given(coefficient_lists(), WIDE_RATIONAL)
    @example([], Fr(-3, 7))
    @example([Fr(-5, 2)], Fr(-3, 7))
    @example([Fr(k - 12, k + 1) for k in range(26)], Fr(-3, 7))
    def test_shift_and_evaluation(self, a, s):
        p, a = P(a), oracle.trim(a)
        assert list(p.shift(s).coeffs) == oracle.shift(a, s)
        assert p(s) == oracle.value(a, s)
        assert p(int(s)) == oracle.value(a, int(s))

    @given(
        st.lists(
            st.sampled_from([Fr(0), Fr(1), Fr(-1)]) | WIDE_RATIONAL | HUGE_RATIONAL, max_size=8
        ),
        st.sampled_from(["t", "x"]),
    )
    @example([Fr(3**3000, 7**900), Fr(-1), Fr(0), Fr(-(2**4097), 5**1000), Fr(1)], "x")
    @example([Fr(-1), Fr(0), Fr(2**2001 - 1, 3)], "t")
    @example([], "t")
    def test_text_and_pretty(self, a, var):
        p, a = P(a), oracle.trim(a)
        assert p.text() == _ref_text(a)
        assert p.pretty(var) == _ref_pretty(a, var)

    @given(coefficient_lists())
    def test_coeffs_in_lowest_terms(self, a):
        p = P(a)
        assert list(p.coeffs) == oracle.trim(a)
        for c in p.coeffs:
            assert type(c) is Fr
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
        assert p.degree == len(p.coeffs) - 1
        assert p.coefficient(p.degree) == (p.coeffs[-1] if p.coeffs else 0)
        assert p.coefficient(0) == (p.coeffs[0] if p.coeffs else 0)

    @given(
        st.lists(
            st.tuples(WIDE_RATIONAL | st.integers(-5, 5) | st.just(Fr(0)), coefficient_lists()),
            max_size=6,
        )
    )
    def test_linear_combination(self, pairs):
        expected = oracle.combination(pairs)
        terms = [(Fr(c), P(a)) for c, a in pairs]
        combination = _linear_combination(
            [(c.numerator, c.denominator * p._den, p._num) for c, p in terms]
        )
        assert list(combination.coeffs) == expected
        assert combination == P(expected)  # one canonical representation
        cancelled = [
            (sign * c.numerator, c.denominator * p._den, p._num) for c, p in terms for sign in (1, -1)
        ]
        assert _linear_combination(cancelled) == P()
        assert _linear_combination([(0, 1, p._num) for _, p in terms]) == P()

    @given(coefficient_lists(max_degree=3), coefficient_lists(max_degree=3), WIDE_RATIONAL)
    def test_equality_agrees_with_hash(self, a, b, s):
        # Equal values built along different routes share one representation.
        pa = P(a)
        routes = (
            (pa, P(b)),
            (pa * s * 2 * Fr(1, 2), pa * s),
            (pa + P(b) + P(b) * -1, pa),
            (_linear_combination([(3, 3 * pa._den, pa._num)]), pa),
        )
        for p, q in routes:
            assert (p == q) == (oracle.trim(p.coeffs) == oracle.trim(q.coeffs))
            if p == q:
                assert hash(p) == hash(q)


def _random_series(rng, order, unit_constant=False, zero_constant=False):
    coeffs = []
    for i in range(order + 1):
        coeffs.append(
            Polynomial([Fr(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])
        )
    if unit_constant:
        coeffs[0] = Polynomial((1,))
    if zero_constant:
        coeffs[0] = Polynomial()
    return PowerSeries(coeffs)


class TestPowerSeries:
    def test_mul_truncates(self):
        one_plus = PowerSeries([P([1]), P([1]), P()])
        one_minus = PowerSeries([P([1]), P([-1]), P()])
        assert one_plus * one_minus == PowerSeries([P([1]), P(), P([-1])])

    def test_mul_identity(self):
        rng = random.Random(3)
        a = _random_series(rng, 5)
        assert a * PowerSeries.one(5) == a

    def test_mul_hand_expansion(self):
        # sum z^m / (m+1)! squared, through order 3
        a = PowerSeries([P([Fr(1)]), P([Fr(1, 2)]), P([Fr(1, 6)]), P([Fr(1, 24)])])
        product = a * a
        expected = [Fr(1), Fr(1), Fr(7, 12), Fr(1, 4)]
        assert [c.coefficient(0) for c in product.coeffs] == expected

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            PowerSeries.one(3) * PowerSeries.one(4)
        with pytest.raises(ValueError):
            PowerSeries.one(3) + PowerSeries.one(2)

    def test_sub_inverts_add(self):
        rng = random.Random(5)
        for _ in range(6):
            order = rng.randint(0, 8)
            a, b = _random_series(rng, order), _random_series(rng, order)
            assert (a - b) + b == a
            assert a - a == PowerSeries([P()] * (order + 1))
        with pytest.raises(ValueError, match="series orders differ: 3 vs 2"):
            PowerSeries.one(3) - PowerSeries.one(2)

    def test_reciprocal_geometric(self):
        a = PowerSeries([P([1]), P([1]), P(), P(), P()])
        expected = PowerSeries([P([1]), P([-1]), P([1]), P([-1]), P([1])])
        assert a.reciprocal() == expected

    def test_reciprocal_bernoulli_generating_series(self):
        # 1 / ((e^z - 1)/z): coefficients are the Bernoulli numbers over r!.
        from math import factorial

        a = PowerSeries([P([Fr(1, factorial(m + 1))]) for m in range(5)])
        inv = a.reciprocal()
        values = [c.coefficient(0) for c in inv.coeffs]
        assert values == [Fr(1), Fr(-1, 2), Fr(1, 12), Fr(0), Fr(-1, 720)]

    def test_reciprocal_of_one(self):
        assert PowerSeries.one(4).reciprocal() == PowerSeries.one(4)

    def test_reciprocal_requires_unit_constant(self):
        with pytest.raises(ValueError):
            PowerSeries([P([2]), P([1])]).reciprocal()

    def test_reciprocal_inverts(self):
        rng = random.Random(99)
        for _ in range(8):
            order = rng.randint(1, 12)
            a = _random_series(rng, order, unit_constant=True)
            assert a * a.reciprocal() == PowerSeries.one(order)

    def test_exp_of_z(self):
        from math import factorial

        z = PowerSeries([P(), P([1]), P(), P(), P()])
        result = z.exp()
        assert [c.coefficient(0) for c in result.coeffs] == [
            Fr(1, factorial(n)) for n in range(5)
        ]

    def test_exp_of_zero(self):
        zero = PowerSeries([P()] * 4)
        assert zero.exp() == PowerSeries.one(3)

    def test_exp_log_identity(self):
        order = 8
        log_series = PowerSeries(
            [P()] + [P([Fr((-1) ** (m + 1), m)]) for m in range(1, order + 1)]
        )
        result = log_series.exp()
        expected = PowerSeries([P([1]), P([1])] + [P()] * (order - 1))
        assert result == expected

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            PowerSeries([P([1]), P([1])]).exp()

    def test_exp_additivity(self):
        rng = random.Random(7)
        for _ in range(6):
            order = rng.randint(1, 10)
            a = _random_series(rng, order, zero_constant=True)
            b = _random_series(rng, order, zero_constant=True)
            assert (a + b).exp() == a.exp() * b.exp()

    def test_needs_constant_coefficient(self):
        with pytest.raises(ValueError):
            PowerSeries([])
