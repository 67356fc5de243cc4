"""Tests for the weight family: generation, structure, constants.

The library builds the family and the constants from one closed form over
integer Gregory (falling-factorial moment) and Stirling rows, reading each
Bernoulli number off its own row through F_r(1) = 0.  The oracles below share no code with it: the first seven
weights written out longhand, the Bernoulli recurrence, the series expansion
of z/log(1+z) and (x)_n multiplied out on Fraction lists (tests/oracle.py),
the Gregory-Stirling convolution the closed form collapses, the generating
function itself expanded as power series (log, then exp, then reciprocal),
and its value at x = 1/k, where it is the reciprocal of a degree k-1
polynomial in z.  The values at a point read off the fixed-point recurrence
are checked against the closed-form family evaluated by Horner's rule.
"""

import gc
import random
import weakref
from fractions import Fraction as Fr
from math import comb, factorial, gcd, lcm, perm

import pytest

import downsum.cli
import downsum.family
from downsum import (
    CorrectionFamily,
    Polynomial,
    PowerSeries,
    coefficient_table,
    correction_family,
    unit_weight_recurrence_residual,
    weight_recurrence_residual,
)
from downsum.family import _gregory_numerators, _values_at

from . import oracle

P = Polynomial

# w_0 .. w_5 and their reversals, written out longhand.
KNOWN_WEIGHTS = [
    P([1]),
    P([Fr(-1, 2), Fr(1, 2)]),                          # (x-1)/2
    P([Fr(1, 6), 0, Fr(-1, 6)]),                       # -(x^2-1)/6
    P([0, Fr(-1, 4), 0, Fr(1, 4)]),                    # (x^3-x)/4
    P([Fr(-1, 30), 0, Fr(2, 3), 0, Fr(-19, 30)]),      # -(19x^4-20x^2+1)/30
    P([0, Fr(1, 4), 0, Fr(-5, 2), 0, Fr(9, 4)]),       # (9x^5-10x^3+x)/4
]
KNOWN_UNIT_WEIGHTS = [
    P([1]),
    P([Fr(1, 2), Fr(-1, 2)]),                          # -(x-1)/2
    P([Fr(-1, 6), 0, Fr(1, 6)]),                       # (x^2-1)/6
    P([Fr(1, 4), 0, Fr(-1, 4)]),                       # -(x^2-1)/4
    P([Fr(-19, 30), 0, Fr(2, 3), 0, Fr(-1, 30)]),      # -(x^4-20x^2+19)/30
    P([Fr(9, 4), 0, Fr(-5, 2), 0, Fr(1, 4)]),          # (x^4-10x^2+9)/4
]


def reversal(w, degree):
    """x^degree * w(1/x), the coefficients of w reversed at degree >= deg w."""
    padded = list(w.coeffs) + [Fr(0)] * (degree + 1 - len(w.coeffs))
    return P(reversed(padded))


def family_by_series(max_order):
    """w_0..w_R and their reversals u_0..u_R from the generating function.

    log(1+x*z)/x has the z^m coefficient (-1)^(m+1) * x^(m-1) / m; its
    exponential is (1+x*z)^(1/x), which shifted down one power of z and
    inverted gives sum_r w_r z^r / r!.  u_r is w_r reversed at degree r.
    """
    log_coeffs = [P()] + [
        P([0] * (m - 1) + [Fr((-1) ** (m + 1), m)]) for m in range(1, max_order + 2)
    ]
    exponential = PowerSeries(log_coeffs).exp()
    inverse = PowerSeries(exponential.coeffs[1:]).reciprocal()
    weights = [factorial(r) * inverse.coeffs[r] for r in range(max_order + 1)]
    return weights, [reversal(w, r) for r, w in enumerate(weights)]


def family_by_convolution(max_order):
    """w_0..w_R from [x^m] w_r = B_{r-m} * sum_{j<=m} (r)_j * G_j * s(r-j, r-m).

    The Stirling numbers s(n, k) are the coefficients of (x)_n multiplied
    out on Fraction lists.
    """
    bernoulli = oracle.bernoulli(max_order)
    gregory = oracle.gregory(max_order)
    stirling = [oracle.falling_factorial(n) for n in range(max_order + 1)]
    weights = []
    for r in range(max_order + 1):
        weighted = [perm(r, j) * gregory[j] for j in range(r + 1)]
        weights.append(P(
            bernoulli[r - m] * sum(weighted[j] * stirling[r - j][r - m] for j in range(m + 1))
            for m in range(r + 1)
        ))
    return weights


def values_at_unit_fraction(k, max_order):
    """w_0(1/k)..w_R(1/k) without the family.

    At x = 1/k the generating function is z / ((1 + z/k)^k - 1) = 1/q(z) with
    q(z) = sum_{j=1..k} C(k,j) z^(j-1) / k^j, and q(0) = 1, so the series of
    1/q is one short recurrence; w_r(1/k) is r! times its z^r coefficient.
    """
    q = [Fr(comb(k, j), k ** j) for j in range(1, k + 1)]
    inverse = [Fr(1)]
    for n in range(1, max_order + 1):
        inverse.append(-sum(q[i] * inverse[n - i] for i in range(1, min(n, k - 1) + 1)))
    return [factorial(r) * c for r, c in enumerate(inverse)]


class TestGeneration:
    def test_first_six_weights(self, family20):
        for r, expected in enumerate(KNOWN_WEIGHTS):
            assert family20.weights[r] == expected, f"weight {r}"

    def test_first_six_unit_weights(self, family20):
        for r, expected in enumerate(KNOWN_UNIT_WEIGHTS):
            assert family20.unit_weights[r] == expected, f"unit weight {r}"

    def test_sixth_weight(self, family20):
        """w_6 = -(863x^6 - 1008x^4 + 147x^2 - 2)/84, pinned three ways.

        The opposite overall sign is ruled out by forcing the constant term
        (a Bernoulli number), the value at 2 (central-binomial closed form),
        and the leading coefficient (6! times a Gregory coefficient), each
        computed from an independent oracle.
        """
        w6 = family20.weights[6]
        assert w6 == P([Fr(1, 42), 0, Fr(-7, 4), 0, 12, 0, Fr(-863, 84)])
        assert w6.coefficient(0) == oracle.bernoulli(6)[6] == Fr(1, 42)
        assert w6(Fr(2)) == Fr((-1) ** 6 * factorial(12), (1 - 12) * factorial(6) * 2 ** 7)
        assert w6.coefficient(6) == factorial(6) * oracle.gregory(6)[6]

    def test_matches_series_expansion(self):
        weights, unit_weights = family_by_series(30)
        for max_order in range(31):
            family = correction_family(max_order)
            assert list(family.weights) == weights[: max_order + 1], max_order
            assert list(family.unit_weights) == unit_weights[: max_order + 1], max_order

    def test_matches_convolution(self):
        weights = family_by_convolution(60)
        family = correction_family(60)
        assert list(family.weights) == weights
        assert list(family.unit_weights) == [reversal(w, r) for r, w in enumerate(weights)]

    def test_row_denominator_is_the_gregory_denominator(self):
        """Each w_r is stored in lowest terms over the denominator of r! * G_r."""
        gregory = oracle.gregory(60)
        for r, w in enumerate(correction_family(60).weights):
            assert w._den == (factorial(r) * gregory[r]).denominator, r
            assert gcd(w._den, *w._num) == 1, r

    def test_row_not_integral_over_its_denominator_raises(self, monkeypatch, capsys):
        """g_3 * L gives row 3 the denominator 1, over which its x term -1/4 is not integral."""

        def inflated(max_order):
            g, scale = _gregory_numerators(max_order)
            g[3] *= scale
            return g, scale

        monkeypatch.setattr(downsum.family, "_gregory_numerators", inflated)
        with pytest.raises(ArithmeticError, match="row 3"):
            correction_family(3)
        assert downsum.cli.main(["coeffs", "--max-order", "3"]) == 2
        assert capsys.readouterr().err.startswith("downsum: ArithmeticError:")

    def test_large_order_values_at_unit_fractions(self):
        family = correction_family(300)
        for k in (1, 2, 3, 7):
            at = Fr(1, k)
            expected = values_at_unit_fraction(k, 300)
            assert [w(at) for w in family.weights] == expected, k

    def test_odd_bernoulli_zeros(self):
        # [x^m] F_r carries the factor B_{r-m}, which is 0 for odd r-m >= 3.
        family = correction_family(40)
        for r, w in enumerate(family.weights):
            for m in range(r - 2):
                if (r - m) % 2:
                    assert w.coefficient(m) == 0, (r, m)

    def test_order_zero(self):
        family = correction_family(0)
        assert family.weights == (P([1]),)
        assert family.unit_weights == (P([1]),)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            correction_family(-1)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            CorrectionFamily((P([1]), P([1])), (P([1]),))
        with pytest.raises(ValueError):
            CorrectionFamily((), ())
        assert CorrectionFamily((P([1]),), (P([1]),)).max_order == 0

    def test_family_is_not_retained(self):
        """A family its caller drops is freed: the package keeps no reference."""
        ref = weakref.ref(correction_family(30))
        gc.collect()
        assert ref() is None


POINTS = [Fr(0), Fr(1), Fr(-1), Fr(1, 2), Fr(-2, 5), Fr(7, 2), Fr(1, 3)] + [Fr(k) for k in range(2, 9)]


class TestValuesAtAPoint:
    """family._values_at gives w_r(x) and u_r(x) without the family."""

    @pytest.fixture(scope="class")
    def family200(self):
        return correction_family(200)

    @pytest.mark.parametrize("unit", [False, True], ids=["w", "u"])
    def test_matches_the_family_at_every_order_to_200(self, family200, unit):
        polys = family200.unit_weights if unit else family200.weights
        for x in POINTS:
            values, den = _values_at(200, x.numerator, x.denominator, unit)
            assert len(values) == 201
            for r, (value, poly) in enumerate(zip(values, polys)):
                assert Fr(value, den * x.denominator ** r) == poly(x), (x, r)

    @pytest.mark.parametrize("unit", [False, True], ids=["w", "u"])
    def test_lower_orders_give_the_same_values(self, unit):
        """A smaller R has a smaller denominator L**2 but the same values."""
        top, top_den = _values_at(40, -2, 5, unit)
        for max_order in (0, 1, 2, 7, 39):
            values, den = _values_at(max_order, -2, 5, unit)
            assert [Fr(v, den) for v in values] == [Fr(v, top_den) for v in top[:max_order + 1]]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="^max_order must be >= 0$"):
            _values_at(-1, 1, 1)


class TestStructure:
    def test_zeroth_weight_is_one(self, family20):
        assert family20.weights[0] == P([1])
        assert family20.unit_weights[0] == P([1])

    def test_degrees(self, family20):
        for r in range(21):
            assert family20.weights[r].degree == r
        for r in range(2, 21):
            expected = r if r % 2 == 0 else r - 1
            assert family20.unit_weights[r].degree == expected

    def test_unit_weights_even(self, family20):
        for r in range(2, 21):
            u = family20.unit_weights[r]
            assert all(u.coefficient(m) == 0 for m in range(1, r + 1, 2)), f"unit weight {r} not even"

    def test_weight_parity(self, family20):
        # Equivalent statement on the primary family: w_r(-x) = (-1)^r w_r(x),
        # so only the powers x^m with r - m even appear.
        for r in range(2, 21):
            w = family20.weights[r]
            assert all(w.coefficient(m) == 0 for m in range(r - 1, -1, -2)), r

    def test_reversal_relation(self, family20):
        # u_r(x) = x^r w_r(1/x), checked semantically at sample points.
        for r in range(21):
            w, u = family20.weights[r], family20.unit_weights[r]
            for x in (Fr(2), Fr(-3), Fr(1, 5), Fr(7, 4)):
                assert u(x) == x ** r * w(1 / x)

    def test_constant_and_leading_duality(self, family20, constants20):
        gregory = oracle.gregory(20)
        bernoulli = oracle.bernoulli(20)
        for r in range(21):
            assert family20.weights[r].coefficient(0) == bernoulli[r]
            assert family20.weights[r].coefficient(r) == factorial(r) * gregory[r]
            assert constants20.bernoulli[r] == bernoulli[r]
        for r in range(11):
            assert constants20.gregory[r] == gregory[r]


class TestClassicalNumbers:
    def test_spot_values(self, constants20):
        assert constants20.bernoulli[1] == Fr(-1, 2)
        assert constants20.bernoulli[2] == Fr(1, 6)
        assert constants20.bernoulli[3] == 0
        assert constants20.gregory[1] == Fr(1, 2)
        assert constants20.gregory[2] == Fr(-1, 12)
        assert constants20.gregory[3] == Fr(1, 24)

    def test_scalar_route_max_order(self):
        table = coefficient_table(3)
        assert len(table.bernoulli) == len(table.gregory) == 4
        with pytest.raises(ValueError):
            coefficient_table(-1)

    def test_table_against_recurrences(self):
        """Every R in 0..9 (R//2 in {0, 1} and odd R), 120, and 221, one past
        the largest gamma order the benchmark asks for."""
        bernoulli = oracle.bernoulli(221)
        gregory = oracle.gregory(221)
        for max_order in [*range(10), 120, 221]:
            table = coefficient_table(max_order)
            assert list(table.bernoulli) == bernoulli[: max_order + 1], max_order
            assert list(table.gregory) == gregory[: max_order + 1], max_order

    def test_gregory_numerators_are_falling_factorial_moments(self):
        """g_n = L * sum_k s(n,k)/(k+1), with s(n,k) the coefficients of (x)_n."""
        max_order = 41
        g, scale = _gregory_numerators(max_order)
        assert scale == lcm(*range(1, max_order + 2))
        assert len(g) == max_order + 1
        for n in range(max_order + 1):
            falling = oracle.falling_factorial(n)
            assert g[n] == scale * sum(c / (k + 1) for k, c in enumerate(falling)), n


class TestRecurrences:
    def test_unit_weight_recurrence_holds(self, family20):
        for r in range(2, 21):
            assert unit_weight_recurrence_residual(family20, r).is_zero, r

    def test_weight_recurrence_holds(self, family20):
        for r in range(2, 21):
            assert weight_recurrence_residual(family20, r).is_zero, r

    def test_hand_expansion_r2(self, family20):
        # x(x-1)*1 + 2x*(-(x-1)/2) = 0 for the unit form;
        # (1-x)*1 + 2*1*(x-1)/2 = 0 for the primary form.
        assert unit_weight_recurrence_residual(family20, 2).is_zero
        assert weight_recurrence_residual(family20, 2).is_zero

    def test_off_by_one_index_fails(self, family20):
        """The same sum with index v_{r-k} instead of v_{r-k-1} is nonzero.

        This is the discriminating case between the two candidate index
        conventions for the primary-family recurrence: the shifted variant
        leaves x^2 - x at r = 2.
        """
        acc = oracle.combination(
            (comb(2, k), oracle.mul(oracle.reversed_falling_factorial(2 - k), w.coeffs))
            for k, w in enumerate(family20.weights[:2])
        )
        assert acc == [0, -1, 1]

    def test_mutation_detector(self, family20):
        corrupted = CorrectionFamily(
            family20.weights[:3],
            (
                family20.unit_weights[0],
                P([-c for c in family20.unit_weights[1].coeffs]),  # +(x-1)/2 instead of -(x-1)/2
                family20.unit_weights[2],
            ),
        )
        residual = unit_weight_recurrence_residual(corrupted, 2)
        assert residual == P([0, -2, 2])  # 2x(x-1)

    def test_residuals_match_termwise_sums(self, family20):
        """On families with every member perturbed, both residuals equal their
        sums written out term by term on Fraction lists, each product
        multiplied out anew; orders 2 and 3 reach the top order r = max_order."""
        rng = random.Random(19)

        def perturbed(polys):
            noise = [[Fr(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)] for _ in polys]
            return tuple(P(oracle.combination([(1, p.coeffs), (1, e)])) for p, e in zip(polys, noise))

        def termwise(weights, r, row):
            return oracle.combination(
                (comb(r, k), oracle.mul(row(k), weights[k].coeffs)) for k in range(r)
            )

        for max_order in [20, 20, 20, 2, 3]:
            corrupted = CorrectionFamily(
                perturbed(family20.weights[: max_order + 1]),
                perturbed(family20.unit_weights[: max_order + 1]),
            )
            for r in range(2, max_order + 1):
                unit = termwise(corrupted.unit_weights, r, lambda k: oracle.falling_factorial(r - k))
                primary = termwise(
                    corrupted.weights, r, lambda k: oracle.reversed_falling_factorial(r - k - 1)
                )
                assert list(unit_weight_recurrence_residual(corrupted, r).coeffs) == unit, (max_order, r)
                assert list(weight_recurrence_residual(corrupted, r).coeffs) == primary, (max_order, r)

    def test_out_of_range_order(self, family20):
        with pytest.raises(ValueError):
            unit_weight_recurrence_residual(family20, 1)
        with pytest.raises(ValueError):
            weight_recurrence_residual(family20, 21)

    def test_recurrence_regenerates_unit_weights(self, family20):
        """Solving the unit-weight recurrence for its top term reproduces
        the generating-function output, order by order, with the division
        by r*x required to be exact."""
        rebuilt = [[1]]
        for r in range(2, 22):
            acc = oracle.combination(
                (comb(r, k), oracle.mul(oracle.falling_factorial(r - k), rebuilt[k]))
                for k in range(r - 1)
            )
            assert acc[0] == 0  # so dividing by r*x is exact
            rebuilt.append([-c / r for c in acc[1:]])
        for r in range(21):
            assert list(family20.unit_weights[r].coeffs) == rebuilt[r], r


class TestSpecialValues:
    def test_half(self, family20):
        assert family20.weights[2](Fr(1, 2)) == Fr(1, 8)
        assert family20.weights[2](Fr(1, 2)) == Fr(factorial(2), 4 ** 2)

    def test_two(self, family20):
        assert family20.weights[3](Fr(2)) == Fr(3, 2)
        assert family20.weights[3](Fr(2)) == Fr(
            (-1) ** 3 * factorial(6), (1 - 6) * factorial(3) * 2 ** 4
        )

    def test_one_is_root(self, family20):
        # The family is built so that F_r(1) = 0, so this only checks that
        # construction; the independent evidence is B_r against the oracle
        # recurrence (test_table_against_recurrences, to r = 221), the series
        # expansion (test_matches_series_expansion) and the values at 1/k
        # for k = 1 (test_large_order_values_at_unit_fractions).
        assert family20.weights[5](Fr(1)) == 0

    def test_minus_one_is_root(self, family20):
        assert family20.weights[4](Fr(-1)) == 0


class TestRootCounting:
    """The sign-change certificate that criterion 9 relies on, on known roots."""

    def test_cubic_with_known_roots(self, certified_roots):
        p = P([0, Fr(-1, 4), 0, Fr(1, 4)])  # roots -1, 0, 1
        assert certified_roots(p, Fr(-9, 8), Fr(9, 8), 18) == 3

    def test_no_real_roots(self, certified_roots):
        assert certified_roots(P([1, 0, 1]), Fr(-2), Fr(2), 64) == 0

    def test_second_weight(self, family20, certified_roots):
        assert certified_roots(family20.weights[2], Fr(-9, 8), Fr(9, 8), 18) == 2

    def test_endpoint_root_nudged(self, certified_roots):
        # The interval is closed: roots exactly at the endpoints count.
        p = P([-1, 0, 1])
        assert certified_roots(p, Fr(-1), Fr(1), 8) == 2

    def test_root_just_past_endpoint(self, certified_roots):
        p = P(oracle.mul([-1, 1], [-(1 + Fr(1, 2048)), 1]))  # roots at 1 and 1 + 1/2048
        assert certified_roots(p, Fr(0), Fr(1), 8) == 1
        assert certified_roots(p, Fr(1), Fr(2), 2048) == 2
        assert certified_roots(p, 1 + Fr(1, 2048), Fr(2), 8) == 1
        assert certified_roots(p, Fr(-1), Fr(1, 2), 8) == 0
        # A grid too coarse to separate the two roots gives only a lower bound.
        assert certified_roots(p, Fr(1), Fr(2), 8) == 1

    def test_multiple_roots_counted_once(self, certified_roots):
        p = P(oracle.mul(oracle.mul([Fr(-1, 2), 1], [Fr(-1, 2), 1]), [2, 1]))
        assert certified_roots(p, Fr(0), Fr(1), 4) == 1

    def test_constant_has_no_roots(self, certified_roots):
        assert certified_roots(P([5]), Fr(-1), Fr(1), 8) == 0

    def test_against_constructed_roots(self, certified_roots):
        rng = random.Random(2024)
        for _ in range(20):
            roots = rng.sample(range(-8, 9), rng.randint(1, 5))
            row = [1]
            for root in roots:
                row = oracle.mul(row, [-root, 1])
            p = P(row)
            # A step of 1/4 from a half-integer makes every integer a grid point.
            assert certified_roots(p, Fr(-17, 2), Fr(17, 2), 68) == len(roots)
            inside = [root for root in roots if -Fr(5, 2) < root < Fr(5, 2)]
            assert certified_roots(p, Fr(-5, 2), Fr(5, 2), 20) == len(inside)
