"""Tests for the weight family: generation, structure, constants.

The library builds the family and the constants from one closed form over
integer Bernoulli (tangent-number), Gregory (falling-factorial moment) and
Stirling rows.  The oracles below share no code with it: the first seven
weights written out longhand, the Bernoulli recurrence, the series expansion
of z/log(1+z), (x)_n multiplied out as a Polynomial product, the
Gregory-Stirling convolution the closed form collapses, the generating
function itself expanded as power series (log, then exp, then reciprocal),
and its value at x = 1/k, where it is the reciprocal of a degree k-1
polynomial in z.
"""

from fractions import Fraction as Fr
from math import comb, factorial, lcm, perm

import pytest

from downsum import (
    CorrectionFamily,
    Polynomial,
    PowerSeries,
    classical_numbers,
    coefficient_table,
    correction_family,
    falling_factorial,
    reversed_falling_factorial,
    unit_weight_recurrence_residual,
    weight_recurrence_residual,
)
from downsum.family import _gregory_numerators

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


def bernoulli_by_recurrence(count):
    """B_0..B_count via sum_{j<m} C(m+1,j) B_j = -(m+1) B_m."""
    values = [Fr(1)]
    for m in range(1, count + 1):
        acc = sum(comb(m + 1, j) * values[j] for j in range(m))
        values.append(-acc / (m + 1))
    return values


def gregory_by_expansion(count):
    """G_0..G_count as the series coefficients of z/log(1+z)."""
    log_over_z = [Fr((-1) ** m, m + 1) for m in range(count + 1)]
    values = [Fr(1)]
    for n in range(1, count + 1):
        values.append(-sum(log_over_z[k] * values[n - k] for k in range(1, n + 1)))
    return values


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
    out as a Polynomial product of the (x - l).
    """
    bernoulli = bernoulli_by_recurrence(max_order)
    gregory = gregory_by_expansion(max_order)
    stirling = [(Fr(1),)]
    falling = P([1])
    for n in range(max_order):
        falling = falling * P([-n, 1])
        stirling.append(falling.coeffs)
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
        assert w6.constant_term == bernoulli_by_recurrence(6)[6] == Fr(1, 42)
        assert w6(Fr(2)) == Fr((-1) ** 6 * factorial(12), (1 - 12) * factorial(6) * 2 ** 7)
        assert w6.coefficient(6) == factorial(6) * gregory_by_expansion(6)[6]

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
            CorrectionFamily(2, (P([1]),), (P([1]),))


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
            assert u.scale_argument(-1) == u, f"unit weight {r} not even"

    def test_weight_parity(self, family20):
        # Equivalent statement on the primary family: w_r(-x) = (-1)^r w_r(x).
        for r in range(2, 21):
            w = family20.weights[r]
            assert w.scale_argument(-1) == (-1) ** r * w

    def test_reversal_relation(self, family20):
        # u_r(x) = x^r w_r(1/x), checked semantically at sample points.
        for r in range(21):
            w, u = family20.weights[r], family20.unit_weights[r]
            for x in (Fr(2), Fr(-3), Fr(1, 5), Fr(7, 4)):
                assert u(x) == x ** r * w(1 / x)

    def test_constant_and_leading_duality(self, family20, constants20):
        gregory = gregory_by_expansion(20)
        bernoulli = bernoulli_by_recurrence(20)
        for r in range(21):
            assert family20.weights[r].constant_term == bernoulli[r]
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

    def test_scalar_route_agrees_with_family_route(self, family20):
        """The table and the family's constant terms agree.

        Both routes read the same integer Bernoulli and Gregory rows, so
        this checks the read-off (B_r = w_r(0), G_r = u_r(0)/r!), not the
        rows; test_table_against_recurrences checks those independently.
        """
        scalar = coefficient_table(20)
        via_family = classical_numbers(family20)
        assert scalar.bernoulli == via_family.bernoulli
        assert scalar.gregory == via_family.gregory

    def test_scalar_route_max_order(self):
        table = coefficient_table(3)
        assert table.max_order == 3
        with pytest.raises(ValueError):
            coefficient_table(-1)

    def test_table_against_recurrences(self):
        """Every R in 0..9 (R//2 in {0, 1} and odd R), 120, and 221, one past
        the largest gamma order the benchmark asks for."""
        bernoulli = bernoulli_by_recurrence(221)
        gregory = gregory_by_expansion(221)
        for max_order in [*range(10), 120, 221]:
            table = coefficient_table(max_order)
            assert list(table.bernoulli) == bernoulli[: max_order + 1], max_order
            assert list(table.gregory) == gregory[: max_order + 1], max_order

    def test_gregory_numerators_are_falling_factorial_moments(self):
        """g_n = L * sum_k s(n,k)/(k+1), with s(n,k) the coefficients of (x)_n."""
        max_order = 41
        scale = lcm(*range(1, max_order + 2))
        g = _gregory_numerators(max_order, scale)
        assert len(g) == max_order + 1
        falling = P([1])
        for n in range(max_order + 1):
            assert g[n] == scale * sum(c / (k + 1) for k, c in enumerate(falling.coeffs)), n
            falling = falling * P([-n, 1])


class TestFactorialPolynomials:
    def test_falling_factorial(self):
        assert falling_factorial(0) == P([1])
        assert falling_factorial(2) == P([0, -1, 1])
        assert falling_factorial(3) == P([0, 2, -3, 1])

    def test_reversed_falling_factorial(self):
        assert reversed_falling_factorial(0) == P([1])
        assert reversed_falling_factorial(1) == P([1, -1])
        assert reversed_falling_factorial(2) == P([1, -3, 2])

    def test_reversal_pairing(self):
        # (1-x)(1-2x)...(1-kx) reverses (x-1)(x-2)...(x-k).
        for k in range(1, 6):
            product = falling_factorial(k + 1)
            assert product.constant_term == 0  # so dividing by x is exact
            shifted = P(product.coeffs[1:])
            assert reversed_falling_factorial(k) == reversal(shifted, k)


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
        acc = Polynomial()
        for k in range(2):
            acc = acc + comb(2, k) * reversed_falling_factorial(2 - k) * family20.weights[k]
        assert acc == P([0, -1, 1])
        assert not acc.is_zero

    def test_mutation_detector(self, family20):
        corrupted = CorrectionFamily(
            2,
            family20.weights[:3],
            (
                family20.unit_weights[0],
                -family20.unit_weights[1],  # +(x-1)/2 instead of -(x-1)/2
                family20.unit_weights[2],
            ),
        )
        residual = unit_weight_recurrence_residual(corrupted, 2)
        assert residual == P([0, -2, 2])  # 2x(x-1)

    def test_out_of_range_order(self, family20):
        with pytest.raises(ValueError):
            unit_weight_recurrence_residual(family20, 1)
        with pytest.raises(ValueError):
            weight_recurrence_residual(family20, 21)

    def test_recurrence_regenerates_unit_weights(self, family20):
        """Solving the unit-weight recurrence for its top term reproduces
        the generating-function output, order by order, with the division
        by r*x required to be exact."""
        rebuilt = [Polynomial([1])]
        for r in range(2, 22):
            acc = Polynomial()
            for k in range(r - 1):
                acc = acc + comb(r, k) * falling_factorial(r - k) * rebuilt[k]
            assert acc.constant_term == 0  # so dividing by r*x is exact
            top = -Polynomial(acc.coeffs[1:]) / r
            rebuilt.append(top)
        for r in range(21):
            assert rebuilt[r] == family20.unit_weights[r], r


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
        p = P([-1, 1]) * P([-(1 + Fr(1, 2048)), 1])  # roots at 1 and 1 + 1/2048
        assert certified_roots(p, Fr(0), Fr(1), 8) == 1
        assert certified_roots(p, Fr(1), Fr(2), 2048) == 2
        assert certified_roots(p, 1 + Fr(1, 2048), Fr(2), 8) == 1
        assert certified_roots(p, Fr(-1), Fr(1, 2), 8) == 0
        # A grid too coarse to separate the two roots gives only a lower bound.
        assert certified_roots(p, Fr(1), Fr(2), 8) == 1

    def test_multiple_roots_counted_once(self, certified_roots):
        p = P([Fr(-1, 2), 1]) * P([Fr(-1, 2), 1]) * P([2, 1])
        assert certified_roots(p, Fr(0), Fr(1), 4) == 1

    def test_constant_has_no_roots(self, certified_roots):
        assert certified_roots(P([5]), Fr(-1), Fr(1), 8) == 0

    def test_against_constructed_roots(self, certified_roots):
        import random

        rng = random.Random(2024)
        for _ in range(20):
            roots = rng.sample(range(-8, 9), rng.randint(1, 5))
            p = P([1])
            for root in roots:
                p = p * P([-root, 1])
            # A step of 1/4 from a half-integer makes every integer a grid point.
            assert certified_roots(p, Fr(-17, 2), Fr(17, 2), 68) == len(roots)
            inside = [root for root in roots if -Fr(5, 2) < root < Fr(5, 2)]
            assert certified_roots(p, Fr(-5, 2), Fr(5, 2), 20) == len(inside)
