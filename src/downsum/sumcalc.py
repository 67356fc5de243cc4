"""Finite-difference calculus on polynomials and exact summation identities.

The central fact being exercised: for a polynomial f and any nonzero
rational step x,

    sum_{k=0}^{n-1} f(k)
        = x * sum_{k=0}^{n/x-1} f(kx)
          + sum_{r>=1} w_r(x)/r! * (D_x^{r-1} f(n) - D_x^{r-1} f(0)) / x^{r-1}

as an identity of polynomials in n, where D_x is the step-x forward
difference and w_r the correction weights of :mod:`downsum.family`.  The
series is finite: D_x^{r-1} f vanishes identically once r-1 > deg f.

Each ``*_residual`` function builds LHS - RHS as an explicit Polynomial and
reports it verbatim; checks are structural (all coefficients zero), never
sampled, so a pass cannot be a coincidence of evaluation points.

Everything runs on the integer-numerator layout of :mod:`downsum.exact`.
``indefinite_sum`` does its Newton-basis arithmetic on int lists over one
denominator, and each residual is assembled as a single linear combination
sum c_i * p_i of its polynomial pieces: one common denominator, integer
accumulation and one normalisation per residual.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .errors import InsufficientOrder, ZeroStep
from .exact import Polynomial, Scalar, _linear_combination
from .family import CorrectionFamily, classical_numbers, correction_family


@dataclass(frozen=True)
class SumIdentityReport:
    """Outcome of one identity check: the residual polynomial in n.

    terms_used is the truncation point of the correction series (deg f + 1);
    x_value records the step the identity was instantiated at.
    """

    residual: Polynomial
    terms_used: int
    x_value: Fraction

    @property
    def passed(self) -> bool:
        return self.residual.is_zero


def forward_difference(f: Polynomial, step: Scalar, order: int) -> Polynomial:
    """order-fold forward difference of f with the given step.

    D_x f(t) = f(t+x) - f(t); order 0 is the identity.  Each application
    drops the degree by one, so the result is zero once order > deg f.
    """
    if order < 0:
        raise ValueError("difference order must be >= 0")
    result = f
    for _ in range(order):
        result = result.shift(step) - result
    return result


def indefinite_sum(f: Polynomial) -> Polynomial:
    """The unique polynomial S with S(n+1) - S(n) = f(n) and S(0) = 0.

    At integer n >= 0 this is sum_{k=0}^{n-1} f(k).  Built by Newton's
    forward-difference formula, S(n) = sum_m D^m f(0) * binom(n, m+1), on
    integers: with f = (n_0 + n_1 t + ...)/d, the value table
    sum_i n_i k^i at k = 0..deg f and its differences are ints over d, and
    Horner in the Newton basis multiplies by (n - m) on int lists while the
    1/(m+1) factors collect into the one denominator d * (deg f + 1)!.
    """
    num, top = f._num, f.degree
    # Numerators of f(0), ..., f(top) over f's denominator, then D^m f(0).
    table = [sum(c * k**i for i, c in enumerate(num)) for k in range(top + 1)]
    differences = []
    while table:
        differences.append(table[0])
        table = [b - a for a, b in zip(table, table[1:])]
    # (top+1)! * S(n) = sum_m c_m * n(n-1)...(n-m) with c_m = D^m f(0) *
    # (top+1)!/(m+1)!, by Horner from m = top down; scale is (top+1)!/(m+1)!.
    acc, scale = [0], 1
    for m in range(top, -1, -1):
        acc[0] += differences[m] * scale
        acc = [a - m * b for a, b in zip([0, *acc], [*acc, 0])]  # times (n - m)
        scale *= m + 1
    return Polynomial._from_ints(acc, f._den * scale)


def fractional_sum(f: Polynomial, n: Scalar) -> Fraction:
    """Evaluate the indefinite sum of f at an arbitrary rational n.

    For non-integer n this is the natural polynomial extension of the
    partial sum (the value every correct summation formula agrees on).
    """
    return indefinite_sum(f)(n)


def downsampled_sum(f: Polynomial, x: Scalar) -> Polynomial:
    """The polynomial in n equal to x * sum_{k=0}^{n/x-1} f(kx).

    Computed as x * S_g(n/x) where g(k) = f(xk); both the argument scaling
    and the n/x composition are exact.
    """
    x = Fraction(x)
    if x == 0:
        raise ZeroStep("downsampling step must be nonzero (the 0 limit is the derivative form)")
    coarse = indefinite_sum(f.scale_argument(x))
    return x * coarse.scale_argument(1 / x)


def _require_order(family: CorrectionFamily, needed: int) -> None:
    if family.max_order < needed:
        raise InsufficientOrder(
            f"family has max_order {family.max_order}, identity needs {needed}"
        )


def _difference_span(d: Polynomial) -> Polynomial:
    """d(n) - d(0) as a polynomial in n."""
    return Polynomial._from_ints([0, *d._num[1:]], d._den)


def _difference_spans(f: Polynomial, step: Scalar, count: int) -> list[Polynomial]:
    """D^{r-1} f(n) - D^{r-1} f(0) for r = 1..count, D the step difference."""
    spans = []
    diff = f
    for _ in range(count):
        spans.append(_difference_span(diff))
        diff = diff.shift(step) - diff
    return spans


def step_identity_reports(
    f: Polynomial, grid: Sequence[Scalar], family: CorrectionFamily
) -> list[tuple[SumIdentityReport, SumIdentityReport]]:
    """Both step-x identity residuals at every x of the grid, in grid order.

    Each entry is (scaled-difference report, unit-difference report); see
    scaled_difference_residual and unit_difference_residual.  The two
    identities share the gap indefinite_sum(f) - downsampled_sum(f, x) up
    to sign, and the unit-step difference spans do not depend on x, so the
    unit sum and those spans are built once per call and the downsampled
    sum once per x.  Each residual is one linear combination of the two sums
    and the deg f + 1 spans, weighted by the exact rational weight values at
    x, accumulated on integers over the lcm of their denominators.
    """
    steps = [Fraction(x) for x in grid]
    if any(x == 0 for x in steps):
        raise ZeroStep("step must be nonzero; use euler_maclaurin_residual for the limit")
    terms = f.degree + 1
    _require_order(family, terms)
    unit_sum = indefinite_sum(f)
    unit_spans = _difference_spans(f, 1, terms)
    reports = []
    for x in steps:
        coarse_sum = downsampled_sum(f, x)
        step_residual = _linear_combination(
            [(1, unit_sum), (-1, coarse_sum)]
            + [
                (-family.weights[r](x) / (factorial(r) * x ** (r - 1)), span)
                for r, span in enumerate(_difference_spans(f, x, terms), start=1)
            ]
        )
        unit_residual = _linear_combination(
            [(1, coarse_sum), (-1, unit_sum)]
            + [
                (-family.unit_weights[r](x) / factorial(r), span)
                for r, span in enumerate(unit_spans, start=1)
            ]
        )
        reports.append(
            (
                SumIdentityReport(step_residual, terms, x),
                SumIdentityReport(unit_residual, terms, x),
            )
        )
    return reports


def scaled_difference_residual(
    f: Polynomial, x: Scalar, family: CorrectionFamily
) -> SumIdentityReport:
    """Residual of the step-x summation identity (weights on x-step differences).

    LHS is the unit-step indefinite sum; RHS is the downsampled sum plus
    sum_{r=1}^{deg f + 1} w_r(x)/r! * (D_x^{r-1} f(n) - D_x^{r-1} f(0)) / x^{r-1}.
    """
    return step_identity_reports(f, [x], family)[0][0]


def unit_difference_residual(
    f: Polynomial, x: Scalar, family: CorrectionFamily
) -> SumIdentityReport:
    """Residual of the reversed identity (reversed weights on unit differences).

    x * sum_{k<n/x} f(kx) = sum_{k<n} f(k)
                            + sum_r u_r(x)/r! * (D^{r-1} f(n) - D^{r-1} f(0)).
    """
    return step_identity_reports(f, [x], family)[0][1]


def euler_maclaurin_residual(f: Polynomial) -> SumIdentityReport:
    """Residual of the x -> 0 limit: Bernoulli weights on derivatives.

    sum_{k<n} f(k) = integral_0^n f + sum_r B_r/r! * (f^(r-1)(n) - f^(r-1)(0)),
    with B_1 = -1/2 (the convention the weight family produces at 0).
    """
    terms = f.degree + 1
    family = correction_family(max(terms, 1))
    combination = [(1, indefinite_sum(f)), (-1, f.antiderivative())]
    derivative = f
    for r in range(1, terms + 1):
        bernoulli = family.weights[r].constant_term
        combination.append((-bernoulli / factorial(r), _difference_span(derivative)))
        derivative = derivative.derivative()
    return SumIdentityReport(_linear_combination(combination), terms, Fraction(0))


def gregory_residual(f: Polynomial) -> SumIdentityReport:
    """Residual of the quadrature form: Gregory weights on unit differences.

    integral_0^n f = sum_{k<n} f(k) + sum_r G_r * (D^{r-1} f(n) - D^{r-1} f(0)).
    """
    terms = f.degree + 1
    gregory = classical_numbers(correction_family(max(terms, 1))).gregory
    residual = _linear_combination(
        [(1, f.antiderivative()), (-1, indefinite_sum(f))]
        + [(-gregory[r], span) for r, span in enumerate(_difference_spans(f, 1, terms), start=1)]
    )
    return SumIdentityReport(residual, terms, Fraction(1))


def alternating_residual(f: Polynomial) -> SumIdentityReport:
    """Residual of the alternating form at even upper limits n = 2m.

    sum_{k<2m} (-1)^k f(k) = sum_{r>=0} (-1)^{r+1}/2^{r+1} (D^r f(2m) - D^r f(0))
    checked as an identity of polynomials in m.  The left side is built
    honestly as the indefinite sum of h(j) = f(2j) - f(2j+1), which equals
    the signed sum pairwise; the right side is the x = 2 instance of the
    reversed identity, whose weights collapse to u_r(2)/r! = (-1)^r/2^r.
    """
    terms = f.degree + 1
    paired = f.scale_argument(2) - f.shift(1).scale_argument(2)
    residual = _linear_combination(
        [(1, indefinite_sum(paired))]
        + [
            (Fraction((-1) ** r, 2 ** (r + 1)), span.scale_argument(2))
            for r, span in enumerate(_difference_spans(f, 1, terms + 1))
        ]
    )
    return SumIdentityReport(residual, terms, Fraction(2))


def random_polynomial(rng: random.Random, max_degree: int) -> Polynomial:
    """Draw a polynomial with rational coefficients from a seeded generator.

    Numerators in [-9, 9], denominators in [1, 9]; trailing zero draws may
    lower the degree, which is deliberate (identities must not depend on a
    full-degree leading term).
    """
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(max_degree + 1)
    ]
    return Polynomial(coeffs)
