"""Finite-difference calculus on polynomials and exact summation identities.

The central fact being exercised: for a polynomial f and any rational
step x, with x = 0 as the limit (Euler–Maclaurin and Gregory),

    sum_{k=0}^{n-1} f(k)
        = x * sum_{k=0}^{n/x-1} f(kx)
          + sum_{r>=1} w_r(x)/r! * (D_x^{r-1} f(n) - D_x^{r-1} f(0)) / x^{r-1}

as an identity of polynomials in n, where D_x is the step-x forward
difference and w_r the correction weights of :mod:`downsum.family`.  The
series is finite: D_x^{r-1} f vanishes identically once r-1 > deg f.  At
x = 0 the coarse sum is the integral of f over [0, n] and the difference
quotients D_x^{r-1} f / x^{r-1} are the derivatives f^(r-1).

Each ``*_residual`` function returns LHS - RHS as an explicit Polynomial in
n, zero exactly when the identity holds.  The check is structural (all
coefficients zero), never sampled, so a pass cannot be a coincidence of
evaluation points.

Everything runs on the integer-numerator layout of :mod:`downsum.exact`.
The indefinite and the downsampled sum are both Newton's forward-difference
formula, at steps 1 and x, read off one table of integer step-x difference
quotients over one denominator (see ``forward_difference``); the same table
gives the difference spans of the identities.  A weight value at x is one
integer Horner pass, kept as a numerator/denominator pair.  Each residual
is a single linear combination of these integer pieces: one common
denominator, integer accumulation and one normalisation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial
from typing import Sequence

from .errors import DownsumError
from .exact import Polynomial, Scalar, _forward_differences, _horner, _linear_combination
from .family import CorrectionFamily, correction_family


def forward_difference(f: Polynomial, step: Scalar, order: int) -> Polynomial:
    """order-fold forward difference of f with the given step.

    D_x f(t) = f(t+x) - f(t); order 0 is the identity.  Each application
    drops the degree by one, so the result is zero once order > deg f.
    The orders run on the integer difference quotients D_x^k f / x^k of
    _forward_differences; the result is order k times x^k = a^k / b^k,
    normalised once.
    """
    if order < 0:
        raise ValueError("difference order must be >= 0")
    if order > f.degree:
        return Polynomial.zero()
    step = Fraction(step)
    a, b = step.numerator, step.denominator
    differences, den = _forward_differences(f, step, order + 1)
    return Polynomial._from_ints([c * a**order for c in differences[order]], den * b**order)


def _newton_sum(
    differences: Sequence[Sequence[int]], den: int, step: Scalar
) -> tuple[list[int], int]:
    """Numerators over one positive denominator of x * sum_{k<n/x} f(kx), in n.

    differences and den are _forward_differences(f, x, deg f + 1), the
    difference quotients δ_m = D_x^m f / x^m, whose rows are all nonempty.
    For x = a/b, Newton's forward-difference formula reads

        x * sum_{k<n/x} f(kx) = sum_m δ_m(0) * prod_{j<=m} (b*n - j*a) / (b^(m+1) * (m+1)!)

    and at x = 0 it is Taylor's integral_0^n f = sum_m f^(m)(0) n^(m+1) / (m+1)!.
    With top = deg f and Q = prod_{j<=top} (j+1)*b, this is N(n) / Q where
    N = sum_m δ_m(0) * prod_{m<j<=top} (j+1)*b * prod_{j<=m} (b*n - j*a),
    built by Horner from the top order down on int lists.
    """
    a, b = step.numerator, step.denominator
    acc, scale = [0], 1
    for m in range(len(differences) - 1, -1, -1):
        acc[0] += differences[m][0] * scale
        acc = [b * lo - m * a * hi for lo, hi in zip([0, *acc], [*acc, 0])]  # times (b*n - m*a)
        scale *= (m + 1) * b
    return acc, den * scale


def indefinite_sum(f: Polynomial) -> Polynomial:
    """The unique polynomial S with S(n+1) - S(n) = f(n) and S(0) = 0.

    At integer n >= 0 this is sum_{k=0}^{n-1} f(k): Newton's
    forward-difference formula S(n) = sum_m D^m f(0) * binom(n, m+1), the
    step-1 case of downsampled_sum.
    """
    return Polynomial._from_ints(*_newton_sum(*_forward_differences(f, 1, f.degree + 1), 1))


def downsampled_sum(f: Polynomial, x: Scalar) -> Polynomial:
    """The polynomial in n equal to x * sum_{k=0}^{n/x-1} f(kx).

    Newton's forward-difference formula at step x,
    sum_m D_x^m f(0) * x * binom(n/x, m+1), on the integer step-x
    differences of f.
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("downsampling step must be nonzero (the 0 limit is the derivative form)")
    return Polynomial._from_ints(*_newton_sum(*_forward_differences(f, x, f.degree + 1), x))


def step_identity_residuals(
    f: Polynomial, grid: Sequence[Scalar], family: CorrectionFamily
) -> list[tuple[Polynomial, Polynomial]]:
    """Both step-x identity residuals at every x of the grid, in grid order.

    Each entry is (scaled-difference residual, unit-difference residual); see
    scaled_difference_residual and unit_difference_residual.  The two
    identities share the gap indefinite_sum(f) - downsampled_sum(f, x) up
    to sign.  One table of step-x difference quotients per step (see
    forward_difference), the unit one built once per call and reused at
    x = 1, gives both the sum (Newton's formula, δ_m(0)) and the spans
    δ_{r-1}(n) - δ_{r-1}(0) (the quotients without their constant terms).
    At x = 0 the sum is the integral and the quotients are derivatives, so
    the two are the Euler–Maclaurin and the Gregory residuals.

    Everything stays on integers.  The weight values come from integer
    Horner on the weight numerators: for x = a/b, w_r(x) = h_r / (e_r * b^deg),
    so the step coefficient -w_r(x) / r! of the quotient span is the integer
    pair -h_r / (e_r * b^deg * r!); the unit coefficient -u_r(x) / r! is
    likewise -h / (e * b^deg * r!) from Horner on u_r.  Each residual is one
    linear combination of the two sums and the deg f + 1 spans, normalised
    once.
    """
    steps = [Fraction(x) for x in grid]
    terms = f.degree + 1
    if family.max_order < terms:
        raise DownsumError(f"family has max_order {family.max_order}, identity needs {terms}")
    unit_differences, unit_den = _forward_differences(f, 1, terms)
    unit_sum, unit_sum_den = _newton_sum(unit_differences, unit_den, 1)
    residuals = []
    for x in steps:
        a, b = x.numerator, x.denominator
        if x == 1:
            step_differences, step_den = unit_differences, unit_den
            coarse_sum, coarse_den = unit_sum, unit_sum_den
        else:
            step_differences, step_den = _forward_differences(f, x, terms)
            coarse_sum, coarse_den = _newton_sum(step_differences, step_den, x)
        step_terms = [(1, unit_sum_den, unit_sum), (-1, coarse_den, coarse_sum)]
        unit_terms = [(1, coarse_den, coarse_sum), (-1, unit_sum_den, unit_sum)]
        for r, (step_d, unit_d) in enumerate(zip(step_differences, unit_differences), start=1):
            weight, unit_weight = family.weights[r], family.unit_weights[r]
            h, b_power = _horner(weight._num, a, b)
            step_terms.append((-h, weight._den * b_power * factorial(r) * step_den, [0, *step_d[1:]]))
            h, b_power = _horner(unit_weight._num, a, b)
            unit_terms.append(
                (-h, unit_weight._den * b_power * factorial(r) * unit_den, [0, *unit_d[1:]])
            )
        residuals.append((_linear_combination(step_terms), _linear_combination(unit_terms)))
    return residuals


def scaled_difference_residual(
    f: Polynomial, x: Scalar, family: CorrectionFamily
) -> Polynomial:
    """Residual of the step-x summation identity (weights on x-step differences).

    LHS is the unit-step indefinite sum; RHS is the downsampled sum plus
    sum_{r=1}^{deg f + 1} w_r(x)/r! * (D_x^{r-1} f(n) - D_x^{r-1} f(0)) / x^{r-1}.
    """
    return step_identity_residuals(f, [x], family)[0][0]


def unit_difference_residual(
    f: Polynomial, x: Scalar, family: CorrectionFamily
) -> Polynomial:
    """Residual of the reversed identity (reversed weights on unit differences).

    x * sum_{k<n/x} f(kx) = sum_{k<n} f(k)
                            + sum_r u_r(x)/r! * (D^{r-1} f(n) - D^{r-1} f(0)).
    """
    return step_identity_residuals(f, [x], family)[0][1]


def euler_maclaurin_residual(f: Polynomial) -> Polynomial:
    """Residual of the x -> 0 limit: Bernoulli weights on derivatives.

    sum_{k<n} f(k) = integral_0^n f + sum_r B_r/r! * (f^(r-1)(n) - f^(r-1)(0)),
    with B_1 = -1/2: the scaled-difference identity at x = 0, where
    w_r(0) = B_r.
    """
    return scaled_difference_residual(f, 0, correction_family(max(f.degree + 1, 1)))


def gregory_residual(f: Polynomial) -> Polynomial:
    """Residual of the quadrature form: Gregory weights on unit differences.

    integral_0^n f = sum_{k<n} f(k) + sum_r G_r * (D^{r-1} f(n) - D^{r-1} f(0)):
    the unit-difference identity at x = 0, where u_r(0)/r! = G_r.
    """
    return unit_difference_residual(f, 0, correction_family(max(f.degree + 1, 1)))


def alternating_residual(f: Polynomial) -> Polynomial:
    """Residual of the alternating form at even upper limits n = 2m.

    sum_{k<2m} (-1)^k f(k) = sum_{r>=0} (-1)^{r+1}/2^{r+1} (D^r f(2m) - D^r f(0))
    checked as an identity of polynomials in m.  The left side is built
    honestly as the indefinite sum of h(j) = f(2j) - f(2j+1), which equals
    the signed sum pairwise; the right side is the x = 2 instance of the
    reversed identity, whose weights collapse to u_r(2)/r! = (-1)^r/2^r.
    A span s(n) becomes s(2m) by scaling its j-th numerator by 2^j.
    """
    paired = indefinite_sum(f.scale_argument(2) - f.shift(1).scale_argument(2))
    differences, den = _forward_differences(f, 1, f.degree + 1)
    return _linear_combination(
        [(1, paired._den, paired._num)]
        + [
            ((-1) ** r, 2 ** (r + 1) * den, [c << j for j, c in enumerate([0, *d[1:]])])
            for r, d in enumerate(differences)
        ]
    )


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
