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

The three classical forms are this identity at two steps: at x = 0 both
forms (Euler–Maclaurin, Gregory), at x = 2 the unit form (Euler's method for
alternating series).

Each ``*_residual`` function returns LHS - RHS as an explicit Polynomial in
n, zero exactly when the identity holds.  The check is structural (all
coefficients zero), never sampled, so a pass cannot be a coincidence of
evaluation points.

Everything runs on the integer-numerator layout of :mod:`downsum.exact`.
The indefinite and the downsampled sum are both Newton's forward-difference
formula, at steps 1 and x, read off one table of integer step-x difference
quotients over one denominator (see ``exact._forward_differences``); the
same table gives the difference spans of the identities.  The weights of an
identity depend on the step only, never on f: ``step_identity_residuals``
takes all the polynomials to check at once, turns the weights at each
distinct step into one integer row per call (one integer Horner pass per
weight), and differences each polynomial once per distinct step.  Each
residual is then integer multiply-adds over one common denominator and one
normalisation.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction
from math import factorial, lcm

from .errors import DownsumError
from .exact import Polynomial, Scalar, _forward_differences, _horner
from .family import CorrectionFamily, correction_family


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


def _weight_rows(family: CorrectionFamily, a: int, b: int, count: int) -> list[tuple[list[int], int]]:
    """The multipliers -w_r(x)/r! and -u_r(x)/r!, r = 1..count, at x = a/b.

    Two (numerators, denominator) rows, step weights first.  Integer Horner
    gives w_r(a/b) = h_r / (e_r * b^deg), so -w_r(x)/r! = -h_r / (e_r * b^deg * r!),
    and likewise for u_r; each row is put over the lcm of its denominators.
    """
    rows = []
    for weights in (family.weights, family.unit_weights):
        pairs = []
        for r in range(1, count + 1):
            h, b_power = _horner(weights[r]._num, a, b)
            pairs.append((-h, weights[r]._den * b_power * factorial(r)))
        den = lcm(*(d for _, d in pairs))
        rows.append(([h * (den // d) for h, d in pairs], den))
    return rows


def step_identity_residuals(
    fs: Sequence[Polynomial], grid: Sequence[Scalar], family: CorrectionFamily
) -> list[list[tuple[Polynomial, Polynomial]]]:
    """Both step-x identity residuals of each f in fs at every x of the grid.

    One list per polynomial, in the order of fs, of one (scaled-difference,
    unit-difference) pair per grid entry; see scaled_difference_residual and
    unit_difference_residual.  At x = 0 the two are Euler–Maclaurin and
    Gregory.  A step the grid repeats, or writes unreduced, is solved once.

    The weight rows (see _weight_rows) depend on the step only: they are
    built once per distinct step per call, up to the largest deg f + 1, and a
    polynomial of lower degree reads a prefix.  Each polynomial gets one table
    of difference quotients per distinct step and at step 1 (see
    exact._forward_differences), which gives the sum (Newton's formula) and
    the spans δ_{r-1}(n) - δ_{r-1}(0).  The two identities share the gap
    indefinite_sum(f) - downsampled_sum(f, x) up to sign; a residual is the
    gap plus the row's integer multiply-adds over the spans, over one
    denominator and normalised once.
    """
    steps: dict[tuple[int, int], Fraction] = {}
    keys = []
    for x in grid:
        x = Fraction(x)
        keys.append((x.numerator, x.denominator))
        steps.setdefault(keys[-1], x)
    terms = max((f.degree + 1 for f in fs), default=0)
    if family.max_order < terms:
        raise DownsumError(f"family has max_order {family.max_order}, identity needs {terms}")
    rows = {key: _weight_rows(family, *key, terms) for key in steps}
    differenced = {(1, 1): Fraction(1), **steps}  # the unit table too
    residuals = []
    for f in fs:
        tables = {}
        for key, x in differenced.items():
            differences, den = _forward_differences(f, x, f.degree + 1)
            tables[key] = differences, den, *_newton_sum(differences, den, x)
        unit_differences, unit_den, fine, fine_den = tables[1, 1]
        solved = {}
        for key, step_rows in rows.items():
            step_differences, step_den, coarse, coarse_den = tables[key]
            gap_den = lcm(fine_den, coarse_den)
            gap = [u * (gap_den // fine_den) - c * (gap_den // coarse_den) for u, c in zip(fine, coarse)]
            pair = []
            for sign, (row, row_den), differences, den in (
                (1, step_rows[0], step_differences, step_den),
                (-1, step_rows[1], unit_differences, unit_den),
            ):
                spans = [0] * len(gap)
                for m, d in zip(row, differences):
                    if m:
                        spans[:len(d)] = [s + m * c for s, c in zip(spans, d)]
                spans[0] = 0  # the spans are the quotients without their constant terms
                span_den = row_den * den
                out_den = lcm(gap_den, span_den)
                g_scale, s_scale = sign * (out_den // gap_den), out_den // span_den
                pair.append(Polynomial._from_ints(
                    [g * g_scale + s * s_scale for g, s in zip(gap, spans)], out_den
                ))
            solved[key] = tuple(pair)
        residuals.append([solved[key] for key in keys])
    return residuals


def scaled_difference_residual(
    f: Polynomial, x: Scalar, family: CorrectionFamily
) -> Polynomial:
    """Residual of the step-x summation identity (weights on x-step differences).

    LHS is the unit-step indefinite sum; RHS is the downsampled sum plus
    sum_{r=1}^{deg f + 1} w_r(x)/r! * (D_x^{r-1} f(n) - D_x^{r-1} f(0)) / x^{r-1}.
    """
    return step_identity_residuals([f], [x], family)[0][0][0]


def unit_difference_residual(
    f: Polynomial, x: Scalar, family: CorrectionFamily
) -> Polynomial:
    """Residual of the reversed identity (reversed weights on unit differences).

    x * sum_{k<n/x} f(kx) = sum_{k<n} f(k)
                            + sum_r u_r(x)/r! * (D^{r-1} f(n) - D^{r-1} f(0)).
    """
    return step_identity_residuals([f], [x], family)[0][0][1]


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
    """Residual of Euler's alternating form: the unit-difference identity at x = 2.

    There u_r(2)/r! = (-1)^r/2^r, so for every n
    2 * sum_{k<n/2} f(2k) - sum_{k<n} f(k) = sum_r (-1)^r/2^r * (D^{r-1} f(n) - D^{r-1} f(0)),
    and at even n the left side is sum_{k<n} (-1)^k f(k).
    """
    return unit_difference_residual(f, 2, correction_family(max(f.degree + 1, 1)))


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
