"""Exact sums of polynomials and the step-x summation identities.

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

Everything runs on integers.  Each identity is linear in f; entry (i, j)
of its map M is the n^i coefficient of the residual of t^j.  Row 0 of M is
zero and row i rescales row 1: i M[i][j] = C(j, i-1) M[1][j-i+1].  So each
form is one n row per step, read off the weights at that step and the n
coefficients F_j[1] of the Faulhaber rows sum_{k<n} k^j = sum_m S(j, m)
(n)_{m+1}/(m+1).  Those are B_j (B_1 = -1/2), computed from the Stirling
numbers of both kinds, not from the family, so the check stays independent
of it.  One builder, _faulhaber, gives the two factors of those rows, the
Stirling rows and the falling-factorial sums.  ``step_identity_residuals``
builds what depends on its table size ``terms`` alone once per call and the
n rows once per distinct step, then reads its polynomials one at a time;
where the family is exact both rows are empty and every polynomial reads one
shared zero.  The indefinite and the downsampled sum apply the two factors
to one f at once.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from math import comb, lcm
from operator import mul

from .errors import DownsumError
from .exact import Polynomial, Scalar, _linear_combination, _powers
from .family import CorrectionFamily, correction_family


def _faulhaber(count: int) -> tuple[list[list[int]], list[list[int]], int]:
    """(second, sums, den): the two factors of the Faulhaber rows of t^j, j < count.

    Summing (k)_m over k < n gives (n)_{m+1}/(m+1), so sum_{k<n} k^j is
    F_j(n) = sum_m S(j, m) (n)_{m+1}/(m+1).  second[m], m <= count, holds the
    S(m, k) with t^m = sum_k S(m, k) (t)_k; sums[m], m < count, holds the
    coefficients of (n)_{m+1}/(m+1) over den = lcm(1..count), built from one
    rolling row of the first-kind Stirling numbers, those of (t)_{m+1}.
    """
    den = lcm(*range(1, count + 1))
    first, second, sums = [1], [[1]], []
    for m in range(count):
        first = [lo - m * hi for lo, hi in zip([0, *first], [*first, 0])]
        sums.append([c * (den // (m + 1)) for c in first])
        second.append([lo + k * hi for k, (lo, hi) in enumerate(zip([0, *second[-1]], [*second[-1], 0]))])
    return second, sums, den


def indefinite_sum(f: Polynomial) -> Polynomial:
    """The unique polynomial S with S(n+1) - S(n) = f(n) and S(0) = 0.

    At integer n >= 0 this is sum_{k=0}^{n-1} f(k), the step-1 downsampled sum.
    """
    return downsampled_sum(f, 1)


def downsampled_sum(f: Polynomial, x: Scalar) -> Polynomial:
    """The polynomial in n equal to x * sum_{k=0}^{n/x-1} f(kx).

    The Faulhaber rows' two factors applied to f, in O(deg^2): with
    h_m = sum_j f_j S(j, m) x^(j-m), f(kx) = sum_m h_m x^m (k)_m, and
    x^(m+1) sum_{k<n/x} (k)_m = x^(m+1) (n/x)_{m+1}/(m+1) gives n^i the
    factor x^(m+1-i) (see _faulhaber).
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("downsampling step must be nonzero (the 0 limit is the derivative form)")
    a, b, top = x.numerator, x.denominator, f.degree + 1
    second, sums, den = _faulhaber(top)
    powers = _powers(a, b, top)  # x^d over b^top
    out_den = f._den * den * powers[0] ** 2
    return _linear_combination(
        (sum(f._num[j] * second[j][m] * powers[j - m] for j in range(m, top)), out_den,
         list(map(mul, row, powers[m + 1::-1])))
        for m, row in enumerate(sums)
    )


def _residual_rows(
    family: CorrectionFamily, a: int, b: int, second: list[list[int]], linear: list[int], den: int
) -> list[tuple[list[int], int]]:
    """The n rows of the (scaled-difference, unit-difference) residual maps at x = a/b.

    Entry j of a row, over its denominator, is the n coefficient of the
    residual of t^j, j < T = len(linear), with linear[j] = F_j[1] over den and
    second the Stirling rows of _faulhaber(T); trailing zeros are trimmed.  One
    table, _powers(a, b, N) = x^d over b^N, serves the step, N = T unless a
    weight read has a higher degree.  The gap sum_{k<n} k^j - x^(j+1) F_j(n/x)
    has n coefficient F_j[1] (1 - x^j), plus in the scaled form, minus in the
    unit form.  c_m = -w_{m+1}(x)/(m+1), r = m + 1, is over d_r r b^N, w_r (u_r
    in the unit form) over d_r.  The span of D_x^m t^j / x^m has n coefficient
    j m! S(j-1, m) x^(j-1-m) and weight c_m / m!, so the correction has
    j E_{j-1}(x), E_m(x) = sum_k c_k S(m, k) x^(m-k), at x = 1 in the unit form.
    psi is over den L b^2N, L = lcm of the d_r r.  m <= T - 2 as j < T: w_T and
    u_T would weigh D_x^(T-1) t^j = 0 and are not read.
    """
    top = len(linear)
    powers = _powers(a, b, max([top, *(w.degree for w in family.weights[1:top] + family.unit_weights[1:top])]))
    gaps = [f * (powers[0] - p) * powers[0] for f, p in zip(linear, powers)]  # F_d[1] (1 - x^d) over den b^2N
    rows = []
    for sign, weights, steps in ((1, family.weights, powers), (-1, family.unit_weights, [powers[0]] * top)):
        pairs = [(sum(map(mul, weights[r]._num, powers)), weights[r]._den * r) for r in range(1, top)]
        row_den = lcm(*(d for _, d in pairs))
        row = [-h * (row_den // d) for h, d in pairs]
        spans = [sum(map(mul, map(mul, row, second[m]), steps[m::-1])) for m in range(top - 1)]
        psi = [sign * row_den * g + den * j * e for j, (g, e) in enumerate(zip(gaps, [0, *spans]))]
        while psi and not psi[-1]:
            psi.pop()
        rows.append((psi, den * row_den * powers[0] ** 2))
    return rows


def step_identity_residuals(
    fs: Iterable[Polynomial], grid: Sequence[Scalar], family: CorrectionFamily, *, terms: int
) -> Iterator[list[tuple[Polynomial, Polynomial]]]:
    """Both step-x identity residuals of each f in fs at every x of the grid.

    An iterator of one list per polynomial, in the order of fs, of one
    (scaled-difference, unit-difference) pair per grid entry; see
    scaled_difference_residual and unit_difference_residual.  At x = 0 the
    two are Euler–Maclaurin and Gregory.  A step the grid repeats, or writes
    unreduced, is solved once.

    terms is the size of the tables: the call checks the family, builds the
    tables of _faulhaber(terms) and the n coefficients F_j[1], j < terms, and
    the two n rows psi of each distinct step (see _residual_rows); a
    polynomial of lower degree reads their first entries.  fs is read one
    polynomial at a time, as the iterator reaches it.  At a step where both
    rows are empty every polynomial gets one shared zero; otherwise its
    residuals are solved then, the n^i coefficient being
    sum_j C(j+1, i) f_j psi[j+1-i] / (j+1).  A polynomial with
    deg f + 1 > terms raises DownsumError when the iterator reaches it.
    """
    if terms < 0:
        raise ValueError("terms must be >= 0")
    keys = [(x.numerator, x.denominator) for x in map(Fraction, grid)]
    if family.max_order < terms:
        raise DownsumError(f"family has max_order {family.max_order}, identity needs {terms}")
    second, sums, den = _faulhaber(terms)
    linear = [sum(s * m[1] for s, m in zip(row, sums)) for row in second[:terms]]  # F_j[1] over den
    rows = {key: _residual_rows(family, *key, second, linear, den) for key in dict.fromkeys(keys)}
    zero = Polynomial()

    def residual(f: Polynomial, psi: list[int], psi_den: int) -> Polynomial:
        if not psi:
            return zero
        g = [0, *(n * (den // m) for m, n in enumerate(f._num, 1))]  # f_{m-1} / m over den
        num = [sum(comb(i + k, i) * g[i + k] * p for k, p in enumerate(psi[:len(g) - i]))
               for i in range(1, len(g))]
        return Polynomial._from_ints([0, *num], den * psi_den * f._den)

    def solve(f: Polynomial) -> list[tuple[Polynomial, Polynomial]]:
        if f.degree >= terms:
            raise DownsumError(
                f"polynomial of degree {f.degree} needs {f.degree + 1} terms, tables hold {terms}"
            )
        solved = {key: tuple(residual(f, *row) for row in pair) for key, pair in rows.items()}
        return [solved[key] for key in keys]

    return map(solve, fs)


def scaled_difference_residual(
    f: Polynomial, x: Scalar, family: CorrectionFamily
) -> Polynomial:
    """Residual of the step-x summation identity (weights on x-step differences).

    LHS is the unit-step indefinite sum; RHS is the downsampled sum plus
    sum_{r=1}^{deg f + 1} w_r(x)/r! * (D_x^{r-1} f(n) - D_x^{r-1} f(0)) / x^{r-1}.
    """
    return next(step_identity_residuals([f], [x], family, terms=f.degree + 1))[0][0]


def unit_difference_residual(
    f: Polynomial, x: Scalar, family: CorrectionFamily
) -> Polynomial:
    """Residual of the reversed identity (reversed weights on unit differences).

    x * sum_{k<n/x} f(kx) = sum_{k<n} f(k)
                            + sum_r u_r(x)/r! * (D^{r-1} f(n) - D^{r-1} f(0)).
    """
    return next(step_identity_residuals([f], [x], family, terms=f.degree + 1))[0][1]


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
