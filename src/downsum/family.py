"""Correction-weight polynomials for step-x summation, with their classical limits.

The family w_0, w_1, w_2, ... of polynomials in x is defined by the
exponential generating function

    z / ((1 + x*z)**(1/x) - 1)  =  sum_r  w_r(x) * z**r / r!

Each w_r interpolates between classical summation constants: w_r(0) is the
r-th Bernoulli number (with the w_1(0) = -1/2 convention), and the reversed
polynomial u_r(x) = x**r * w_r(1/x) carries the Gregory quadrature
coefficients at x = 0 via G_r = u_r(0)/r!.  The u_r are the weights that
multiply unit-step differences when a coarse step-x sum is corrected against
a fine unit-step sum.

Below the top one, every coefficient of w_r is one Bernoulli number times
one signed Stirling number of the first kind s(n, k), and the top one is a
Gregory number:

    [x^m] w_r  =  B_{r-m} * r * s(r-1, r-m-1) / (r-m)    for m < r,
    [x^r] w_r  =  r! * G_r.

Both come from P_r(y) = r! * [z^r] (z / log(1+z)) * (1+z)**y, whose y^k
coefficient is the factor beside B_{r-k}: P_r(0) = r! * G_r, and
P_r'(y) = r * (y)_{r-1}, the falling factorial, whose coefficients are
the s(r-1, .).  So the family is read off integer rows, and the classical
constants off the family.  The Gregory numerators g_n = L * integral_0^1
(x)_n dx, with L = lcm(1..R+1), so that G_n = g_n / (n! * L), are the first
entries of rows of falling-factorial moments L * integral_0^1 x^m (x)_n dx,
each row read off the one before by (x)_{n+1} = (x)_n * (x - n).  The
Bernoulli numbers need no algorithm of their own: at x = 1 the generating
function is z / z = 1, so w_r(1) = 0 for r >= 1, and B_r, the x^0
coefficient of w_r, is minus the sum of its other coefficients, which hold
only B_k for k < r and G_r.  By von Staudt-Clausen the denominator of B_n is
squarefree with prime factors p <= n+1, so B_n * L is an integer; since
r! * G_r = g_r / L and L is divisible by r-m, every w_r has integer
numerators over the common denominator L**2, which _values_at relies on.
The family itself builds w_r over d_r = L / gcd(g_r, L), the denominator of
its top coefficient r! * G_r, far smaller (at R = 400, at most 74 bits
against 1166).  That d_r clears the other coefficients is observed, not
proved, so each numerator over d_r is a checked divmod that raises
ArithmeticError on a remainder; the top numerator is coprime to d_r, so an
exact row is in lowest terms.

At one fixed point x the R+1 values need no family.  Expanding the
denominator of the generating function,

    ((1 + x*z)**(1/x) - 1) / z  =  sum_j  v_j(x) * z**j / (j+1)!,
    v_j(x) = (1 - x)(1 - 2x)...(1 - jx),

and matching z**n in the product with sum_r w_r(x) z**r / r! gives
w_0 = 1 and w_n = -(1/(n+1)) * sum_{j=1..n} C(n+1, j+1) * v_j * w_{n-j}.  The
reversals satisfy the same recurrence with (x - 1)(x - 2)...(x - j) in place
of v_j, which needs no division by x.  For x = p/q every F_n =
w_n(p/q) * q**n * L**2 is an integer (it is the Horner sum of w_n's integer
numerators), so the recurrence runs on integers, with V_j = q**j * v_j(p/q)
= (q - p)(q - 2p)...(q - jp) (or (p - q)(p - 2q)...(p - jq) for u), F_0 = L**2
and an exact division by n+1.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .exact import Polynomial, _convolve, _linear_combination


class CorrectionFamily:
    """The first max_order+1 correction weights and their reversals.

    weights[r] multiplies the step-x difference of order r-1; unit_weights[r]
    is its coefficient reversal and multiplies the unit-step difference of
    order r-1 in the dual form of the identity.  max_order is one less than
    the common length of the two lists; the fields are read-only.
    """

    __slots__ = ("_fields", "__weakref__")

    def __init__(self, weights: tuple, unit_weights: tuple) -> None:
        if not weights or len(weights) != len(unit_weights):
            raise ValueError("family lists must be nonempty and of one length")
        self._fields = (len(weights) - 1, weights, unit_weights)

    max_order = property(lambda self: self._fields[0])
    weights = property(lambda self: self._fields[1])
    unit_weights = property(lambda self: self._fields[2])


#: Bernoulli numbers B_0..B_R and Gregory coefficients G_0..G_R.
CoefficientTable = namedtuple("CoefficientTable", ["bernoulli", "gregory"])


def _gregory_numerators(max_order: int) -> tuple[list[int], int]:
    """(g, L) with g_n = L * integral_0^1 (x)_n dx for n <= R and L = lcm(1..R+1).

    row[m] holds L * integral_0^1 x^m (x)_n dx; (x)_{n+1} = (x)_n * (x - n)
    turns it into the next row, one entry shorter.  G_n = g_n / (n! * L).
    """
    scale = lcm(*range(1, max_order + 2))
    row = [scale // (m + 1) for m in range(max_order + 1)]
    g = [row[0]]
    for n in range(max_order):
        row = [b - n * a for a, b in zip(row, row[1:])]
        g.append(row[0])
    return g, scale


def _values_at(max_order: int, p: int, q: int, unit: bool = False) -> tuple[list[int], int]:
    """(F, L**2) with w_r(p/q) = F[r] / (L**2 * q**r) for r <= R, or u_r with unit.

    The fixed-point recurrence of the module docstring on integers; q > 0.
    No family is built, and every division is exact.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    den = lcm(*range(1, max_order + 2)) ** 2
    a, b = (p, q) if unit else (q, p)
    v = [1]  # V_j = (a - b)(a - 2b)...(a - jb)
    for l in range(1, max_order + 1):
        v.append(v[-1] * (a - l * b))
    f = [den]
    for n in range(1, max_order + 1):
        acc, c = 0, n + 1  # c = C(n+1, j+1)
        for j in range(1, n + 1):
            c = c * (n - j + 1) // (j + 1)
            acc += c * v[j] * f[n - j]
        f.append(-acc // (n + 1))
    return f, den


def correction_family(max_order: int) -> CorrectionFamily:
    """Generate weights w_0..w_R and reversals u_0..u_R, exactly.

    Over d_r = L / gcd(g_r, L) (see the module docstring) the x^m numerator
    of w_r is B_{r-m} * r * s(r-1, r-m-1) * d_r / (r-m) for 0 < m < r, one
    divmod that raises ArithmeticError on a remainder, and g_r / gcd(g_r, L)
    for m = r; the x^0 numerator, B_r * d_r, is minus the sum of the others,
    as w_r(1) = 0.  u_r has the same numerators in reverse order.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    g, scale = _gregory_numerators(max_order)
    bernoulli = [(1, 1)]  # B_k as a lowest-terms pair (numerator, denominator)
    stirling = [1]  # s(r-1, 0..r-1), one row per order r >= 1
    weights, unit_weights = [], []
    for r in range(max_order + 1):
        if r > 1:
            stirling = [a - (r - 2) * c for a, c in zip([0] + stirling, stirling + [0])]
        content = gcd(g[r], scale)
        den = scale // content  # d_r, the denominator of r! * G_r = g_r / L
        num = []
        for k in range(r - 1, 0, -1):  # the x^(r-k) numerator over d_r
            b_num, b_den = bernoulli[k]
            quotient, rem = divmod(r * b_num * stirling[k - 1] * den, b_den * k) if b_num else (0, 0)
            if rem:
                raise ArithmeticError(f"row {r} of the family is not integral over {den}")
            num.append(quotient)
        num.append(g[r] // content)
        if r:
            num.insert(0, -sum(num))
            common = gcd(num[0], den)
            bernoulli.append((num[0] // common, den // common))
        # w_r is in lowest terms, its top numerator being coprime to d_r, and
        # so is u_r: the reversal trims only w_r's zero low numerators.
        w = Polynomial._from_ints(num, den, lowest=True)
        weights.append(w)
        unit_weights.append(Polynomial._from_ints(list(w._num[::-1]), w._den, lowest=True))
    return CorrectionFamily(tuple(weights), tuple(unit_weights))


def classical_numbers(family: CorrectionFamily) -> CoefficientTable:
    """Extract B_r = weights[r](0) and G_r, the top coefficient of weights[r] over r!."""
    bernoulli = tuple(w.coefficient(0) for w in family.weights)
    gregory = tuple(Fraction(w._num[-1], w._den * factorial(r)) for r, w in enumerate(family.weights))
    return CoefficientTable(bernoulli, gregory)


def coefficient_table(max_order: int) -> CoefficientTable:
    """Bernoulli and Gregory numbers B_0..B_R and G_0..G_R, read off the family.

    The same as classical_numbers(correction_family(max_order)): the integer
    Bernoulli and Gregory rows are built once, inside the family.
    """
    return classical_numbers(correction_family(max_order))


def _recurrence_residual(weights: tuple, r: int, linear) -> Polynomial:
    """sum_{k<r} C(r,k) * p_k(x) * weights[k] on integer rows, for 2 <= r < len(weights).

    p_k is the product of the rows linear(c), c = j+1-r, for j = r-1 down to
    k: (c, 1) builds (x)_{r-k} and (1, c) builds v_{r-k-1}.  Each term is one
    _convolve, and one _linear_combination sums the terms.
    """
    if not 2 <= r < len(weights):
        raise ValueError(f"order {r} outside 2..{len(weights) - 1}")
    terms, running = [], [1]
    for k in range(r - 1, -1, -1):
        running = _convolve(running, linear(k + 1 - r))
        terms.append((comb(r, k), weights[k]._den, _convolve(running, weights[k]._num)))
    return _linear_combination(terms)


def unit_weight_recurrence_residual(family: CorrectionFamily, r: int) -> Polynomial:
    """sum_{k=0}^{r-1} C(r,k) * (x)_{r-k} * u_k(x); zero for a correct family.

    (x)_m = x(x-1)...(x-m+1) is the falling factorial; the shared
    _recurrence_residual sums the terms.
    """
    return _recurrence_residual(family.unit_weights, r, lambda c: (c, 1))


def weight_recurrence_residual(family: CorrectionFamily, r: int) -> Polynomial:
    """sum_{k=0}^{r-1} C(r,k) * v_{r-k-1}(x) * w_k(x); zero for a correct family.

    v_j(x) = (1-x)(1-2x)...(1-jx) is the reversal of (x-1)(x-2)...(x-j); the
    shared _recurrence_residual sums the terms.  Substituting u_r(x) =
    x^r w_r(1/x) into the unit-weight recurrence forces the index r-k-1:
    the variant with r-k already fails at r = 2, as a test shows.
    """
    return _recurrence_residual(family.weights, r, lambda c: (1, c))
