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
the s(r-1, .).  So the family and the classical constants are all read off
integer rows.  The Bernoulli numerators b_n = B_n * D, with D = 2 * (product
of the primes p <= R+1), are integers by von Staudt-Clausen; the even ones
come from the tangent numbers T_k (Brent and Harvey, arXiv:1108.0286) as
b_{2k} = (-1)^(k-1) * 2k * T_k * D / (4^k * (4^k - 1)).  The Gregory
numerators g_n = L * integral_0^1 (x)_n dx, with L = lcm(1..R+1), so that
G_n = g_n / (n! * L), are the first entries of rows of falling-factorial
moments L * integral_0^1 x^m (x)_n dx, each row read off the one before by
(x)_{n+1} = (x)_n * (x - n).  Since r! * G_r = g_r / L and L is divisible
by r-m, every w_r has integer numerators over the single denominator L * D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt, lcm, prod
from typing import Sequence

from .exact import Polynomial, Scalar


@dataclass(frozen=True)
class CorrectionFamily:
    """The first max_order+1 correction weights and their reversals.

    weights[r] multiplies the step-x difference of order r-1; unit_weights[r]
    is its coefficient reversal and multiplies the unit-step difference of
    order r-1 in the dual form of the identity.
    """

    max_order: int
    weights: tuple[Polynomial, ...]
    unit_weights: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        expected = self.max_order + 1
        if len(self.weights) != expected or len(self.unit_weights) != expected:
            raise ValueError("family lists must have max_order+1 entries")


@dataclass(frozen=True)
class CoefficientTable:
    """Bernoulli numbers B_0..B_R and Gregory coefficients G_0..G_R."""

    bernoulli: tuple[Fraction, ...]
    gregory: tuple[Fraction, ...]

    @property
    def max_order(self) -> int:
        return len(self.bernoulli) - 1


def _bernoulli_denominator(max_order: int) -> int:
    """D = 2 * (product of the primes p <= R+1); D * B_n is an integer for n <= R."""
    primes = (
        p for p in range(2, max_order + 2) if all(p % q for q in range(2, isqrt(p) + 1))
    )
    return 2 * prod(primes)


def _bernoulli_numerators(max_order: int, den: int) -> list[int]:
    """b_n = B_n * den for n <= R, from the tangent numbers T_1..T_{R//2}.

    den must make every b_n an integer, so the division by 4^k * (4^k - 1)
    is exact.  The T_k are built in place by integer-only updates (Brent and
    Harvey's TangentNumbers); B_1 = -1/2 and B_n = 0 for odd n >= 3.
    """
    half = max_order // 2
    tangent = [0, 1]  # tangent[k] = T_k, 1-based; starts as (k-1)!
    for k in range(2, half + 1):
        tangent.append((k - 1) * tangent[-1])
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    b = [den, -den // 2] + [0] * (max_order - 1)
    for k in range(1, half + 1):
        power = 4 ** k
        value = 2 * k * tangent[k] * den // (power * (power - 1))
        b[2 * k] = value if k % 2 else -value
    return b[: max_order + 1]


def _gregory_numerators(max_order: int, scale: int) -> list[int]:
    """g_n = scale * integral_0^1 (x)_n dx for n <= R, from falling-factorial moments.

    row[m] holds scale * integral_0^1 x^m (x)_n dx; (x)_{n+1} = (x)_n * (x - n)
    turns it into the next row, one entry shorter.  scale must be divisible
    by 1..R+1; then G_n = g_n / (n! * scale).
    """
    row = [scale // (m + 1) for m in range(max_order + 1)]
    g = [row[0]]
    for n in range(max_order):
        row = [b - n * a for a, b in zip(row, row[1:])]
        g.append(row[0])
    return g


def _numerators(max_order: int) -> tuple[int, int, list[int], list[int]]:
    """(L, D, b, g): the two denominators and the numerator rows b_0..b_R, g_0..g_R."""
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    scale = lcm(*range(1, max_order + 2))
    den = _bernoulli_denominator(max_order)
    return scale, den, _bernoulli_numerators(max_order, den), _gregory_numerators(max_order, scale)


@lru_cache(maxsize=None)
def correction_family(max_order: int) -> CorrectionFamily:
    """Generate weights w_0..w_R and reversals u_0..u_R, exactly.

    Over the common denominator L * D (see the module docstring) the x^m
    numerator of w_r is b_{r-m} * (L / (r-m)) * r * s(r-1, r-m-1) for m < r
    and D * g_r for m = r; u_r has the same numerators in reverse order.
    The coefficient vanishes wherever r-m is odd and at least 3, with B_{r-m}.
    """
    scale, den, b, g = _numerators(max_order)
    scaled_b = [b[k] * (scale // k) if k else 0 for k in range(max_order + 1)]
    stirling = [1]  # s(r-1, 0..r-1), one row per order r >= 1
    weights, unit_weights = [], []
    for r in range(max_order + 1):
        if r > 1:
            stirling = [a - (r - 2) * c for a, c in zip([0] + stirling, stirling + [0])]
        num = [r * scaled_b[r - m] * stirling[r - m - 1] for m in range(r)] + [den * g[r]]
        w = Polynomial._from_ints(num, scale * den)
        # w keeps all r+1 numerators, as its top one D * g_r is nonzero, so
        # reversed they are u_r's, already in lowest terms.
        weights.append(w)
        unit_weights.append(Polynomial._from_ints(list(w._num[::-1]), w._den))
    return CorrectionFamily(max_order, tuple(weights), tuple(unit_weights))


def classical_numbers(family: CorrectionFamily) -> CoefficientTable:
    """Extract B_r = weights[r](0) and G_r = unit_weights[r](0)/r!."""
    bernoulli = tuple(w.constant_term for w in family.weights)
    gregory = tuple(
        u.constant_term / factorial(r) for r, u in enumerate(family.unit_weights)
    )
    return CoefficientTable(bernoulli, gregory)


def coefficient_table(max_order: int) -> CoefficientTable:
    """Bernoulli and Gregory numbers B_0..B_R and G_0..G_R, without the family.

    The same integer numerators as :func:`correction_family`, with
    B_n = b_n/D from the tangent numbers and G_n = g_n/(n! * L) from the
    falling-factorial moment rows; no Stirling number is built.
    """
    scale, den, b, g = _numerators(max_order)
    bernoulli = tuple(Fraction(n, den) for n in b)
    gregory = []
    n_factorial = 1
    for n, numerator in enumerate(g):
        n_factorial *= n or 1
        gregory.append(Fraction(numerator, n_factorial * scale))
    return CoefficientTable(bernoulli, tuple(gregory))


def falling_factorial(m: int) -> Polynomial:
    """The degree-m polynomial x(x-1)(x-2)...(x-m+1); 1 for m = 0."""
    result = Polynomial.one()
    for l in range(m):
        result = result * Polynomial((-l, 1))
    return result


def reversed_falling_factorial(k: int) -> Polynomial:
    """(1-x)(1-2x)...(1-kx); 1 for k = 0.

    This is the coefficient reversal of (x-1)(x-2)...(x-k), which is why it
    pairs with the plain falling factorial across the two recurrence forms.
    """
    result = Polynomial.one()
    for l in range(1, k + 1):
        result = result * Polynomial((1, -l))
    return result


def unit_weight_recurrence_residual(family: CorrectionFamily, r: int) -> Polynomial:
    """sum_{k=0}^{r-1} C(r,k) * (x)_{r-k} * u_k(x); zero for a correct family."""
    if not 2 <= r <= family.max_order:
        raise ValueError(f"order {r} outside 2..{family.max_order}")
    acc = Polynomial.zero()
    for k in range(r):
        acc = acc + comb(r, k) * falling_factorial(r - k) * family.unit_weights[k]
    return acc


def weight_recurrence_residual(family: CorrectionFamily, r: int) -> Polynomial:
    """sum_{k=0}^{r-1} C(r,k) * v_{r-k-1}(x) * w_k(x) with v the reversed
    falling factorial; zero for a correct family.

    The index r-k-1 (rather than r-k) is forced by substituting the
    reversal relation u_r(x) = x^r w_r(1/x) into the unit-weight recurrence;
    the off-by-one variant already fails at r = 2, which the test suite
    demonstrates explicitly.
    """
    if not 2 <= r <= family.max_order:
        raise ValueError(f"order {r} outside 2..{family.max_order}")
    acc = Polynomial.zero()
    for k in range(r):
        acc = acc + comb(r, k) * reversed_falling_factorial(r - k - 1) * family.weights[k]
    return acc


# ---------------------------------------------------------------------------
# Real-root counting (Sturm chains over exact rationals)
# ---------------------------------------------------------------------------

def _squarefree_part(p: Polynomial) -> Polynomial:
    gcd = _poly_gcd(p, p.derivative())
    return p.divide_exactly(gcd)


def _poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return Polynomial.one()
    return a / a.leading_coefficient


def _sturm_chain(p: Polynomial) -> list[Polynomial]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero:
        remainder = chain[-2] % chain[-1]
        chain.append(-remainder)
    chain.pop()
    return chain


def _sign_changes(chain: Sequence[Polynomial], at: Fraction) -> int:
    signs = []
    for q in chain:
        value = q(at)
        if value != 0:
            signs.append(1 if value > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: Polynomial, lo: Scalar, hi: Scalar) -> int:
    """Count distinct real roots of p in the closed interval [lo, hi], exactly.

    Sturm's theorem on the squarefree part of p, so multiple roots are
    counted once: with zero values skipped in the sign-change count V,
    V(lo) - V(hi) is the number of distinct roots in (lo, hi], and a root
    at lo adds one.
    """
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError(f"interval [{lo}, {hi}] needs lo < hi")
    reduced = _squarefree_part(p)
    chain = _sturm_chain(reduced)
    at_lo = 1 if reduced(lo) == 0 else 0
    return _sign_changes(chain, lo) - _sign_changes(chain, hi) + at_lo
