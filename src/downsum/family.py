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

Every coefficient of w_r is a Bernoulli number times a sum of Gregory
numbers and signed Stirling numbers of the first kind s(n, k):

    [x^m] w_r  =  B_{r-m} * sum_{j<=m} (r)_j * G_j * s(r-j, r-m)

so the family and the classical constants are all read off one set of
integer rows: the Stirling rows, the Bernoulli numerators b_n = B_n * D with
D = 2 * (product of the primes p <= R+1), which is an integer by von
Staudt-Clausen, and the Gregory numerators g_n = sum_k s(n,k) * L/(k+1)
with L = lcm(1..R+1), so that G_n = g_n / (n! * L).  Since
(r)_j * G_j = C(r,j) * g_j / L, every w_r has integer numerators over the
single denominator L * D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt, lcm, prod
from operator import mul
from typing import Iterator, Sequence

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


def _stirling_rows(max_order: int) -> Iterator[list[int]]:
    """Rows s(n, 0..n) of signed Stirling numbers of the first kind, n = 0..R.

    s(n+1, k) = s(n, k-1) - n * s(n, k); only one row is alive at a time.
    """
    row = [1]
    yield row
    for n in range(max_order):
        row = [a - n * b for a, b in zip([0] + row, row + [0])]
        yield row


def _bernoulli_denominator(max_order: int) -> int:
    """D = 2 * (product of the primes p <= R+1); D * B_n is an integer for n <= R."""
    primes = (
        p for p in range(2, max_order + 2) if all(p % q for q in range(2, isqrt(p) + 1))
    )
    return 2 * prod(primes)


def _bernoulli_numerators(max_order: int, den: int) -> list[int]:
    """b_n = B_n * den for n <= R, from sum_{k<=n} C(n+1, k) * B_k = 0.

    den must make every b_n an integer; B_n = 0 for odd n >= 3 is skipped.
    """
    b = [den]
    for n in range(1, max_order + 1):
        if n % 2 and n > 1:
            b.append(0)
            continue
        acc = sum(comb(n + 1, k) * b[k] for k in range(n) if b[k])
        b.append(-acc // (n + 1))
    return b


def _stirling_gregory_rows(max_order: int, scale: int) -> Iterator[tuple[list[int], int]]:
    """(s(n, 0..n), g_n) for n = 0..R, with g_n = sum_k s(n, k) * scale/(k+1).

    scale must be divisible by 1..R+1; then G_n = g_n / (n! * scale).
    """
    quotients = [scale // (k + 1) for k in range(max_order + 1)]
    for row in _stirling_rows(max_order):
        yield row, sum(map(mul, row, quotients))


@lru_cache(maxsize=None)
def correction_family(max_order: int) -> CorrectionFamily:
    """Generate weights w_0..w_R and reversals u_0..u_R, exactly.

    The x^m numerator of w_r is b_{r-m} * sum_{j<=m} C(r,j) * g_j * s(r-j, r-m)
    over the common denominator L * D (see the module docstring); u_r has
    the same numerators in reverse order.  The coefficient vanishes wherever
    r-m is odd and at least 3, with B_{r-m}.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    scale = lcm(*range(1, max_order + 2))
    den = _bernoulli_denominator(max_order)
    b = _bernoulli_numerators(max_order, den)
    stirling, g = zip(*_stirling_gregory_rows(max_order, scale))
    weights, unit_weights = [], []
    for r in range(max_order + 1):
        weighted_g = [comb(r, j) * g[j] for j in range(r + 1)]
        num = [
            b[r - m] * sum(weighted_g[j] * stirling[r - j][r - m] for j in range(m + 1))
            if b[r - m] else 0
            for m in range(r + 1)
        ]
        # Reverse before _from_ints, which trims num in place.
        unit_weights.append(Polynomial._from_ints(num[::-1], scale * den))
        weights.append(Polynomial._from_ints(num, scale * den))
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

    The same integer rows as :func:`correction_family`, with B_n = b_n/D and
    G_n = g_n/(n! * L).  The Stirling rows are streamed, so memory stays at
    one row rather than the whole triangle (about 24k big ints at R = 220).
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    scale = lcm(*range(1, max_order + 2))
    den = _bernoulli_denominator(max_order)
    bernoulli = tuple(Fraction(b, den) for b in _bernoulli_numerators(max_order, den))
    gregory = []
    n_factorial = 1
    for n, (_, g) in enumerate(_stirling_gregory_rows(max_order, scale)):
        n_factorial *= n or 1
        gregory.append(Fraction(g, n_factorial * scale))
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
