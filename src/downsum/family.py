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

Generation is pure series algebra over exact rationals:

    L(z) = log(1 + x*z)/x  truncated at order R+1   (coefficients in x)
    E(z) = exp(L(z))       = (1 + x*z)**(1/x)
    D(z) = (E(z) - 1)/z    constant term 1
    sum_r w_r(x) z^r / r!  = 1/D(z)

so w_r = r! * [z^r] reciprocal(D), and u_r is the coefficient reversal of
w_r padded to degree r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Sequence

from .errors import NonUnitConstantTerm
from .exact import Polynomial, PowerSeries, Scalar


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


def _reverse_to_degree(p: Polynomial, degree: int) -> Polynomial:
    """Coefficient reversal of p padded to the given degree.

    Realizes x**degree * p(1/x); trailing zeros of the result are trimmed
    by the Polynomial constructor, so the reversal of an odd-order weight
    drops a degree (its own leading coefficient sits at x**0... of p).
    """
    padded = list(p.coeffs) + [Fraction(0)] * (degree + 1 - len(p.coeffs))
    return Polynomial(reversed(padded))


@lru_cache(maxsize=None)
def correction_family(max_order: int) -> CorrectionFamily:
    """Generate weights w_0..w_R and reversals u_0..u_R, exactly.

    The log series is written down directly (log(1+x*z)/x has the z^m
    coefficient (-1)^(m+1) * x^(m-1) / m), exponentiated, shifted down one
    power of z, and inverted.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    log_coeffs = [Polynomial.zero()]
    for m in range(1, max_order + 2):
        sign = 1 if m % 2 == 1 else -1
        log_coeffs.append(Polynomial.monomial(m - 1, Fraction(sign, m)))
    exponential = PowerSeries(log_coeffs).exp()
    # (E(z) - 1)/z : drop the constant 1 and shift every power down by one.
    denominator = PowerSeries(exponential.coeffs[1:])
    inverse = denominator.reciprocal()
    weights = tuple(factorial(r) * inverse.coeffs[r] for r in range(max_order + 1))
    unit_weights = tuple(_reverse_to_degree(w, r) for r, w in enumerate(weights))
    return CorrectionFamily(max_order, weights, unit_weights)


def classical_numbers(family: CorrectionFamily) -> CoefficientTable:
    """Extract B_r = weights[r](0) and G_r = unit_weights[r](0)/r!."""
    bernoulli = tuple(w.constant_term for w in family.weights)
    gregory = tuple(
        u.constant_term / factorial(r) for r, u in enumerate(family.unit_weights)
    )
    return CoefficientTable(bernoulli, gregory)


def coefficient_table(max_order: int) -> CoefficientTable:
    """Bernoulli and Gregory numbers by direct scalar series inversion.

    This is the cheap route when only the numbers are needed (the full
    polynomial family costs O(R^4) rational operations, prohibitive at the
    R = 200 scale the Euler-Mascheroni series wants).  B_r/r! are the
    coefficients of the reciprocal of (e^z - 1)/z, and G_r those of the
    reciprocal of log(1+z)/z.  Cross-checked against the family route in
    the test suite.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    exp_based = [Fraction(1, factorial(m + 1)) for m in range(max_order + 1)]
    log_based = [Fraction((-1) ** m, m + 1) for m in range(max_order + 1)]
    bernoulli = tuple(
        factorial(r) * c for r, c in enumerate(_scalar_reciprocal(exp_based))
    )
    gregory = tuple(_scalar_reciprocal(log_based))
    return CoefficientTable(bernoulli, gregory)


def _scalar_reciprocal(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Multiplicative inverse of a scalar series with constant term 1.

    Each output coefficient is summed as one integer numerator over the lcm
    of its terms' denominators, so every row builds a single Fraction.
    """
    if coeffs[0] != 1:
        raise NonUnitConstantTerm(f"constant term is {coeffs[0]}, expected 1")
    out = [Fraction(1)]
    for n in range(1, len(coeffs)):
        nums = [coeffs[k].numerator * out[n - k].numerator for k in range(1, n + 1)]
        dens = [coeffs[k].denominator * out[n - k].denominator for k in range(1, n + 1)]
        den = lcm(*dens)
        out.append(Fraction(-sum(a * (den // d) for a, d in zip(nums, dens)), den))
    return out


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


_SPECIAL_POINTS = {
    "half": Fraction(1, 2),
    "two": Fraction(2),
    "one": Fraction(1),
    "minus_one": Fraction(-1),
}


def special_value(family: CorrectionFamily, r: int, which: str) -> Fraction:
    """Evaluate weights[r] at one of the four distinguished points.

    At "half" the value collapses to (-1)^r r!/4^r, at "two" to the
    central-binomial closed form (-1)^r (2r)!/((1-2r) r! 2^(r+1)) for r >= 1,
    and "one"/"minus_one" are roots (for r >= 1 resp. r >= 2).
    """
    if r > family.max_order:
        raise ValueError(f"order {r} exceeds family max_order {family.max_order}")
    try:
        at = _SPECIAL_POINTS[which]
    except KeyError:
        raise ValueError(f"unknown special point {which!r}") from None
    return family.weights[r](at)


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
