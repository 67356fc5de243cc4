"""Fraction-list oracles for the exact layer.

A polynomial here is a plain list of ascending Fraction coefficients, with
trailing zeros trimmed.  Nothing here imports ``downsum``: every routine is
the textbook definition written out term by term, so a test that builds its
expected value from these never re-runs the integer kernels it checks.

- Arithmetic: ``combination`` (a sum of scalar multiples), ``mul``,
  ``value``, ``shift`` (binomial expansion of p(t + step)), ``derivative``,
  ``antiderivative`` and ``difference`` (the binomial sum of shifts).
- Identities: ``span`` (a difference or derivative without its constant
  term) and ``perturbed_residuals``, the residuals a weight family leaves
  when delta * x^m is added to some of its weights.
- Rows: the falling factorial (x)_m and its reversal (1-x)(1-2x)...(1-jx).
- Constants: Bernoulli numbers from ``sum_{j<=m} C(m+1, j) B_j = 0`` (so
  ``B_1 = -1/2``) and Gregory coefficients from the series of z/log(1+z).
- Series: ``euler_transform``, the truncated Euler transform by repeated
  differencing of the terms.
"""

from fractions import Fraction
from math import comb, factorial


def trim(coeffs):
    """The coefficients as Fractions, trailing zeros removed."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def combination(terms):
    """sum c * a over the (c, a) pairs, a a coefficient list."""
    out = []
    for c, a in terms:
        out += [Fraction(0)] * (len(a) - len(out))
        for i, x in enumerate(a):
            out[i] += c * x
    return trim(out)


def mul(a, b):
    """The product of two coefficient lists, one term at a time."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def value(a, at):
    """a(at), summed term by term."""
    return sum((c * at**i for i, c in enumerate(a)), Fraction(0))


def shift(a, step):
    """a(t + step), each power expanded by the binomial theorem."""
    out = [Fraction(0)] * len(a)
    for i, c in enumerate(a):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * Fraction(step) ** (i - j)
    return trim(out)


def derivative(a):
    return trim(i * c for i, c in enumerate(a))[1:]


def antiderivative(a):
    """The antiderivative with zero constant term."""
    return trim([0] + [Fraction(c) / (i + 1) for i, c in enumerate(a)])


def difference(a, step, order):
    """The order-fold step difference sum_j (-1)^(order-j) C(order, j) a(t + j*step)."""
    return combination(
        ((-1) ** (order - j) * comb(order, j), shift(a, j * step)) for j in range(order + 1)
    )


def span(a, step, order):
    """D^order a(n) - D^order a(0) at that step, the order-th derivative at step 0."""
    if step == 0:
        for _ in range(order):
            a = derivative(a)
        quotient = trim(a)
    else:
        quotient = difference(a, step, order)
    return [Fraction(0), *quotient[1:]]


def perturbed_residuals(f, x, bumps):
    """(step-form, unit-form) residuals of f at step x when each bumped weight is off.

    bumps maps r to (m, delta): weights[r] and unit_weights[r] both carry an
    extra delta * x^m.  The exact weights cancel, so what is left is the
    bump's correction term with its sign flipped: -delta x^m / r! times the
    step-x span over x^(r-1) (a derivative at x = 0) in the step form, and
    times the unit span in the unit form.
    """
    x = Fraction(x)
    step_terms, unit_terms = [], []
    for r, (m, delta) in bumps.items():
        scale = -delta * x**m / factorial(r)
        step_terms.append((scale / x ** (r - 1) if x else scale, span(f, x, r - 1)))
        unit_terms.append((scale, span(f, 1, r - 1)))
    return combination(step_terms), combination(unit_terms)


def falling_factorial(m):
    """x(x-1)...(x-m+1) multiplied out; [1] for m = 0."""
    row = [Fraction(1)]
    for l in range(m):
        row = mul(row, [-l, 1])
    return row


def reversed_falling_factorial(j):
    """(1-x)(1-2x)...(1-jx) multiplied out; [1] for j = 0."""
    row = [Fraction(1)]
    for l in range(1, j + 1):
        row = mul(row, [1, -l])
    return row


def bernoulli(count):
    """B_0..B_count by the recurrence sum_{j<=m} C(m+1, j) B_j = 0."""
    values = [Fraction(1)]
    for m in range(1, count + 1):
        values.append(-sum(comb(m + 1, j) * values[j] for j in range(m)) / (m + 1))
    return values


def gregory(count):
    """G_0..G_count, the series coefficients of z/log(1+z)."""
    log_over_z = [Fraction((-1) ** m, m + 1) for m in range(count + 1)]
    values = [Fraction(1)]
    for n in range(1, count + 1):
        values.append(-sum(log_over_z[k] * values[n - k] for k in range(1, n + 1)))
    return values


def euler_transform(terms, order):
    """sum_{r<=order} (-1)^r D^r terms[0] / 2^(r+1), exactly, each D^r by differencing the row."""
    row = [Fraction(t) for t in terms[:order + 1]]
    total = Fraction(0)
    for r in range(order + 1):
        total += (-1) ** r * row[0] / 2 ** (r + 1)
        row = [b - a for a, b in zip(row, row[1:])]
    return total
