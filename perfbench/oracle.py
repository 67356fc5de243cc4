"""Independent oracles for every response the benchmark checks.

Nothing here imports ``downsum``: the numbers come from textbook recurrences
that differ from the library's own construction (which exponentiates a
logarithm series and inverts the result).

- Bernoulli numbers from ``sum_{k<=m} C(m+1, k) B_k = 0`` (so ``B_1 = -1/2``).
- Gregory coefficients from expanding ``z / log(1+z)``.
- Weight polynomials ``F_r`` from ``sum_{k<r} C(r,k) v_{r-1-k}(x) F_k(x) = 0``
  with ``v_k = (1-x)(1-2x)...(1-kx)``, and ``F_r*`` as the degree-``r``
  coefficient reversal of ``F_r``.

Each ``check_*`` function returns ``None`` for an accepted response and a
one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import math
import re
from fractions import Fraction
from math import comb, factorial

Poly = list  # ascending Fraction coefficients, trailing zeros trimmed

#: Relative tolerance for the float answers of ``accelerate``.  They print 12
#: significant digits (rounding error below 1e-12 relative) and sum a few
#: hundred terms, whose order may change the last bits.
ACCELERATE_REL_TOL = 1e-10
#: ``err`` of ``downsample`` may differ from the float recomputation by
#: ``DOWNSAMPLE_REL_TOL * err + DOWNSAMPLE_SCALE_TOL * scale``, where ``scale``
#: is the sum of absolute sample values in the window.  The second term
#: covers rounding in sums of ~1000 samples; it is about 250 times the
#: largest gap seen between the library and this recomputation (4e-15 * scale
#: over 800 windows of seeds 1..5).
DOWNSAMPLE_REL_TOL = 1e-6
DOWNSAMPLE_SCALE_TOL = 1e-12


def _trim(coeffs: list[Fraction]) -> Poly:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _poly_eval(p: Poly, at: Fraction) -> Fraction:
    value = Fraction(0)
    for c in reversed(p):
        value = value * at + c
    return value


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n from the classical recurrence, with B_1 = -1/2."""
    numbers = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum((comb(m + 1, k) * numbers[k] for k in range(m)), Fraction(0))
        numbers.append(-acc / (m + 1))
    return numbers


def gregory_coefficients(n: int) -> list[Fraction]:
    """G_0..G_n: the coefficients of z/log(1+z) = 1 / sum_m (-z)^m/(m+1)."""
    series = [Fraction((-1) ** m, m + 1) for m in range(n + 1)]
    inverse = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum((series[k] * inverse[m - k] for k in range(1, m + 1)), Fraction(0))
        inverse.append(-acc)
    return inverse


def weight_polynomials(n: int) -> list[Poly]:
    """F_0..F_n from the v-recurrence, solved for its top term r*F_{r-1}."""
    v = [[Fraction(1)]]
    for k in range(1, n + 1):
        v.append(_poly_mul(v[-1], [Fraction(1), Fraction(-k)]))
    weights: list[Poly] = [[Fraction(1)]]
    for r in range(2, n + 2):
        acc: list[Fraction] = []
        for k in range(r - 1):
            term = _poly_mul(v[r - 1 - k], weights[k])
            acc.extend([Fraction(0)] * (len(term) - len(acc)))
            for i, c in enumerate(term):
                acc[i] += comb(r, k) * c
        weights.append(_trim([-c / r for c in acc]))
    return weights


def reversed_weight(weight: Poly, r: int) -> Poly:
    """x^r F_r(1/x): the coefficient reversal padded to degree r."""
    padded = list(weight) + [Fraction(0)] * (r + 1 - len(weight))
    return _trim(padded[::-1])


class Tables:
    """Oracle numbers up to the orders a workload asks for."""

    def __init__(self, max_order: int, max_terms: int):
        self.bernoulli = bernoulli_numbers(max_order)
        self.gregory = gregory_coefficients(max(max_order, max_terms))
        self.weights = weight_polynomials(max_order)
        self.unit_weights = [reversed_weight(w, r) for r, w in enumerate(self.weights)]


# ---------------------------------------------------------------------------
# Expected values
# ---------------------------------------------------------------------------


def gamma_partial_sum(gregory: list[Fraction], n_terms: int) -> float:
    """sum_{r=1}^{n} (-1)^(r+1) G_r / r, correctly rounded from float terms."""
    return math.fsum((-1) ** (r + 1) * float(gregory[r] / r) for r in range(1, n_terms + 1))


def ln2_partial_sum(order: int) -> float:
    """Euler transform of 1 - 1/2 + 1/3 - ... to the given order.

    D^r of 1/(k+1) at k = 0 is (-1)^r/(r+1), so the r-th transformed term is
    1/((r+1) 2^(r+1)).
    """
    return math.fsum(math.ldexp(1.0 / (r + 1), -(r + 1)) for r in range(order + 1))


def _difference(values: list[float], t: int, step: int, order: int) -> float:
    row = [values[t + j * step] for j in range(order + 1)]
    for _ in range(order):
        row = [b - a for a, b in zip(row, row[1:])]
    return row[0]


def downsample_rows(
    values: list[float],
    t0: int,
    n: int,
    factors: list[int],
    max_order: int,
    weights: list[Poly],
) -> tuple[list[tuple[int, int, float]], float]:
    """Expected (x, R, err) rows and the tolerance scale of one window."""
    window = values[t0:t0 + n]
    truth = math.fsum(window)
    rows = []
    for x in sorted(set(factors)):
        total = x * math.fsum(window[::x])
        for order in range(max_order + 1):
            if order:
                r = order
                weight = _poly_eval(weights[r], Fraction(x)) / factorial(r) / Fraction(x) ** (r - 1)
                span = _difference(values, t0 + n, x, r - 1) - _difference(values, t0, x, r - 1)
                total += float(weight) * span
            rows.append((x, order, abs(truth - total)))
    return rows, math.fsum(abs(v) for v in window)


# ---------------------------------------------------------------------------
# Response checks
# ---------------------------------------------------------------------------

_TERM = re.compile(r"^(?:(?P<coef>[0-9/]+)\*)?x(?:\^(?P<deg>\d+))?$")


def parse_pretty(text: str) -> dict[int, Fraction]:
    """Parse ``-19/30*x^4 + 2/3*x^2 - 1/30`` into {degree: coefficient}."""
    if text == "0":
        return {}
    tokens = text.split(" ")
    signed = [tokens[0]] + [sign + body for sign, body in zip(tokens[1::2], tokens[2::2])]
    if len(tokens) % 2 == 0 or any(sign not in ("+", "-") for sign in tokens[1::2]):
        raise ValueError(f"malformed polynomial {text!r}")
    terms: dict[int, Fraction] = {}
    for term in signed:
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        match = _TERM.match(body)
        if match:
            coef = Fraction(match["coef"]) if match["coef"] else Fraction(1)
            degree = int(match["deg"]) if match["deg"] else 1
        else:
            coef, degree = Fraction(body), 0
        if degree in terms or coef == 0:
            raise ValueError(f"malformed polynomial {text!r}")
        terms[degree] = sign * coef
    return terms


def _as_terms(poly: Poly) -> dict[int, Fraction]:
    return {i: c for i, c in enumerate(poly) if c}


def _parse_list(text: str) -> Poly:
    return _trim([Fraction(part) for part in text.split(",")])


def format_rational(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def check_coeffs(out: str, max_order: int, variant: str, tables: Tables) -> str | None:
    """variant is ``table``, ``star`` (table of F_r*) or ``csv``."""
    lines = out.splitlines()
    if len(lines) != max_order + 2:
        return f"expected {max_order + 2} lines, got {len(lines)}"
    if variant == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["r", "F_r_coeffs", "F_r_star_coeffs", "B_r", "G_r"]:
            return f"bad csv header {rows[0]}"
        for r, row in enumerate(rows[1:]):
            try:
                got = (int(row[0]), _parse_list(row[1]), _parse_list(row[2]), Fraction(row[3]), Fraction(row[4]))
            except (ValueError, IndexError, ZeroDivisionError):
                return f"unparsable csv row {row}"
            want = (r, tables.weights[r], tables.unit_weights[r], tables.bernoulli[r], tables.gregory[r])
            if got != want:
                return f"csv row {r} differs from the oracle"
        return None
    label = "F_r*(x)" if variant == "star" else "F_r(x)"
    chosen = tables.unit_weights if variant == "star" else tables.weights
    if re.split(r" {2,}", lines[0]) != ["r", label, "B_r", "G_r"]:
        return f"bad table header {lines[0]!r}"
    for r, line in enumerate(lines[1:]):
        cells = re.split(r" {2,}", line)
        if len(cells) != 4:
            return f"table row {r} has {len(cells)} cells"
        try:
            got = (int(cells[0]), parse_pretty(cells[1]), Fraction(cells[2]), Fraction(cells[3]))
        except (ValueError, ZeroDivisionError):
            return f"unparsable table row {line!r}"
        want = (r, _as_terms(chosen[r]), tables.bernoulli[r], tables.gregory[r])
        if got != want:
            return f"table row {r} differs from the oracle"
    return None


def check_float(out: str, expected: float, rel_tol: float = ACCELERATE_REL_TOL) -> str | None:
    try:
        value = float(out)
    except ValueError:
        return f"not a number: {out[:80]!r}"
    if not out.endswith("\n") or out.count("\n") != 1:
        return "expected exactly one output line"
    if not math.isclose(value, expected, rel_tol=rel_tol):
        return f"value {value!r} differs from oracle {expected!r}"
    return None


def expected_verify(seed: int, degree: int, grid: list[Fraction], classical: bool, trials: int) -> str:
    """The exact stdout of a passing ``verify`` run."""
    lines = [f"seed: {seed}", "x-grid: " + ",".join(format_rational(x) for x in grid)]
    for i in range(trials):
        lines += [f"trial {i:03d} x={format_rational(x)}: pass" for x in grid]
        if classical:
            lines += [f"trial {i:03d} {name}: pass" for name in ("euler-maclaurin", "gregory", "alternating")]
    lines.append(f"{trials}/{trials} passed")
    return "\n".join(lines) + "\n"


def check_verify(out: str, expected: str) -> str | None:
    if out == expected:
        return None
    got, want = out.splitlines(), expected.splitlines()
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"line {i}: {a[:80]!r} != {b[:80]!r}"
    return f"expected {len(want)} lines, got {len(got)}"


def check_downsample(text: str, expected: list[tuple[int, int, float]], scale: float) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["x", "R", "err"]:
        return "bad downsample header"
    if len(rows) - 1 != len(expected):
        return f"expected {len(expected)} rows, got {len(rows) - 1}"
    for row, (x, order, err) in zip(rows[1:], expected):
        try:
            got = (int(row[0]), int(row[1]), float(row[2]))
        except (ValueError, IndexError):
            return f"unparsable row {row}"
        if got[:2] != (x, order):
            return f"row {row} out of order, expected x={x} R={order}"
        if not abs(got[2] - err) <= DOWNSAMPLE_REL_TOL * err + DOWNSAMPLE_SCALE_TOL * scale:
            return f"x={x} R={order}: err {got[2]!r} differs from oracle {err!r}"
    return None
