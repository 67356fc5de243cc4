"""Exact rational, polynomial, and truncated power-series arithmetic.

Scalars are :class:`fractions.Fraction` (arbitrary precision, always kept in
lowest terms with a positive denominator, which is exactly the normalization
the rest of the package relies on).

A polynomial is stored as integer numerators over one common positive
denominator, the layout of FLINT's ``fmpq_poly``: numerators ``(n0, n1, n2)``
over ``d`` represent ``(n0 + n1*t + n2*t**2) / d``.  Trailing zero numerators
are trimmed and the content ``gcd(d, n0, n1, ...)`` is divided out, so every
polynomial has exactly one representation (the zero polynomial has no
numerators and ``d = 1``).  The operators ``+``, ``*`` (by a polynomial or a
scalar), ``shift`` and evaluation run on Python ints with one gcd per
result: every sum goes through ``_linear_combination`` and every product
through ``_convolve``.  ``is_zero`` is the one zero test, and ``coeffs``
builds the ascending lowest-terms Fractions anew on each read.

A power series is a finite list of polynomial coefficients in a second,
fully symbolic variable: ``coeffs[r]`` is a :class:`Polynomial` in ``x``
multiplying ``z**r``, truncated at an explicit order.  Mixing truncation
orders is an error, never a silent truncation.  Only ``+`` and ``*`` of
polynomials are needed (``a - b`` is ``a + b * -1``).  :mod:`downsum.family`
builds the weights from a closed form instead; power series remain the
independent route that expands the generating function term by term.

Everything here is an immutable value; operations are pure.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

Scalar = int | Fraction

_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)$", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (or a decimal such as ``"2.5e3"``) into a Fraction.

    Tolerates surrounding whitespace and a unicode minus sign.  A decimal
    exponent past the interpreter's int->str digit limit is rejected, as the
    written-out number would be, before Fraction builds its power of ten.
    """
    cleaned = text.strip().replace("−", "-")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        exponent = _EXPONENT.search(cleaned)
        if limit and exponent and abs(int(exponent[1])) > limit:
            raise ValueError("decimal exponent past the int digit limit")
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    return _ratio(value.numerator, value.denominator)


def _ratio(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms as ``"p/q"``, or ``"p"`` when it is an integer."""
    g = gcd(num, den)
    if g == den:
        return _decimal(num // den)
    return f"{_decimal(num // g)}/{_decimal(den // g)}"


def _decimal(value: int, width: int = 0) -> str:
    """str(value), zero-padded to width, for an int of any size.

    Where str() refuses value for the interpreter's int->str digit limit,
    value >= 0 splits by 10**h, h a power of two below its digit count, into
    a high part and a low part of exactly h digits, so an exact result is
    printed whatever the limit.
    """
    try:
        return str(value).zfill(width)
    except ValueError:  # past the int->str digit limit
        pass
    if value < 0:
        return "-" + _decimal(-value)
    h = 1 << ((value.bit_length() * 3 // 10).bit_length() - 1)
    high, low = divmod(value, 10**h)
    return _decimal(high, width - h) + _decimal(low, h)


def _canonical(num: list[int], den: int, lowest: bool = False) -> tuple[tuple[int, ...], int]:
    """Trim trailing zeros of num/den and divide out the content (den > 0) unless lowest."""
    while num and not num[-1]:
        num.pop()
    g = 1 if lowest else gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return tuple(num), den


def _linear_combination(terms: Iterable[tuple[int, int, Sequence[int]]]) -> "Polynomial":
    """sum (m/d) * (n_0 + n_1 t + ...) over (m, d, n) terms, d > 0.

    Each term is an integer coefficient pair m/d and a list of integer
    numerators; a Polynomial p enters as (m, d * p._den, p._num).  The
    numerators accumulate over the one lcm of the d, with one gcd at the end.
    """
    terms = [(m, d, n) for m, d, n in terms if m and n]
    den = lcm(*(d for _, d, _ in terms))
    out: list[int] = []
    for m, d, num in terms:
        factor = m * (den // d)
        out.extend([0] * (len(num) - len(out)))
        out[:len(num)] = [o + factor * n for o, n in zip(out, num)]
    return Polynomial._from_ints(out, den)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The integer row of the product (a_0 + a_1 t + ...) * (b_0 + b_1 t + ...), untrimmed."""
    width = len(b)
    out = [0] * max(len(a) + width - 1, 0)
    for i, x in enumerate(a):
        if x:
            out[i:i + width] = [o + x * y for o, y in zip(out[i:i + width], b)]
    return out


def _horner(num: Sequence[int], p: int, q: int) -> tuple[int, int]:
    """(h, q^deg) with h = sum n_i p^i q^(deg-i): num evaluated at p/q is h / q^deg."""
    if not num:
        return 0, 1
    value, q_power = num[-1], 1
    for c in num[-2::-1]:
        q_power *= q
        value = value * p + c * q_power
    return value, q_power


def _taylor_shift(coeffs: Sequence[int], a: int) -> list[int]:
    """Coefficients of c(s + a) for integer coefficients c and integer a."""
    c = list(coeffs)
    top = len(c) - 1
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


class Polynomial:
    """Dense univariate polynomial over exact rationals.

    >>> p = Polynomial([0, -1, 0, 1])   # t**3 - t
    >>> p(Fraction(2))
    Fraction(6, 1)
    >>> p.degree
    3
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        values = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in values))
        self._num, self._den = _canonical(
            [c.numerator * (den // c.denominator) for c in values], den
        )

    @classmethod
    def _from_ints(cls, num: list[int], den: int, lowest: bool = False) -> "Polynomial":
        """The polynomial with integer numerators num over den > 0 (see _canonical)."""
        p = object.__new__(cls)
        p._num, p._den = _canonical(num, den, lowest)
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Polynomial":
        """Parse comma-separated ascending rational coefficients."""
        parts = text.split(",")
        return cls(parse_rational(part) for part in parts)

    # -- inspection ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Ascending coefficients as lowest-terms Fractions, built on each read."""
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, degree: int) -> Fraction:
        """Coefficient of t**degree (zero beyond the stored length)."""
        if 0 <= degree < len(self._num):
            return Fraction(self._num[degree], self._den)
        return Fraction(0)

    def text(self) -> str:
        """Comma-separated ascending coefficients; the CLI wire format."""
        if not self._num:
            return "0"
        return ",".join(_ratio(c, self._den) for c in self._num)

    def __repr__(self) -> str:
        return f"Polynomial('{self.pretty()}')"

    def pretty(self, var: str = "t") -> str:
        """Human-oriented rendering, highest degree first."""
        if not self._num:
            return "0"
        parts = []
        for i in range(len(self._num) - 1, -1, -1):
            c = self._num[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = _ratio(mag, self._den)
            else:
                symbol = var if i == 1 else f"{var}^{i}"
                body = symbol if mag == self._den else f"{_ratio(mag, self._den)}*{symbol}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)

    # -- value semantics ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _linear_combination([(1, self._den, self._num), (1, other._den, other._num)])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial._from_ints(_convolve(self._num, other._num), self._den * other._den)
        if isinstance(other, (int, Fraction)):
            factor = other.numerator
            return Polynomial._from_ints(
                [c * factor for c in self._num], self._den * other.denominator
            )
        return NotImplemented

    __rmul__ = __mul__

    # -- evaluation and substitution -----------------------------------

    def __call__(self, at: Scalar) -> Fraction:
        """Exact Horner evaluation at p/q on integers, sum n_i p^i q^(deg-i)."""
        at = Fraction(at)
        value, q_power = _horner(self._num, at.numerator, at.denominator)
        return Fraction(value, self._den * q_power)

    def shift(self, step: Scalar) -> "Polynomial":
        """The polynomial q(t) = p(t + step), expanded exactly.

        With step = a/b, P(s) = b^deg * p(s/b) has integer coefficients
        n_i * b^(deg-i); an integer Taylor shift gives R(s) = P(s + a), and
        q(t) = R(b*t) / (d * b^deg).
        """
        step = Fraction(step)
        if not self._num or not step:
            return self
        a, b = step.numerator, step.denominator
        top = len(self._num) - 1
        c = _taylor_shift([n * b ** (top - i) for i, n in enumerate(self._num)], a)
        return Polynomial._from_ints([x * b**j for j, x in enumerate(c)], self._den * b**top)


class PowerSeries:
    """Truncated formal power series whose coefficients are Polynomials.

    ``coeffs[r]`` is the polynomial (in x) multiplying z**r; the truncation
    order is ``len(coeffs) - 1`` and arithmetic never reads beyond it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Polynomial]):
        if not coeffs:
            raise ValueError("a power series needs at least the z^0 coefficient")
        self.coeffs: tuple[Polynomial, ...] = tuple(coeffs)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([Polynomial((1,))] + [Polynomial()] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PowerSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def _check_order(self, other: "PowerSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"series orders differ: {self.order} vs {other.order}")

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_order(other)
        return PowerSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_order(other)
        return PowerSeries([a + b * -1 for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        """Cauchy product truncated to the common order."""
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_order(other)
        out = []
        for n in range(self.order + 1):
            acc = Polynomial()
            for k in range(n + 1):
                acc = acc + self.coeffs[k] * other.coeffs[n - k]
            out.append(acc)
        return PowerSeries(out)

    def reciprocal(self) -> "PowerSeries":
        """Series b with self * b == 1 up to the truncation order.

        Requires the constant coefficient to be the constant polynomial 1.
        """
        if self.coeffs[0] != Polynomial((1,)):
            raise ValueError(f"constant coefficient is {self.coeffs[0]!r}, expected 1")
        out = [Polynomial((1,))]
        for n in range(1, self.order + 1):
            acc = Polynomial()
            for k in range(1, n + 1):
                acc = acc + self.coeffs[k] * out[n - k]
            out.append(acc * -1)
        return PowerSeries(out)

    def exp(self) -> "PowerSeries":
        """Exponential via the differential recurrence b' = a'b.

        Requires a zero constant coefficient.
        """
        if not self.coeffs[0].is_zero:
            raise ValueError(f"constant coefficient is {self.coeffs[0]!r}, expected 0")
        out = [Polynomial((1,))]
        for n in range(self.order):
            acc = Polynomial()
            for k in range(n + 1):
                acc = acc + (k + 1) * self.coeffs[k + 1] * out[n - k]
            out.append(acc * Fraction(1, n + 1))
        return PowerSeries(out)
