"""Floating-point applications: downsampling correction, acceleration, quadrature.

Everything symbolic stays exact in :mod:`downsum.family`; this module is the
boundary where weights are converted to floats (exactly once per use) and
applied to sampled data.  Summation order is fixed left-to-right so results
are bit-for-bit reproducible.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Iterator, Sequence

from .errors import (
    EmptySeries,
    InsufficientOrder,
    NonDivisibleWindow,
    OutOfRange,
    ParseError,
)
from .family import CoefficientTable, CorrectionFamily


@dataclass(frozen=True)
class TimeSeries:
    """Real-valued samples at unit spacing: values[i] is the reading at time i."""

    values: tuple[float, ...]
    name: str = "series"

    def __post_init__(self) -> None:
        if not self.values:
            raise EmptySeries(f"time series {self.name!r} has no samples")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> float:
        return self.values[index]


def load_series(path: str, column: int, has_header: bool = False) -> TimeSeries:
    """Read one column of a CSV file as a float time series.

    Rows and columns are 0-based; row numbers in errors count physical file
    rows, header included.  A negative column, short rows and unparseable or
    non-finite fields raise ParseError with the offending location, and so
    does a row the CSV reader rejects (a field over the reader's field size
    limit, say); an empty result raises EmptySeries.  I/O problems propagate
    as OSError.
    """
    if column < 0:
        raise ParseError("column index must be >= 0", row=0, column=column)
    values: list[float] = []
    with open(path, newline="") as handle:
        for row_index, row in enumerate(_csv_rows(handle, column)):
            if has_header and row_index == 0:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if column >= len(row):
                raise ParseError(
                    f"row has only {len(row)} fields", row=row_index, column=column
                )
            values.append(_parse_sample(row[column].strip(), row_index, column))
    if not values:
        raise EmptySeries(f"no data rows in {path}")
    name = os.path.splitext(os.path.basename(path))[0]
    return TimeSeries(tuple(values), name)


def _csv_rows(handle, column: int) -> Iterator[list[str]]:
    """The rows of csv.reader(handle); a row the reader rejects is a ParseError."""
    reader = csv.reader(handle)
    try:
        yield from reader
    except csv.Error as exc:
        # line_num counts the physical lines read, the rejected one included.
        raise ParseError(f"unreadable CSV row: {exc}", row=reader.line_num - 1, column=column) from None


def load_terms(path: str) -> list[float]:
    """Read series terms separated by whitespace or commas.

    A field that is not a finite number raises ParseError with its 0-based
    line and field; I/O problems propagate as OSError.
    """
    terms: list[float] = []
    with open(path) as handle:
        for row_index, line in enumerate(handle):
            for column, text in enumerate(line.replace(",", " ").split()):
                terms.append(_parse_sample(text, row_index, column))
    return terms


def _parse_sample(text: str, row: int, column: int) -> float:
    """A finite float, or ParseError naming the location of text."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"not a number: {text!r}", row=row, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"not a finite number: {text!r}", row=row, column=column)
    return value


def forward_difference(s: TimeSeries, t: int, step: int, order: int) -> float:
    """order-fold forward difference of the samples at time t with the given step.

    Computed directly from the binomial expansion
    sum_j (-1)^(order-j) C(order,j) s[t + j*step]; requires every index up
    to t + order*step to exist.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    if order < 0:
        raise ValueError("difference order must be >= 0")
    last = t + order * step
    if t < 0 or last > len(s) - 1:
        raise OutOfRange(
            f"difference of order {order} at t={t} (step {step}) needs sample "
            f"{last}, series has {len(s)}"
        )
    total = 0.0
    for j in range(order + 1):
        term = comb(order, j) * s[t + j * step]
        total += term if (order - j) % 2 == 0 else -term
    return total


def _finite(value: float, what: str) -> float:
    """value, or OverflowError when it left the float range (inf or nan)."""
    if not math.isfinite(value):
        raise OverflowError(f"{what} is not finite: {value}")
    return value


def windowed_sum(s: TimeSeries, t0: int, n: int, x: int) -> float:
    """x * sum_{k=0}^{n/x-1} s[t0 + k*x] — the coarse surrogate for the window sum.

    A sum that leaves the float range raises OverflowError.
    """
    if x < 1:
        raise ValueError("downsampling factor must be a positive integer")
    if n % x != 0:
        raise NonDivisibleWindow(f"window {n} is not divisible by factor {x}")
    if t0 < 0 or t0 + n > len(s):
        raise OutOfRange(f"window [{t0}, {t0 + n}) exceeds series of length {len(s)}")
    total = 0.0
    for k in range(n // x):
        total += s[t0 + k * x]
    return _finite(x * total, f"window sum at t0={t0}, n={n}, x={x}")


def corrected_sum(
    s: TimeSeries, t0: int, n: int, x: int, order: int, family: CorrectionFamily
) -> float:
    """Windowed sum plus the first `order` boundary correction terms.

    Each term is w_r(x)/r! * (D_x^{r-1} s at t0+n minus at t0) / x^{r-1};
    the exact rational weight is converted to float once per term.  Trailing
    differences need samples beyond the window (up to t0+n+(order-1)*x) and
    their absence is an error, never an extrapolation.  A corrected sum that
    leaves the float range raises OverflowError.
    """
    base = windowed_sum(s, t0, n, x)
    if order == 0:
        return base
    if order < 0:
        raise ValueError("correction order must be >= 0")
    _check_correction(s, t0, n, x, order, family)
    total = base
    for r in range(1, order + 1):
        total += _correction_term(s, t0, n, x, r, family)
    return _finite(total, f"order-{order} corrected sum at t0={t0}, n={n}, x={x}")


def _check_correction(
    s: TimeSeries, t0: int, n: int, x: int, order: int, family: CorrectionFamily
) -> None:
    """The family and the samples past the window must reach the given order."""
    if family.max_order < order:
        raise InsufficientOrder(
            f"family has max_order {family.max_order}, correction needs {order}"
        )
    last_needed = t0 + n + (order - 1) * x
    if last_needed > len(s) - 1:
        raise OutOfRange(
            f"order-{order} correction at window end {t0 + n} needs sample "
            f"{last_needed}, series has {len(s)}"
        )


def _correction_term(
    s: TimeSeries, t0: int, n: int, x: int, r: int, family: CorrectionFamily
) -> float:
    """w_r(x)/r! * (D_x^{r-1} s at t0+n minus at t0) / x^{r-1}, as a float."""
    weight = float(family.weights[r](Fraction(x)) / factorial(r) / Fraction(x) ** (r - 1))
    span = forward_difference(s, t0 + n, x, r - 1) - forward_difference(s, t0, x, r - 1)
    return weight * span


@dataclass(frozen=True)
class ErrorReport:
    """err(R) = |true window sum - corrected downsampled sum| per (x, R)."""

    window: int
    rows: tuple[tuple[int, int, float], ...]  # (x, R, err), sorted by (x, R)
    baseline: dict[int, float] = field(compare=False)  # err at R = 0 per x

    def err(self, x: int, order: int) -> float:
        for row_x, row_order, value in self.rows:
            if row_x == x and row_order == order:
                return value
        raise KeyError(f"no row for x={x}, R={order}")


def error_report(
    s: TimeSeries,
    t0: int,
    n: int,
    xs: Sequence[int],
    max_correction: int,
    family: CorrectionFamily,
) -> ErrorReport:
    """Tabulate correction errors for each factor x and order 0..max_correction.

    Ground truth is the plain unit sum over the same window; rows come out
    sorted by (x, R) regardless of the order factors were given in.
    """
    truth = windowed_sum(s, t0, n, 1)
    rows = []
    baseline: dict[int, float] = {}
    for x in sorted(set(xs)):
        for order in range(max_correction + 1):
            # The order-R corrected sum is the order-(R-1) one plus one term,
            # added in the same float order as corrected_sum adds it.
            if order == 0:
                total = windowed_sum(s, t0, n, x)
            else:
                _check_correction(s, t0, n, x, order, family)
                total = _finite(
                    total + _correction_term(s, t0, n, x, order, family),
                    f"order-{order} corrected sum at t0={t0}, n={n}, x={x}",
                )
            err = _finite(abs(truth - total), f"error at x={x}, R={order}")
            rows.append((x, order, err))
            if order == 0:
                baseline[x] = err
    return ErrorReport(n, tuple(rows), baseline)


def euler_transform(terms: Sequence[float], order: int) -> float:
    """Accelerated value of sum_k (-1)^k terms[k] via forward differences.

    Returns sum_{r=0}^{order} (-1)^r D^r terms[0] / 2^(r+1), the classical
    rewriting that turns slowly alternating convergence into geometric
    convergence.  terms holds the unsigned magnitudes f(0), f(1), ...
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if len(terms) < order + 1:
        raise InsufficientOrder(
            f"order {order} needs {order + 1} terms, got {len(terms)}"
        )
    # row holds D^r terms / 2^r.  Scaling each row as it is differenced keeps
    # it in the float range: D^r of rounded terms grows like 2^r, and
    # 2.0 ** (r + 1) itself overflows past r = 1022.  Halving is exact.
    # row[0] at step r depends only on terms[0..r], so later terms are unused.
    row = [float(t) for t in terms[:order + 1]]
    total = 0.0
    for r in range(order + 1):
        contribution = row[0] * 0.5
        total += contribution if r % 2 == 0 else -contribution
        row = [(b - a) * 0.5 for a, b in zip(row, row[1:])]
    if not math.isfinite(total):
        raise OverflowError(f"Euler transform of order {order} left the float range")
    return total


def euler_mascheroni(n_terms: int, table: CoefficientTable) -> float:
    """Partial sum of sum_{r>=1} (-1)^(r+1) G_r / r, which converges to 0.5772...

    The Gregory coefficients shrink like 1/(r log r), so the tail dies
    slowly; a couple hundred terms give three correct digits.
    """
    if table.max_order < n_terms:
        raise InsufficientOrder(
            f"table covers r <= {table.max_order}, requested {n_terms} terms"
        )
    total = 0.0
    for r in range(1, n_terms + 1):
        term = float(table.gregory[r]) / r
        total += term if r % 2 == 1 else -term
    return total


def gregory_integral(s: TimeSeries, n: int, order: int, table: CoefficientTable) -> float:
    """Quadrature over [0, n]: unit sum plus Gregory boundary corrections.

    integral ~= sum_{k<n} s[k] + sum_{r=1}^{order} G_r (D^{r-1} s(n) - D^{r-1} s(0)).
    """
    if n < 0:
        raise ValueError("upper limit must be >= 0")
    if order < 0:
        raise ValueError("order must be >= 0")
    if table.max_order < order:
        raise InsufficientOrder(
            f"table covers r <= {table.max_order}, correction needs {order}"
        )
    if order >= 1 and n + order - 1 > len(s) - 1:
        raise OutOfRange(
            f"order-{order} quadrature at n={n} needs sample {n + order - 1}, "
            f"series has {len(s)}"
        )
    if n > len(s):
        raise OutOfRange(f"upper limit {n} exceeds series of length {len(s)}")
    total = 0.0
    for k in range(n):
        total += s[k]
    for r in range(1, order + 1):
        span = forward_difference(s, n, 1, r - 1) - forward_difference(s, 0, 1, r - 1)
        total += float(table.gregory[r]) * span
    return total


def gaussian_bump(length: int = 121, center: float = 25.0, width: float = 25.0) -> TimeSeries:
    """The documented synthetic test signal: exp(-((t-center)/width)^2).

    The defaults are the acceptance configuration: smooth, bounded, with
    slowly decaying higher-order differences across a window of 60 samples
    starting at t = 0, so every correction order up to 4 has something
    left to correct at factors 2..5.
    """
    values = tuple(
        math.exp(-(((t - center) / width) ** 2)) for t in range(length)
    )
    return TimeSeries(values, "gaussian-bump")
