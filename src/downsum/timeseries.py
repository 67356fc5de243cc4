"""Floating-point applications: downsampling correction, acceleration, quadrature.

Everything symbolic stays exact in :mod:`downsum.family`; this module reads
each weight it needs, no further than its samples reach, as one correctly
rounded division of two integers from the family's integer rows, and
applies them as floats.  The corrected window sums and the Gregory rule are
one step-h corrected sum, a coarse sum plus weighted boundary differences,
with weights w_r(x)/(r!*x^(r-1)) at step x and G_r at step 1.  Summation
order is fixed left-to-right so results are bit-for-bit reproducible.  A
series is any sequence of floats, s[i] the sample at time i; load_series and
gaussian_bump return tuples.  Indices are checked against len(s), so an empty
series sums to 0.0 over an empty window and raises DownsumError for a sample.
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from math import comb

from .errors import DownsumError, ParseError
from .family import _gregory_numerators, _values_at


def load_series(path: str, column: int, has_header: bool = False) -> tuple[float, ...]:
    """Read one column of a CSV file as a tuple of floats.

    Rows and columns are 0-based; row numbers in errors count physical file
    rows, header included.  A negative column, short rows and unparseable or
    non-finite fields raise ParseError with the offending location, and so
    does a row the CSV reader rejects (a field over the reader's field size
    limit, say); a file with no data rows raises DownsumError.  I/O problems
    propagate as OSError.

    Two paths read the file and give the same values, or the same error.  A
    plain ASCII file with no quote, CR or NUL, whose lines all fit the CSV
    field size limit, whose data rows all hold the same number of fields and
    whose fields all parse, is split in bulk, one split per block; any other
    file goes through the checked csv.reader loop, the only source of error
    locations.
    """
    if column < 0:
        raise ParseError("column index must be >= 0", row=0, column=column)
    values = _bulk_column(path, column, has_header)
    if values is None:
        values = _checked_column(path, column, has_header)
    if not values:
        raise DownsumError(f"no data rows in {path}")
    return tuple(values)


# Bytes per read of the bulk path, the partial last line carried over.  The
# block bounds the transient field list: on a 5000-row, three-column file
# the loader's tracemalloc peak is 216 / 274 / 372 / 603 KiB at 8 / 16 / 32 /
# 64 KiB blocks, against 190 KiB for the csv.reader loop.  32 KiB loads the
# benchmark's signal files fastest.
_BLOCK = 32768

# Every byte but the field and line separators: deleting these leaves each
# line of k fields as b"," * (k - 1) + b"\n".
_NOT_SEPARATOR = bytes(byte for byte in range(256) if byte not in b",\n")


def _bulk_column(path: str, column: int, has_header: bool) -> list[float] | None:
    """The column's finite samples by bytes.split, or None for the checked loop.

    Without quotes, CR or NUL a csv.reader row of an ASCII file is its line
    split on commas.  Once every line of a block is shown to hold the first
    data row's k fields, the block split on commas and newlines lists the
    fields row by row, and every k-th is the column's.  None means the file
    holds something only the checked loop handles or reports: a non-ASCII
    byte or one of those characters, a line past the reader's field size
    limit, a blank line, a row of another length, or a missing, unparseable
    or non-finite field.  float(bytes) rejects the \x1c-\x1f that float(str)
    strips, so such fields go to the checked loop too.  That loop reads the
    file again, so a pipe or FIFO goes to it unread.
    """
    if not os.path.isfile(path):
        return None
    limit = csv.field_size_limit()
    values: list[float] = []
    carry = b""
    skip_header = has_header
    shape = b""
    with open(path, "rb") as handle:
        while True:
            block = handle.read(_BLOCK)
            if not block.isascii() or b'"' in block or b"\r" in block or b"\0" in block:
                return None
            text = carry + block
            if len(text) > limit and max(map(len, text.split(b"\n"))) > limit:
                return None
            if block:
                end = text.rfind(b"\n") + 1
                lines, carry = text[:end], text[end:]
            else:
                lines = text + b"\n" if text else b""  # the last line may lack its newline
            if skip_header and lines:
                lines = lines[lines.index(b"\n") + 1:]
                skip_header = False
            if lines:
                if not shape:
                    fields = lines.count(b",", 0, lines.index(b"\n")) + 1
                    if column >= fields:
                        return None
                    shape = b"," * (fields - 1) + b"\n"
                if lines.translate(None, _NOT_SEPARATOR) != shape * lines.count(b"\n"):
                    return None
                try:
                    samples = list(map(
                        float, lines[:-1].replace(b"\n", b",").split(b",")[column::fields]
                    ))
                except ValueError:
                    return None
                if not all(map(math.isfinite, samples)):
                    return None
                values += samples
            if not block:
                return values


def _checked_column(path: str, column: int, has_header: bool) -> list[float]:
    """The column read row by row with csv.reader, errors at their physical row."""
    values: list[float] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            for record_index, row in enumerate(reader):
                if has_header and record_index == 0:
                    continue
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue  # blank line
                # line_num counts the physical lines read, this record's included.
                row_number = reader.line_num - 1
                if column >= len(row):
                    raise ParseError(
                        f"row has only {len(row)} fields", row=row_number, column=column
                    )
                values.append(_parse_sample(row[column].strip(), row_number, column))
        except csv.Error as exc:
            raise ParseError(
                f"unreadable CSV row: {exc}", row=reader.line_num - 1, column=column
            ) from None
    return values


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


def forward_difference(s: Sequence[float], t: int, step: int, order: int) -> float:
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
        raise DownsumError(
            f"difference of order {order} at t={t} (step {step}) needs sample "
            f"{last}, series has {len(s)}"
        )
    total = 0.0
    for j, sample in enumerate(s[t:last + 1:step]):
        term = comb(order, j) * sample
        total += term if (order - j) % 2 == 0 else -term
    return total


def _finite(value: float, what: str, *args: object) -> float:
    """value, or OverflowError naming what.format(*args) when it left the float range."""
    if not math.isfinite(value):
        raise OverflowError(f"{what.format(*args)} is not finite: {value}")
    return value


def windowed_sum(s: Sequence[float], t0: int, n: int, x: int) -> float:
    """x * sum_{k=0}^{n/x-1} s[t0 + k*x] — the coarse surrogate for the window sum.

    A sum that leaves the float range raises OverflowError.
    """
    if x < 1:
        raise ValueError("downsampling factor must be a positive integer")
    if n < 0:
        raise ValueError("window length must be >= 0")
    if n % x != 0:
        raise DownsumError(f"window {n} is not divisible by factor {x}")
    if t0 < 0 or t0 + n > len(s):
        raise DownsumError(f"window [{t0}, {t0 + n}) exceeds series of length {len(s)}")
    total = 0.0
    for sample in s[t0:t0 + n:x]:
        total += sample
    return _finite(x * total, "window sum at t0={}, n={}, x={}", t0, n, x)


def _corrected_sums(
    s: Sequence[float], t0: int, n: int, step: int, order: int,
    weights: Callable[[int], Iterable[float]],
) -> Iterator[float]:
    """windowed_sum(s, t0, n, step), then the total after each boundary term.

    Term r is the r-th weight times (D_step^{r-1} s at t0+n minus at t0); it
    reads sample t0+n+(r-1)*step and never extrapolates past the series.
    Once windowed_sum accepts the window, weights(k) gives the first k
    weights, k = min(order, the highest order the series reaches); an order
    past that raises DownsumError without reading a weight.
    """
    total = windowed_sum(s, t0, n, step)
    yield total
    reach = (len(s) - 1 - t0 - n) // step + 1
    for r, weight in enumerate(weights(min(order, reach)), 1):
        span = forward_difference(s, t0 + n, step, r - 1) - forward_difference(s, t0, step, r - 1)
        total = _finite(
            total + weight * span, "order-{} corrected sum at t0={}, n={}, x={}", r, t0, n, step
        )
        yield total
    if order > reach:
        raise DownsumError(
            f"order-{reach + 1} correction at window end {t0 + n} needs sample "
            f"{t0 + n + reach * step}, series has {len(s)}"
        )


def _step_weights(x: int, order: int) -> Iterator[float]:
    """float(w_r(x)/(r! * x^(r-1))) for r = 1..order, once the first is asked for.

    With w_r(x) = F_r / (L * D) from family._values_at, each is one correctly
    rounded int division F_r / (L * D * r! * x^(r-1)).
    """
    values, den = _values_at(order, x, 1)
    for r in range(1, order + 1):
        yield values[r] / den
        den *= (r + 1) * x


def corrected_sum(s: Sequence[float], t0: int, n: int, x: int, order: int) -> float:
    """Windowed sum plus the first `order` boundary correction terms.

    Each term is w_r(x)/r! * (D_x^{r-1} s at t0+n minus at t0) / x^{r-1},
    with the values w_r(x) read, once the window checks pass, no further
    than the series reaches.  A negative order raises ValueError
    before any sum.  A sample missing past the window (up to
    t0+n+(order-1)*x) raises DownsumError and a total past the float range
    OverflowError; both name the first order that fails.
    """
    if order < 0:
        raise ValueError("correction order must be >= 0")
    *_, total = _corrected_sums(s, t0, n, x, order, partial(_step_weights, x))
    return total


def error_report(
    s: Sequence[float], t0: int, n: int, xs: Sequence[int], max_correction: int
) -> tuple[tuple[int, int, float], ...]:
    """Rows (x, R, err) of err = |true window sum - corrected sum|, R = 0..max_correction.

    Ground truth is the plain unit sum over the same window; rows come out
    sorted by (x, R) regardless of the order factors were given in.  A
    negative max_correction raises ValueError before any window check.  Each
    factor reads its own weights at its x, as corrected_sum does.
    """
    if max_correction < 0:
        raise ValueError("max_order must be >= 0")
    truth = windowed_sum(s, t0, n, 1)
    rows = []
    for x in sorted(set(xs)):
        sums = _corrected_sums(s, t0, n, x, max_correction, partial(_step_weights, x))
        for order, total in enumerate(sums):
            rows.append((x, order, _finite(abs(truth - total), "error at x={}, R={}", x, order)))
    return tuple(rows)


def euler_transform(terms: Sequence[float], order: int) -> float:
    """Accelerated value of sum_k (-1)^k terms[k] via forward differences.

    Returns sum_{r=0}^{order} (-1)^r D^r terms[0] / 2^(r+1), the classical
    rewriting that turns slowly alternating convergence into geometric
    convergence.  terms holds the unsigned magnitudes f(0), f(1), ...
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if len(terms) < order + 1:
        raise DownsumError(
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


def _gregory_floats(order: int) -> Iterator[float]:
    """float(G_r) for r = 1..order, from the Gregory numerators alone.

    Only the g_r of the family's integer rows are built, and
    G_r = g_r / (r! * L) is one correctly rounded int division, the value
    float(G_r) has.  order must be >= 0.
    """
    scale, numerators = _gregory_numerators(order)
    r_factorial = 1
    for r, g in enumerate(numerators[1:], 1):
        r_factorial *= r
        yield g / (r_factorial * scale)


def euler_mascheroni(n_terms: int) -> float:
    """Partial sum of sum_{r>=1} (-1)^(r+1) G_r / r, which converges to 0.5772...

    The Gregory coefficients shrink like 1/(r log r), so the tail dies
    slowly; a couple hundred terms give three correct digits.  A negative
    count raises ValueError.
    """
    if n_terms < 0:
        raise ValueError("number of terms must be >= 0")
    total = 0.0
    for r, gregory in enumerate(_gregory_floats(n_terms), 1):
        term = gregory / r
        total += term if r % 2 == 1 else -term
    return total


def gregory_integral(s: Sequence[float], n: int, order: int) -> float:
    """Quadrature over [0, n]: unit sum plus Gregory boundary corrections.

    integral ~= sum_{k<n} s[k] + sum_{r=1}^{order} G_r (D^{r-1} s(n) - D^{r-1} s(0)).
    A negative order raises ValueError; the G_r are built no further than
    the series reaches past n.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    *_, total = _corrected_sums(s, 0, n, 1, order, _gregory_floats)
    return total


def gaussian_bump(length: int = 121, center: float = 25.0, width: float = 25.0) -> tuple[float, ...]:
    """The documented synthetic test signal: exp(-((t-center)/width)^2).

    The defaults are the acceptance configuration: smooth, bounded, with
    slowly decaying higher-order differences across a window of 60 samples
    starting at t = 0, so every correction order up to 4 has something
    left to correct at factors 2..5.
    """
    return tuple(math.exp(-(((t - center) / width) ** 2)) for t in range(length))
