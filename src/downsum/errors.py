"""The two error classes of downsum.

A single argument that is invalid on its own (a zero step, a factor below 1,
a negative order) raises ValueError, as the standard library does.  Arguments
that are valid one by one but do not fit the data or each other (a window
past the series, a window not divisible by its factor, a family or term list
too short for the order, a CSV with no data rows) raise :class:`DownsumError`.
An unparseable CSV field raises its subclass :class:`ParseError`, which
carries the location.  The CLI maps all of these, OSError and
ArithmeticError to exit code 2.
"""


class DownsumError(Exception):
    """Arguments valid one by one that do not fit the data or each other."""


class ParseError(DownsumError):
    """A CSV field could not be parsed; carries the offending location."""

    def __init__(self, message: str, row: int, column: int):
        super().__init__(f"{message} (row {row}, column {column})")
        self.row = row
        self.column = column
