"""Exception taxonomy shared by all downsum modules.

Every error raised for a violated precondition derives from
:class:`DownsumError`, so callers (notably the CLI) can distinguish
"bad input" from genuine bugs with a single except clause.
"""


class DownsumError(Exception):
    """Base class for all precondition and input errors."""


class ZeroStep(DownsumError):
    """A step/downsampling factor of zero was supplied where it is undefined."""


class InsufficientOrder(DownsumError):
    """A correction family, coefficient table or term list is too short for the requested order."""


class OutOfRange(DownsumError):
    """A sample index (or a trailing difference) falls outside the series."""


class NonDivisibleWindow(DownsumError):
    """The window length is not a multiple of the downsampling factor."""


class ParseError(DownsumError):
    """A CSV field could not be parsed; carries the offending location."""

    def __init__(self, message: str, row: int, column: int):
        super().__init__(f"{message} (row {row}, column {column})")
        self.row = row
        self.column = column


class EmptySeries(DownsumError):
    """A time series with no samples was supplied or loaded."""
