"""downsum: exact correction weights for downsampled summation.

The package computes the polynomial family w_r(x) generated by
z/((1+xz)^(1/x)-1), whose specializations recover Bernoulli numbers,
Gregory quadrature coefficients, and the Euler transform, verifies the
associated summation identities exactly over the rationals, and applies
the weights to floating-point time series (downsampling-error correction,
series acceleration, quadrature).
"""

from .errors import DownsumError, ParseError
from .exact import Polynomial, PowerSeries, format_rational, parse_rational
from .family import (
    CoefficientTable,
    CorrectionFamily,
    classical_numbers,
    coefficient_table,
    correction_family,
    falling_factorial,
    reversed_falling_factorial,
    unit_weight_recurrence_residual,
    weight_recurrence_residual,
)
from .sumcalc import (
    alternating_residual,
    downsampled_sum,
    euler_maclaurin_residual,
    forward_difference,
    gregory_residual,
    indefinite_sum,
    random_polynomial,
    scaled_difference_residual,
    step_identity_residuals,
    unit_difference_residual,
)
from .timeseries import (
    TimeSeries,
    corrected_sum,
    error_report,
    euler_mascheroni,
    euler_transform,
    gaussian_bump,
    gregory_integral,
    load_series,
    load_terms,
    windowed_sum,
)

__version__ = "0.1.0"

__all__ = [
    "DownsumError",
    "ParseError",
    "Polynomial",
    "PowerSeries",
    "format_rational",
    "parse_rational",
    "CoefficientTable",
    "CorrectionFamily",
    "classical_numbers",
    "coefficient_table",
    "correction_family",
    "falling_factorial",
    "reversed_falling_factorial",
    "unit_weight_recurrence_residual",
    "weight_recurrence_residual",
    "alternating_residual",
    "downsampled_sum",
    "euler_maclaurin_residual",
    "forward_difference",
    "gregory_residual",
    "indefinite_sum",
    "random_polynomial",
    "scaled_difference_residual",
    "step_identity_residuals",
    "unit_difference_residual",
    "TimeSeries",
    "corrected_sum",
    "error_report",
    "euler_mascheroni",
    "euler_transform",
    "gaussian_bump",
    "gregory_integral",
    "load_series",
    "load_terms",
    "windowed_sum",
    "__version__",
]
