from fractions import Fraction

import pytest

from downsum import CorrectionFamily, Polynomial, classical_numbers, correction_family

from . import oracle


@pytest.fixture(scope="session")
def family20():
    """One order-20 weight family shared by the structural tests."""
    return correction_family(20)


@pytest.fixture(scope="session")
def constants20(family20):
    return classical_numbers(family20)


def _certified_roots(p, lo, hi, steps):
    """A lower bound on the number of distinct real roots of p in [lo, hi].

    p is evaluated exactly at the steps+1 equally spaced points from lo to
    hi.  Each zero value is a root, and each strict sign change between
    neighbouring points brackets another in the open gap between them, so
    no root is counted twice.  A count equal to deg p proves that every
    root of p is real and lies in [lo, hi].
    """
    values = [p(lo + (hi - lo) * Fraction(i, steps)) for i in range(steps + 1)]
    zeros = sum(value == 0 for value in values)
    return zeros + sum(a * b < 0 for a, b in zip(values, values[1:]))


@pytest.fixture(scope="session")
def certified_roots():
    """The sign-change root certificate, shared by criterion 9 and its tests."""
    return _certified_roots


def _perturbed_family(family, bumps):
    """The family with delta * x^m added to weights[r] and unit_weights[r], bumps = {r: (m, delta)}."""
    weights, unit_weights = list(family.weights), list(family.unit_weights)
    for r, (m, delta) in bumps.items():
        bump = [0] * m + [delta]
        for polys in (weights, unit_weights):
            polys[r] = Polynomial(oracle.combination([(1, polys[r].coeffs), (1, bump)]))
    return CorrectionFamily(tuple(weights), tuple(unit_weights))


@pytest.fixture(scope="session")
def perturbed_family():
    """A family with some weights off by delta * x^m, shared by the failure tests."""
    return _perturbed_family
