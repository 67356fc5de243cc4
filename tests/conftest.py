from fractions import Fraction

import pytest

from downsum import Polynomial, classical_numbers, correction_family


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


def _derivative(p):
    """p' from the Fraction coefficients of p."""
    return Polynomial([i * c for i, c in enumerate(p.coeffs)][1:])


def _antiderivative(p):
    """The antiderivative of p with zero constant term, from its Fraction coefficients."""
    return Polynomial([0] + [c / (i + 1) for i, c in enumerate(p.coeffs)])


@pytest.fixture(scope="session")
def calculus():
    """(derivative, antiderivative) on Fraction coefficients, the calculus of
    the Euler-Maclaurin and Gregory oracles; independent of the integer layout."""
    return _derivative, _antiderivative
