"""Acceptance gate: one test per criterion, one verdict line each.

Every oracle used here is computed in the tests, without the package
(classical Bernoulli recurrence and direct expansion of z/log(1+z) from
tests/oracle.py, closed-form formulas, literal sums), so a pass never relies
on the code under test agreeing with itself.
Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines on passing runs too).
"""

import random
import time
from fractions import Fraction as Fr
from math import factorial, log

import pytest

from downsum import (
    Polynomial,
    alternating_residual,
    classical_numbers,
    correction_family,
    error_report,
    euler_maclaurin_residual,
    euler_mascheroni,
    euler_transform,
    gaussian_bump,
    gregory_residual,
    random_polynomial,
    scaled_difference_residual,
    unit_difference_residual,
    unit_weight_recurrence_residual,
    weight_recurrence_residual,
)

from . import oracle

P = Polynomial


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_first_weights_reproduced():
    """Weights 0..6 and their reversals match the longhand polynomials."""
    expected_weights = [
        P([1]),
        P([Fr(-1, 2), Fr(1, 2)]),
        P([Fr(1, 6), 0, Fr(-1, 6)]),
        P([0, Fr(-1, 4), 0, Fr(1, 4)]),
        P([Fr(-1, 30), 0, Fr(2, 3), 0, Fr(-19, 30)]),
        P([0, Fr(1, 4), 0, Fr(-5, 2), 0, Fr(9, 4)]),
    ]
    expected_unit_weights = [
        P([1]),
        P([Fr(1, 2), Fr(-1, 2)]),
        P([Fr(-1, 6), 0, Fr(1, 6)]),
        P([Fr(1, 4), 0, Fr(-1, 4)]),
        P([Fr(-19, 30), 0, Fr(2, 3), 0, Fr(-1, 30)]),
        P([Fr(9, 4), 0, Fr(-5, 2), 0, Fr(1, 4)]),
    ]
    # The sixth weight, sign anchored by three independent facts:
    # constant term = B_6 (Bernoulli recurrence), value at 2 = the
    # central-binomial closed form, leading coefficient = 6! * G_6.
    expected_sixth = P([Fr(1, 42), 0, Fr(-7, 4), 0, 12, 0, Fr(-863, 84)])
    assert expected_sixth.coefficient(0) == oracle.bernoulli(6)[6]
    assert expected_sixth(Fr(2)) == Fr(factorial(12), (1 - 12) * factorial(6) * 2 ** 7)
    assert expected_sixth.coefficient(6) == factorial(6) * oracle.gregory(6)[6]

    start = time.perf_counter()
    family = correction_family(6)
    elapsed = time.perf_counter() - start

    ok = (
        list(family.weights[:6]) == expected_weights
        and list(family.unit_weights[:6]) == expected_unit_weights
        and family.weights[6] == expected_sixth
        and family.unit_weights[6]
        == P(list(reversed(expected_sixth.coeffs)))
        and elapsed < 0.1
    )
    verdict(1, ok, f"weights 0..6 exact, generated in {elapsed * 1e3:.1f} ms (< 100 ms)")


def test_criterion_2_classical_constants(family20, constants20):
    """B_r (r<=20) and G_r (r<=10) match independent oracles, exactly."""
    bernoulli = oracle.bernoulli(20)
    gregory = oracle.gregory(10)
    ok = (
        all(constants20.bernoulli[r] == bernoulli[r] for r in range(21))
        and all(constants20.gregory[r] == gregory[r] for r in range(11))
        and constants20.gregory[2] == Fr(-1, 12)
        and constants20.bernoulli[1] == Fr(-1, 2)
    )
    verdict(2, ok, "B_0..B_20 and G_0..G_10 match recurrence/expansion oracles")


def test_criterion_3_closed_forms(family20):
    """Values at 1/2 and 2 follow closed forms; 1 and -1 are roots."""
    ok = True
    for r in range(1, 21):
        at_half = Fr((-1) ** r * factorial(r), 4 ** r)
        at_two = Fr((-1) ** r * factorial(2 * r), (1 - 2 * r) * factorial(r) * 2 ** (r + 1))
        weight = family20.weights[r]
        ok = ok and weight(Fr(1, 2)) == at_half
        ok = ok and weight(Fr(2)) == at_two
        ok = ok and weight(Fr(1)) == 0
        if r >= 2:
            ok = ok and weight(Fr(-1)) == 0
    verdict(3, ok, "closed forms at 1/2 and 2, and roots at 1 and -1, for r <= 20")


def test_criterion_4_structure(family20):
    """Evenness, both recurrences, and the leading-coefficient law, timed."""
    gregory = oracle.gregory(20)
    start = time.perf_counter()
    ok = True
    for r in range(2, 21):
        u = family20.unit_weights[r]
        ok = ok and all(u.coefficient(m) == 0 for m in range(1, r + 1, 2))
        ok = ok and unit_weight_recurrence_residual(family20, r).is_zero
        ok = ok and weight_recurrence_residual(family20, r).is_zero
    for r in range(21):
        ok = ok and family20.weights[r].coefficient(r) == factorial(r) * gregory[r]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    verdict(4, ok, f"parity/recurrences/leading law r <= 20 in {elapsed:.2f} s (< 1 s)")


def test_criterion_5_master_identity():
    """Both identity forms hold for 100 seeded polynomials on the x grid."""
    grid = [Fr(-2), Fr(-1), Fr(-1, 2), Fr(1, 3), Fr(1, 2), Fr(1), Fr(2), Fr(3)]
    family = correction_family(9)
    rng = random.Random(20260814)
    start = time.perf_counter()
    failures = 0
    for _ in range(100):
        f = random_polynomial(rng, 8)
        for x in grid:
            if not scaled_difference_residual(f, x, family).is_zero:
                failures += 1
            if not unit_difference_residual(f, x, family).is_zero:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    verdict(
        5,
        ok,
        f"100 polynomials x 8 steps x 2 forms, {failures} failures, "
        f"{elapsed:.1f} s (< 10 s)",
    )


def test_criterion_6_classical_reductions():
    """Derivative, quadrature, and alternating forms hold for 50 polynomials."""
    rng = random.Random(62607015)
    start = time.perf_counter()
    failures = 0
    for _ in range(50):
        f = random_polynomial(rng, 8)
        for residual in (
            euler_maclaurin_residual(f),
            gregory_residual(f),
            alternating_residual(f),
        ):
            if not residual.is_zero:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    verdict(6, ok, f"50 polynomials x 3 reductions, {failures} failures, {elapsed:.1f} s (< 5 s)")


def test_criterion_7_acceleration():
    """Euler transform reaches ln 2; the Gregory series reaches gamma."""
    terms = [1.0 / (k + 1) for k in range(21)]
    ln2_error = abs(euler_transform(terms, 20) - log(2.0))
    gamma_error = abs(euler_mascheroni(200) - 0.5772156649)
    ok = ln2_error < 1e-6 and gamma_error < 2e-3
    verdict(
        7,
        ok,
        f"ln2 off by {ln2_error:.2e} (< 1e-6), gamma off by {gamma_error:.2e} (< 2e-3)",
    )


def test_criterion_8_downsampling_experiment():
    """Order-4 correction beats order-1 by 10x on the documented bump signal."""
    start = time.perf_counter()
    bump = gaussian_bump()
    err = {(x, order): value for x, order, value in error_report(bump, 0, 60, [2, 3, 4, 5], 4)}
    ratios = {x: err[x, 4] / err[x, 1] for x in (2, 3, 4, 5)}
    elapsed = time.perf_counter() - start
    ok = all(ratio <= 0.1 for ratio in ratios.values()) and elapsed < 1.0
    worst = max(ratios.values())
    verdict(
        8,
        ok,
        f"err(4)/err(1) worst {worst:.2e} (<= 0.1) across x=2..5, {elapsed:.2f} s (< 1 s)",
    )


def test_criterion_9_root_location_conjecture(family20, certified_roots):
    """Exploratory, non-gating: all roots of w_r lie in (-1-eps, 1+eps).

    w_r is evaluated exactly at 65 equally spaced points of [-1-eps, 1+eps];
    zeros and sign changes between neighbours count distinct roots, and
    reaching deg w_r = r proves that all of them are real and inside.
    """
    eps = Fr(1, 1024)
    counts = {
        r: certified_roots(family20.weights[r], -1 - eps, 1 + eps, 64)
        for r in range(2, 11)
    }
    mismatches = {r: count for r, count in counts.items() if count != r}
    ok = not mismatches
    print(
        f"[criterion 9] {'PASS' if ok else 'XFAIL'}: root counts in "
        f"(-1-1/1024, 1+1/1024) equal the degree for r = 2..10"
    )
    if not ok:
        pytest.xfail(f"root-location conjecture unmet at orders {mismatches}")
