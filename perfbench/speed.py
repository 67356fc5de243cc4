"""The host's current speed, from a fixed unit of stdlib-only work.

The shared 2-vCPU hosts this benchmark runs on switch, for seconds to tens
of seconds at a time, between two speeds about 2x apart, with no steal time
showing inside the VM (another tenant on the same physical core).  A run's
wall-clock medians then depend on how much of the run fell in the slow phase.
So the client times ``probe`` right before and right after every request and
reports each request's latency at the reference speed: the wall-clock
latency times ``REFERENCE_S`` over the mean of the two probes.

The probe uses only ``fractions.Fraction`` and ``int`` from the standard
library, and nothing from ``downsum``, so no change to the program can move
it.  Half of it is small-``Fraction`` sums, which slow down by more than
``downsum`` requests do in the slow phase, and half large-``int`` products,
which slow down by less; per-request regressions of log latency on log probe
over 70 s of each workload gave slopes of 0.94-1.02 for the mix, against
0.71-0.76 for the ``Fraction`` half alone.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: What ``probe`` reads on an idle 2.1 GHz Xeon vCPU in its fast phase, so that
#: reference-speed times match wall-clock times on an idle core.
REFERENCE_S = 500e-6
REPEATS = 3


def _work() -> int:
    """Small-``Fraction`` sums, then large-``int`` products, about half the time each."""
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(1, k * k)
    x, y = 3**2000, 7**1900
    for _ in range(4):
        x = x * y % 10**1500 + x
    return total.denominator + x


def probe() -> float:
    """Fastest of ``REPEATS`` timings of the fixed unit of work, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def at_reference(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` rescaled to the reference speed, from the probes around it."""
    return wall_s * REFERENCE_S / ((before_s + after_s) / 2)
