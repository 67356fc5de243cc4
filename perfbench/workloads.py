"""Seeded request plans for the three workloads.

A workload is an endless sequence of *decks*.  A deck is a fixed mix of
request shapes whose parameters are drawn from stratified ranges and whose
order is shuffled, all from ``random.Random(f"{workload}:{seed}:{deck}")``.
Every seed therefore sends the same mix with different inputs, so a run's
medians move with the program, not with the luck of the draw.  The program
only ever sees the argv lists and the CSV files written here.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

WORKLOADS = ("tables", "verify", "signal")

#: Largest orders and sizes the decks ask for; the oracles cover up to these.
TABLES_MAX_ORDER = 30
GAMMA_MAX_TERMS = 220
SIGNAL_MAX_ORDER = 8
VERIFY_TRIALS = 2
SIGNAL_FILES = 3
SIGNAL_ROWS = 5000


@dataclass
class Request:
    kind: str  # coeffs | gamma | verify | downsample | ln2
    argv: list[str]
    spec: dict = field(default_factory=dict)


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count integers, one uniform draw from each of count equal slices of lo..hi."""
    width = (hi - lo + 1) / count
    return [rng.randint(lo + math.ceil(i * width), lo + math.ceil((i + 1) * width) - 1) for i in range(count)]


def tables_deck(rng: random.Random) -> list[Request]:
    """15 ``coeffs`` requests (each R in 16..30 once, five of each output form)
    and 6 ``accelerate --target gamma`` requests with N stratified over 100..220.

    An odd deck puts the median of a run inside one cluster of similar
    requests rather than between two, where it would hop with small noise."""
    variants = ["table", "csv", "star"] * 5
    rng.shuffle(variants)
    deck = []
    for order, variant in zip(range(16, TABLES_MAX_ORDER + 1), variants):
        argv = ["coeffs", "--max-order", str(order)]
        argv += {"table": [], "csv": ["--format", "csv"], "star": ["--star"]}[variant]
        deck.append(Request("coeffs", argv, {"max_order": order, "variant": variant}))
    for terms in _stratified(rng, 100, GAMMA_MAX_TERMS, 6):
        deck.append(Request("gamma", ["accelerate", "--target", "gamma", "--terms", str(terms)], {"terms": terms}))
    rng.shuffle(deck)
    return deck


def _random_grid(rng: random.Random, size: int) -> tuple[str, list[Fraction]]:
    """A custom --x-grid of ``size`` distinct nonzero rationals, some written unreduced."""
    grid: list[Fraction] = []
    parts = []
    while len(grid) < size:
        num, den = rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 6)
        value = Fraction(num, den)
        if value in grid:
            continue
        scale = rng.choice([1, 1, 2])
        grid.append(value)
        parts.append(f"{num * scale}/{den * scale}" if den * scale != 1 else str(num))
    return ",".join(parts), grid


DEFAULT_GRID = [Fraction(v) for v in ("-2", "-1", "-1/2", "1/3", "1/2", "1", "2", "3")]


def verify_deck(rng: random.Random) -> list[Request]:
    """Three ``verify --trials 2`` requests per degree 4..10: one plain, one
    with a custom --x-grid, one with --classical (and a custom grid on odd
    degrees).

    A request's cost grows with its grid size, so each degree and shape gets
    a fixed size, 4..8, and only the grid's values follow the seed."""
    deck = []
    for degree in range(4, 11):
        for shape in ("plain", "grid", "classical"):
            seed = rng.randrange(10**6)
            argv = ["verify", "--degree", str(degree), "--trials", str(VERIFY_TRIALS), "--seed", str(seed)]
            grid = DEFAULT_GRID
            if shape == "grid" or (shape == "classical" and degree % 2):
                size = 4 + degree % 5 if shape == "classical" else 8 - degree % 5
                text, grid = _random_grid(rng, size)
                argv.append(f"--x-grid={text}")
            if shape == "classical":
                argv.append("--classical")
            deck.append(Request("verify", argv, {"seed": seed, "degree": degree, "grid": grid, "classical": shape == "classical"}))
    rng.shuffle(deck)
    return deck


def _signal_values(rng: random.Random) -> list[float]:
    """A smooth signal: three slow sinusoids, a Gaussian bump and an offset."""
    waves = [(rng.uniform(0.2, 1.0), rng.uniform(300, 3000), rng.uniform(0, 2 * math.pi)) for _ in range(3)]
    height, center, width = rng.uniform(0.5, 2.0), rng.uniform(0, SIGNAL_ROWS), rng.uniform(100, 800)
    offset = rng.uniform(-0.5, 0.5)
    return [
        offset
        + sum(a * math.sin(2 * math.pi * t / period + phase) for a, period, phase in waves)
        + height * math.exp(-(((t - center) / width) ** 2))
        for t in range(SIGNAL_ROWS)
    ]


@dataclass
class Signal:
    path: str
    header: bool
    columns: list[list[float]]  # columns[k] is CSV column k + 1; column 0 is t


def write_signals(seed: int, workdir: str) -> list[Signal]:
    """Write the ``signal`` workload's CSV files; values round-trip exactly."""
    rng = random.Random(f"signal:{seed}:files")
    signals = []
    for index in range(SIGNAL_FILES):
        columns = [_signal_values(rng), _signal_values(rng)]
        header = index != 1
        path = os.path.join(workdir, f"signal{index}.csv")
        with open(path, "w") as handle:
            if header:
                handle.write("t,a,b\n")
            for t, (a, b) in enumerate(zip(*columns)):
                handle.write(f"{t},{a!r},{b!r}\n")
        signals.append(Signal(path, header, columns))
    return signals


def signal_deck(rng: random.Random, signals: list[Signal], output: str) -> list[Request]:
    """8 ``downsample`` requests (files in turn, window 480..1200 divisible by
    3-6 factors from 2..8, R in 4..8) and 2 ``accelerate --target ln2`` with
    orders from 200..400 and 401..600."""
    deck = []
    for i in range(8):
        index = i % len(signals)
        signal = signals[index]
        column = rng.randint(1, len(signal.columns))
        factors = sorted(rng.sample(range(2, 9), rng.randint(3, 6)))
        step = lcm(*factors)
        window = step * rng.randint(math.ceil(480 / step), 1200 // step)
        max_order = rng.randint(4, SIGNAL_MAX_ORDER)
        last_start = SIGNAL_ROWS - 1 - window - (max_order - 1) * max(factors)
        t0 = rng.randint(0, last_start)
        shuffled = factors[:]
        rng.shuffle(shuffled)
        argv = ["downsample", "--input", signal.path, "--col", str(column)]
        if signal.header:
            argv.append("--header")
        argv += [
            "--window", str(window), "--factors", ",".join(map(str, shuffled)),
            "--max-order", str(max_order), "--t0", str(t0), "--output", output,
        ]
        spec = {"signal": index, "column": column, "window": window, "factors": factors, "max_order": max_order, "t0": t0}
        deck.append(Request("downsample", argv, spec))
    for order in (rng.randint(200, 400), rng.randint(401, 600)):
        deck.append(Request("ln2", ["accelerate", "--target", "ln2", "--order", str(order)], {"order": order}))
    rng.shuffle(deck)
    return deck


class Plan:
    """Inputs of one workload run: data files plus a deck generator."""

    def __init__(self, workload: str, seed: int, workdir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed = workload, seed
        self.output = os.path.join(workdir, "downsample-out.csv")
        self.signals = write_signals(seed, workdir) if workload == "signal" else []

    def deck(self, number: int) -> list[Request]:
        rng = random.Random(f"{self.workload}:{self.seed}:{number}")
        if self.workload == "tables":
            return tables_deck(rng)
        if self.workload == "verify":
            return verify_deck(rng)
        return signal_deck(rng, self.signals, self.output)
