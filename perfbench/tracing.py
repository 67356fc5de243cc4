"""Span tracing of one downsum request, installed from outside the library.

``install`` replaces public functions and ``Polynomial``/``PowerSeries``
methods with wrappers that record a span per call: name, start, end and the
index of the enclosing span.  It runs in the forked child that serves one
request, so the parent process and untraced requests never see a wrapper.
Spans stay in memory; ``summarize`` turns them into per-name call counts,
inclusive time (outermost call of a name only) and self time (duration minus
the direct child spans).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import defaultdict

#: (module, attribute, span name).  A dotted attribute is a method.
TARGETS = [
    ("downsum.exact", "Polynomial.__mul__", "exact.poly_mul"),
    ("downsum.exact", "Polynomial.__rmul__", "exact.poly_mul"),
    ("downsum.exact", "Polynomial.__add__", "exact.poly_add"),
    ("downsum.exact", "Polynomial.shift", "exact.poly_shift"),
    ("downsum.exact", "Polynomial.__call__", "exact.poly_eval"),
    ("downsum.exact", "PowerSeries.__add__", "exact.series"),
    ("downsum.exact", "PowerSeries.__sub__", "exact.series"),
    ("downsum.exact", "PowerSeries.__mul__", "exact.series"),
    ("downsum.exact", "PowerSeries.reciprocal", "exact.series"),
    ("downsum.exact", "PowerSeries.exp", "exact.series"),
    ("downsum.family", "correction_family", "family.correction_family"),
    ("downsum.family", "coefficient_table", "family.coefficient_table"),
    ("downsum.family", "classical_numbers", "family.classical_numbers"),
    ("downsum.sumcalc", "indefinite_sum", "sumcalc.indefinite_sum"),
    ("downsum.sumcalc", "downsampled_sum", "sumcalc.downsampled_sum"),
    ("downsum.sumcalc", "scaled_difference_residual", "sumcalc.residual"),
    ("downsum.sumcalc", "unit_difference_residual", "sumcalc.residual"),
    ("downsum.sumcalc", "euler_maclaurin_residual", "sumcalc.residual"),
    ("downsum.sumcalc", "gregory_residual", "sumcalc.residual"),
    ("downsum.sumcalc", "alternating_residual", "sumcalc.residual"),
    ("downsum.sumcalc", "random_polynomial", "sumcalc.random_polynomial"),
    ("downsum.timeseries", "load_series", "timeseries.load_series"),
    ("downsum.timeseries", "error_report", "timeseries.error_report"),
    ("downsum.timeseries", "corrected_sum", "timeseries.corrected_sum"),
    ("downsum.timeseries", "forward_difference", "timeseries.forward_difference"),
    ("downsum.timeseries", "euler_transform", "timeseries.euler_transform"),
    ("downsum.timeseries", "euler_mascheroni", "timeseries.euler_mascheroni"),
    ("downsum.cli", "build_parser", "cli.parse"),
]

LAYERS = ("exact", "family", "sumcalc", "timeseries", "cli")


class Tracer:
    """Spans of one request, plus the values some wrappers observe."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index)
        self._stack: list[int] = []
        self.max_order = 0
        self.samples_loaded = 0
        self.results: list = []  # families and tables, for coefficient sizes

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_family(self, args, result):
        self.max_order = max(self.max_order, args[0])
        self.results.append(result)

    def _observe_samples(self, args, result):
        self.samples_loaded += len(result)

    def install(self) -> None:
        """Wrap every target in every downsum module that binds it by name."""
        observers = {
            "family.correction_family": self._observe_family,
            "family.coefficient_table": self._observe_family,
            "timeseries.load_series": self._observe_samples,
        }
        for module_name, attribute, name in TARGETS:
            module = sys.modules[module_name]
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                setattr(owner, method, self.wrap(name, getattr(owner, method)))
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(name, original, observers.get(name))
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("downsum") and getattr(other, attribute, None) is original:
                    setattr(other, attribute, wrapped)
        argparse.ArgumentParser.parse_args = self.wrap("cli.parse", argparse.ArgumentParser.parse_args)

    def max_coeff_bits(self) -> int:
        """Largest numerator/denominator bit-length in the families and tables built."""
        bits = 0
        for result in self.results:
            if hasattr(result, "weights"):
                values = [c for group in (result.weights, result.unit_weights) for p in group for c in p.coeffs]
            else:
                values = list(result.bernoulli) + list(result.gregory)
            for v in values:
                bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
        return bits


def summarize(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds ``s`` and ``self_s``.

    ``s`` counts a call only when no enclosing span has the same name, so
    nested calls are not counted twice.  ``layer:<name>`` entries give each
    layer's inclusive time the same way, by the prefix before the first dot.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[index]
        layer = name.split(".")[0]
        outer_name = outer_layer = True
        while parent >= 0:
            ancestor = spans[parent][0]
            outer_name = outer_name and ancestor != name
            outer_layer = outer_layer and ancestor.split(".")[0] != layer
            parent = spans[parent][3]
        if outer_name:
            entry["s"] += duration
        if outer_layer:
            out["layer:" + layer]["calls"] += 1
            out["layer:" + layer]["s"] += duration
    return dict(out)


def run_traced(main, argv, keep_spans=False) -> tuple[int, str]:
    """Install tracing, run ``main(argv)`` and return its exit code and a payload.

    The payload is the JSON summary, then a newline and the seconds spent
    after ``main`` returned (summarizing and serializing), so that this cost
    can be told apart from the request's own.
    """
    start = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    traced_main = tracer.wrap("cli.main", main)
    installed = time.perf_counter()
    code = traced_main(argv)
    sys.stdout.flush()
    done = time.perf_counter()
    _, begin, end, _ = tracer.spans[0]
    payload = {
        "summary": summarize(tracer.spans),
        "max_coeff_bits": tracer.max_coeff_bits(),
        "max_order": tracer.max_order,
        "samples_loaded": tracer.samples_loaded,
        "main_s": end - begin,
        "install_s": installed - start,
    }
    if keep_spans:
        payload["spans"] = tracer.spans
    body = json.dumps(payload)
    return code, f"{body}\n{time.perf_counter() - done!r}"
