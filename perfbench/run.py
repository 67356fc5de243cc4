"""Closed-loop benchmark of cold ``downsum`` CLI requests.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One client sends one request at a time.  Each request is a child
forked from a parent that has imported ``downsum`` but made no library call,
so every request starts with the empty caches of a fresh ``downsum``
process.  The child runs ``downsum.cli.main(argv)`` with stdout and stderr on
pipes; a request is timed from fork to reap, rescaled to the reference speed
of the host by the probes of ``speed.py`` taken around it, and its response
is checked against the oracles in ``oracle.py``.  Decks of requests (see
``workloads.py``) are sent until ``--seconds`` have passed and at least
``MIN_REQUESTS`` were made, finishing the deck in progress.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sends each
request twice, untraced and then traced, and prints per-layer metrics as
per-request means over the traced copies (see ``tracing.py``).  The last line
of stdout is the JSON result; a fuller result file, with the machine's core
count, Python version and load average, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import speed
import workloads
from tracing import LAYERS, run_traced

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

MIN_REQUESTS = 100  # so that at least 10 samples lie beyond the 90th percentile
REQUEST_TIMEOUT_S = 60.0
SETUP_REPEATS = 21
SPAN_DUMP_REQUESTS = 3  # traced requests whose raw spans go to the result file
CHILD_CRASH_CODE = 70


@dataclass
class Response:
    code: int | None  # exit code; None when killed or timed out
    stdout: bytes
    stderr: bytes
    latency_s: float
    max_rss_kb: int
    timed_out: bool = False
    trace: dict = field(default_factory=dict)


def import_downsum_cli():
    """Import ``downsum.cli`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import downsum.cli

    if Path(downsum.cli.__file__).resolve().parent != (src / "downsum").resolve():
        raise ImportError(f"downsum was imported from {downsum.cli.__file__}, not {src}")
    return downsum.cli


def _read_all(fds: dict[int, bytearray], deadline: float) -> bool:
    """Read every pipe to EOF; False if the deadline passed first."""
    with selectors.DefaultSelector() as selector:
        for fd in fds:
            selector.register(fd, selectors.EVENT_READ)
        open_fds = len(fds)
        while open_fds:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return False
            for key, _ in selector.select(remaining):
                chunk = os.read(key.fd, 65536)
                if chunk:
                    fds[key.fd] += chunk
                else:
                    selector.unregister(key.fd)
                    open_fds -= 1
    return True


def _child(main, argv, out_w, err_w, trace_w, keep_spans):
    """Body of the forked child; never returns."""
    code = CHILD_CRASH_CODE
    try:
        os.dup2(out_w, 1)
        os.dup2(err_w, 2)
        # Fresh streams on fds 1 and 2, as a new process has, even when the
        # parent's sys.stdout is not fd 1 (as under pytest).
        sys.stdout = open(1, "w", closefd=False)
        sys.stderr = open(2, "w", closefd=False)
        if trace_w is None:
            code = main(argv)
        else:
            code, payload = run_traced(main, argv, keep_spans)
            with os.fdopen(trace_w, "w") as handle:
                handle.write(payload)
        sys.stdout.flush()
        sys.stderr.flush()
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code if isinstance(code, int) and 0 <= code < 256 else CHILD_CRASH_CODE)


def run_request(main, argv, timeout_s=REQUEST_TIMEOUT_S, traced=False, keep_spans=False) -> Response:
    """Serve one request in a forked child and time it from fork to reap."""
    sys.stdout.flush()
    sys.stderr.flush()
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    trace_r, trace_w = os.pipe() if traced else (None, None)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        for fd in (out_r, err_r, trace_r):
            if fd is not None:
                os.close(fd)
        _child(main, argv, out_w, err_w, trace_w, keep_spans)
    for fd in (out_w, err_w, trace_w):
        if fd is not None:
            os.close(fd)
    buffers = {out_r: bytearray(), err_r: bytearray()}
    if traced:
        buffers[trace_r] = bytearray()
    try:
        finished = _read_all(buffers, start + timeout_s)
        if not finished:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        latency = time.perf_counter() - start
    finally:
        for fd in buffers:
            os.close(fd)
    code = os.waitstatus_to_exitcode(status) if finished else None
    if code is not None and code < 0:
        code = None  # killed by a signal
    trace_payload = {}
    if traced and finished and buffers[trace_r]:
        body, post_s = buffers[trace_r].rsplit(b"\n", 1)
        trace_payload = json.loads(body)
        trace_payload["post_s"] = float(post_s)
    return Response(code, bytes(buffers[out_r]), bytes(buffers[err_r]), latency, usage.ru_maxrss, not finished, trace_payload)


class Checker:
    """Checks responses against the oracles; precomputation is not set-up time."""

    def __init__(self, plan: workloads.Plan):
        self.plan = plan
        tables = plan.workload == "tables"
        self.tables = oracle.Tables(workloads.TABLES_MAX_ORDER, workloads.GAMMA_MAX_TERMS) if tables else None
        self.weights = oracle.weight_polynomials(workloads.SIGNAL_MAX_ORDER) if plan.workload == "signal" else None

    def check(self, request: workloads.Request, response: Response) -> str | None:
        if response.timed_out:
            return "timed out"
        if response.code != 0:
            tail = response.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit code {response.code}: {' '.join(tail)[:200]}"
        try:
            out = response.stdout.decode()
        except UnicodeDecodeError:
            return "stdout is not UTF-8"
        spec = request.spec
        if request.kind == "coeffs":
            return oracle.check_coeffs(out, spec["max_order"], spec["variant"], self.tables)
        if request.kind == "gamma":
            return oracle.check_float(out, oracle.gamma_partial_sum(self.tables.gregory, spec["terms"]))
        if request.kind == "ln2":
            return oracle.check_float(out, oracle.ln2_partial_sum(spec["order"]))
        if request.kind == "verify":
            expected = oracle.expected_verify(
                spec["seed"], spec["degree"], spec["grid"], spec["classical"], workloads.VERIFY_TRIALS
            )
            return oracle.check_verify(out, expected)
        if request.kind == "downsample":
            return self._check_downsample(spec, out)
        return f"unknown request kind {request.kind}"

    def _check_downsample(self, spec: dict, out: str) -> str | None:
        if out:
            return "downsample wrote to stdout"
        try:
            with open(self.plan.output) as handle:
                text = handle.read()
            os.remove(self.plan.output)
        except OSError as exc:
            return f"no output file: {exc}"
        values = self.plan.signals[spec["signal"]].columns[spec["column"] - 1]
        rows, scale = oracle.downsample_rows(
            values, spec["t0"], spec["window"], spec["factors"], spec["max_order"], self.weights
        )
        return oracle.check_downsample(text, rows, scale)


def _setup_child(workload: str, seed: int, workdir: str, result_w: int):
    """Import downsum and generate inputs in a fresh child; report the time."""
    elapsed = -1.0
    try:
        start = time.perf_counter()
        import_downsum_cli()
        workloads.Plan(workload, seed, workdir).deck(0)
        elapsed = time.perf_counter() - start
    except BaseException:
        traceback.print_exc()
    finally:
        os.write(result_w, repr(elapsed).encode())
        os._exit(0)


def measure_setup(workload: str, seed: int, workdir: str) -> list[float]:
    """Set-up times, at reference speed, of SETUP_REPEATS children forked
    before the parent imports downsum."""
    times = []
    for _ in range(SETUP_REPEATS):
        sys.stdout.flush()
        sys.stderr.flush()
        before = speed.probe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(result_r)
            _setup_child(workload, seed, workdir, result_w)
        os.close(result_w)
        buffer = {result_r: bytearray()}
        try:
            _read_all(buffer, time.perf_counter() + REQUEST_TIMEOUT_S)
        finally:
            os.close(result_r)
            os.waitpid(pid, 0)
        value = float(buffer[result_r] or b"-1")
        if value < 0:
            raise RuntimeError("set-up failed in a child process")
        times.append(speed.at_reference(value, before, speed.probe()))
    return times


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(n=100)`` cuts it."""
    return statistics.quantiles(values, n=100)[q - 1]


@dataclass
class Record:
    """What the parent keeps of one request: no output, so its size stays flat."""

    argv: list[str]
    latency_s: float  # at reference speed
    wall_s: float
    probe_s: float  # mean of the speed probes before and after
    max_rss_kb: int
    failure: str | None
    traced_latency_s: float = 0.0
    stdout_bytes: int = 0
    trace: dict | None = None


def serve(main, request, checker, traced=False, keep_spans=False) -> Record:
    """Send one request (twice when traced: plain, then with tracing) and check it."""
    before = speed.probe()
    plain = run_request(main, request.argv)
    after = speed.probe()
    latency = speed.at_reference(plain.latency_s, before, after)
    failure = checker.check(request, plain)
    record = Record(request.argv, latency, plain.latency_s, (before + after) / 2, plain.max_rss_kb, failure)
    if traced and record.failure is None:
        response = run_request(main, request.argv, traced=True, keep_spans=keep_spans)
        failure = checker.check(request, response) or (None if response.trace else "no trace payload")
        record.failure = failure and "traced: " + failure
        record.traced_latency_s, record.stdout_bytes = response.latency_s, len(response.stdout)
        record.trace = response.trace
    return record


def run_loop(main, plan, checker, seconds, traced, min_requests=MIN_REQUESTS):
    """Send whole decks until ``seconds`` passed and ``min_requests`` were made."""
    records = []
    start = time.perf_counter()
    deck_number = 0
    while time.perf_counter() - start < seconds or len(records) < min_requests:
        for request in plan.deck(deck_number):
            record = serve(main, request, checker, traced, keep_spans=len(records) < SPAN_DUMP_REQUESTS)
            records.append(record)
        deck_number += 1
    return records, time.perf_counter() - start


def end_to_end_metrics(records, setup_times):
    """Times at reference speed; throughput is successful requests per second
    of serving, the rate of a closed-loop client with no think time."""
    good = [r for r in records if r.failure is None]
    latencies = [r.latency_s for r in good]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (percentile(latencies, 90), "s"),
        "throughput_rps": (len(good) / sum(latencies), "1/s"),
        "peak_rss_mb": (max(r.max_rss_kb for r in good) / 1024, "MB"),
    }
    return metrics, latencies


PER_LAYER = [
    # (metric, span name, field, unit)
    ("exact.poly_mul.calls", "exact.poly_mul", "calls", "count"),
    ("exact.poly_mul.self_s", "exact.poly_mul", "self_s", "s"),
    ("exact.poly_add.calls", "exact.poly_add", "calls", "count"),
    ("exact.poly_add.self_s", "exact.poly_add", "self_s", "s"),
    ("exact.poly_shift.calls", "exact.poly_shift", "calls", "count"),
    ("exact.poly_shift.self_s", "exact.poly_shift", "self_s", "s"),
    ("exact.poly_eval.calls", "exact.poly_eval", "calls", "count"),
    ("exact.poly_eval.self_s", "exact.poly_eval", "self_s", "s"),
    ("exact.series.self_s", "exact.series", "self_s", "s"),
    ("family.correction_family.calls", "family.correction_family", "calls", "count"),
    ("family.correction_family.s", "family.correction_family", "s", "s"),
    ("family.correction_family.self_s", "family.correction_family", "self_s", "s"),
    ("family.coefficient_table.s", "family.coefficient_table", "s", "s"),
    ("sumcalc.indefinite_sum.calls", "sumcalc.indefinite_sum", "calls", "count"),
    ("sumcalc.indefinite_sum.s", "sumcalc.indefinite_sum", "s", "s"),
    ("sumcalc.downsampled_sum.calls", "sumcalc.downsampled_sum", "calls", "count"),
    ("sumcalc.downsampled_sum.s", "sumcalc.downsampled_sum", "s", "s"),
    ("sumcalc.residual.calls", "sumcalc.residual", "calls", "count"),
    ("sumcalc.residual.self_s", "sumcalc.residual", "self_s", "s"),
    ("timeseries.load_series.s", "timeseries.load_series", "s", "s"),
    ("timeseries.error_report.s", "timeseries.error_report", "s", "s"),
    ("timeseries.corrected_sum.calls", "timeseries.corrected_sum", "calls", "count"),
    ("timeseries.corrected_sum.self_s", "timeseries.corrected_sum", "self_s", "s"),
    ("timeseries.forward_difference.calls", "timeseries.forward_difference", "calls", "count"),
    ("timeseries.forward_difference.s", "timeseries.forward_difference", "s", "s"),
    ("timeseries.euler_transform.s", "timeseries.euler_transform", "s", "s"),
    ("timeseries.euler_mascheroni.s", "timeseries.euler_mascheroni", "s", "s"),
    ("cli.parse_s", "cli.parse", "s", "s"),
    ("cli.self_s", "cli.main", "self_s", "s"),
]


def per_layer_metrics(records):
    """Per-request means over the traced requests, plus the tracing overhead."""
    traced = [r for r in records if r.failure is None and r.trace]
    count = len(traced)
    totals: dict[str, float] = {}
    for record in traced:
        for name, entry in record.trace["summary"].items():
            for key, value in entry.items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0.0) + value

    def mean(values):
        return sum(values) / count

    metrics = {metric: (totals.get(f"{name}.{key}", 0.0) / count, unit) for metric, name, key, unit in PER_LAYER}
    metrics["exact.max_coeff_bits"] = (mean(r.trace["max_coeff_bits"] for r in traced), "bits")
    metrics["family.max_order"] = (mean(r.trace["max_order"] for r in traced), "order")
    metrics["timeseries.samples_loaded"] = (mean(r.trace["samples_loaded"] for r in traced), "count")
    metrics["cli.stdout_bytes"] = (mean(r.stdout_bytes for r in traced), "bytes")
    metrics["request.s"] = (mean(r.traced_latency_s for r in traced), "s")
    metrics["request.overhead_s"] = (
        mean(r.traced_latency_s - r.trace["main_s"] - r.trace["install_s"] - r.trace["post_s"] for r in traced),
        "s",
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.traced_latency_s for r in traced) / statistics.median(r.wall_s for r in traced),
        "ratio",
    )
    main_s = totals["cli.main.s"]
    shares = {layer: totals.get(f"layer:{layer}.s", 0.0) / main_s for layer in LAYERS}
    spans = [{"request": i, "argv": r.argv, "spans": r.trace["spans"]} for i, r in enumerate(traced) if "spans" in r.trace]
    return metrics, shares, count, spans


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "downsum" / "cli.py").is_file():
        print(f"perfbench: no downsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{run_name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            setup_times = measure_setup(args.workload, args.seed, str(workdir))
            cli = import_downsum_cli()
        except (ImportError, RuntimeError) as exc:
            print(f"perfbench: cannot set up downsum: {exc}", file=sys.stderr)
            return 2
        plan = workloads.Plan(args.workload, args.seed, str(workdir))
        checker = Checker(plan)
        gc.freeze()  # keep the children's collections off the parent's objects
        records, loop_s = run_loop(cli.main, plan, checker, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(r.argv, r.failure) for r in records if r.failure is not None]
    attempted = len(records)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "env": env}
    result.update(attempted=attempted, failed=len(failures), loop_s=loop_s, failures=failures[:20])
    print(f"env: nproc={env['nproc']} python={env['python']} loadavg={env['loadavg']}")
    print(f"requests: {attempted} attempted, {len(failures)} failed, failed_ratio={len(failures) / attempted:.4f}")
    for argv, reason in failures[:5]:
        print(f"  FAILED {' '.join(argv)}: {reason}")
    if len(failures) == attempted:
        metrics = {}
    elif args.trace:
        metrics, shares, count, spans = per_layer_metrics(records)
        result.update(traced_requests=count, layer_share_of_cli_main=shares, spans=spans)
        print(f"traced requests: {count}; layer share of cli.main: " + ", ".join(f"{k}={v:.3f}" for k, v in shares.items()))
    else:
        metrics, latencies = end_to_end_metrics(records, setup_times)
        beyond = sum(v > metrics["latency_p90_s"][0] for v in latencies)
        good = [r for r in records if r.failure is None]
        walls, probes = [r.wall_s for r in good], [r.probe_s for r in good]
        result.update(setup_samples=setup_times, latency_samples=len(latencies), latencies=latencies)
        result.update(wall_latencies=walls, probes=probes, probe_reference_s=speed.REFERENCE_S)
        print(f"samples: {len(latencies)} latencies, {beyond} beyond p90; {len(setup_times)} set-ups")
        print(
            f"wall clock: p50 {statistics.median(walls)!r} s, p90 {percentile(walls, 90)!r} s; "
            f"speed probe: median {statistics.median(probes)!r} s, reference {speed.REFERENCE_S!r} s"
        )
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    final = {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    result.update(final)
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{run_name}.json").write_text(json.dumps(result, indent=1, default=str))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
