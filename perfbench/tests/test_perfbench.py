"""Self-tests of the benchmark: oracles, failure accounting and metric names.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.import_downsum_cli()


def test_oracles_reproduce_published_values():
    bernoulli = oracle.bernoulli_numbers(4)
    assert bernoulli[1] == Fraction(-1, 2)
    assert bernoulli[2] == Fraction(1, 6)
    assert bernoulli[4] == Fraction(-1, 30)
    assert oracle.gregory_coefficients(4)[1:] == [Fraction(1, 2), Fraction(-1, 12), Fraction(1, 24), Fraction(-19, 720)]
    weights = oracle.weight_polynomials(4)
    assert weights[1] == [Fraction(-1, 2), Fraction(1, 2)]  # (x - 1)/2
    assert [w[0] for w in weights] == bernoulli  # F_r(0) = B_r
    assert oracle.reversed_weight(weights[3], 3) == [Fraction(1, 4), Fraction(0), Fraction(-1, 4)]
    assert oracle.ln2_partial_sum(60) == pytest.approx(0.6931471805599453, rel=1e-15)


def test_parse_pretty():
    assert oracle.parse_pretty("-19/30*x^4 + 2/3*x^2 - 1/30") == {4: Fraction(-19, 30), 2: Fraction(2, 3), 0: Fraction(-1, 30)}
    assert oracle.parse_pretty("x - 1") == {1: Fraction(1), 0: Fraction(-1)}
    assert oracle.parse_pretty("0") == {}
    with pytest.raises(ValueError):
        oracle.parse_pretty("x +")


def _record(cli, tmp_path, workload, index=0, main=None, traced=False):
    plan = workloads.Plan(workload, 3, str(tmp_path))
    request = plan.deck(0)[index]
    return run.serve(main or cli.main, request, run.Checker(plan), traced), request


def _corrupting(main):
    """A CLI main that answers correctly but changes the first nonzero digit it prints."""

    def corrupted(argv):
        real, sys.stdout = sys.stdout, io.StringIO()
        try:
            code = main(argv)
            text = sys.stdout.getvalue()
        finally:
            sys.stdout = real
        digits = [i for i, ch in enumerate(text) if ch in "123456789"]
        i = digits[0]
        real.write(text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:])
        return code

    return corrupted


def test_corrupted_response_counts_as_failed(cli, tmp_path):
    plan = workloads.Plan("tables", 3, str(tmp_path))
    checker = run.Checker(plan)
    coeffs = next(r for r in plan.deck(0) if r.kind == "coeffs")
    gamma = next(r for r in plan.deck(0) if r.kind == "gamma")
    for request in (coeffs, gamma):
        assert run.serve(cli.main, request, checker).failure is None
        assert run.serve(_corrupting(cli.main), request, checker).failure is not None


def test_corrupted_verify_and_downsample_fail(cli, tmp_path):
    plan = workloads.Plan("verify", 3, str(tmp_path))
    request = plan.deck(0)[0]
    assert run.serve(_corrupting(cli.main), request, run.Checker(plan)).failure is not None
    plan = workloads.Plan("signal", 3, str(tmp_path))
    request = next(r for r in plan.deck(0) if r.kind == "downsample")
    rows, scale = oracle.downsample_rows(
        plan.signals[request.spec["signal"]].columns[request.spec["column"] - 1],
        request.spec["t0"], request.spec["window"], request.spec["factors"], request.spec["max_order"],
        oracle.weight_polynomials(8),
    )
    good = "x,R,err\n" + "".join(f"{x},{r},{err:.9g}\n" for x, r, err in rows)
    assert oracle.check_downsample(good, rows, scale) is None
    x, r, err = rows[-1]
    bad = good.replace(f"{x},{r},{err:.9g}\n", f"{x},{r},{err * 1.01 + 1e-6:.9g}\n")
    assert oracle.check_downsample(bad, rows, scale) is not None


def test_request_over_timeout_counts_as_failed(cli, tmp_path):
    def slow(argv):
        time.sleep(5)
        return 0

    start = time.perf_counter()
    response = run.run_request(slow, ["coeffs", "--max-order", "2"], timeout_s=0.2)
    assert time.perf_counter() - start < 2
    assert response.timed_out and response.code is None
    plan = workloads.Plan("tables", 3, str(tmp_path))
    assert run.Checker(plan).check(plan.deck(0)[0], response) == "timed out"


def test_crashing_request_counts_as_failed(cli, tmp_path):
    def crash(argv):
        raise RuntimeError("boom")

    record, _ = _record(cli, tmp_path, "tables", main=crash)
    assert record.failure.startswith(f"exit code {run.CHILD_CRASH_CODE}")


def test_every_workload_prints_the_same_metric_names(cli, tmp_path):
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for workload in workloads.WORKLOADS:
        records = [_record(cli, tmp_path, workload, index, traced=True)[0] for index in range(2)]
        assert [r.failure for r in records] == [None, None], workload
        metrics, _ = run.end_to_end_metrics(records, [0.01])
        assert sorted(metrics) == sorted(end_to_end)
        metrics, shares, count, spans = run.per_layer_metrics(records)
        assert sorted(metrics) == sorted(per_layer)
        assert count == 2 and sum(shares.values()) > 0


def test_inputs_follow_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        first = workloads.Plan(workload, 5, str(tmp_path))
        again = workloads.Plan(workload, 5, str(tmp_path))
        other = workloads.Plan(workload, 6, str(tmp_path))
        assert [r.argv for r in first.deck(1)] == [r.argv for r in again.deck(1)]
        assert [r.argv for r in first.deck(1)] != [r.argv for r in other.deck(1)]
        assert [s.columns for s in first.signals] == [s.columns for s in again.signals]


def test_missing_sources_are_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(ImportError):
        run.import_downsum_cli()
