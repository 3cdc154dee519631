"""Short traced passes of every workload: correct answers, sound accounting."""

import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bench import driver, oracle
from bench import run as bench_run
from bench.speed import REFERENCE_US, Speed
from bench.trace import SPANS, Tracer
from bench.workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Spans each workload must exercise (the layers it exists to stress).
EXPECTED = {
    "point-zipf": ("core.fit_scalar", "core.select_scalar",
                   "core.newton_scalar", "core.quantiles", "api.plan",
                   "backend.rollup", "store.merge", "ingest.append",
                   "ingest.flush", "ingest.write", "store.accumulate"),
    "range-druid": ("core.fit_scalar", "backend.rollup", "store.merge",
                    "core.sketch_merge", "ingest.write", "store.accumulate"),
    "groups-cluster": ("core.fit_batch", "core.select_batch",
                       "core.bases_batch", "core.newton_batch", "core.bounds",
                       "core.cascade", "cluster.route", "cluster.scatter",
                       "cluster.node", "store.merge"),
    "ingest-tiered": ("core.fit_scalar", "ingest.write", "store.accumulate",
                      "storage.seal", "storage.compact", "storage.read"),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request, tmp_path_factory):
    """A 1 s traced pass of one workload on a smaller base table."""
    workload = WORKLOADS[request.param]
    workload = replace(workload, base_rows=min(workload.base_rows, 50_000))
    inputs = make_inputs(workload, 0, 1.0, 0.1)
    system, _, took = driver.timed_setup(
        inputs, tmp_path_factory.mktemp(workload.name))
    tracer = Tracer()
    tracer.install()
    try:
        run = driver.run_pass(system, inputs, tracer,
                              np.ones(len(inputs.events), dtype=bool))
    finally:
        tracer.uninstall()
    try:
        storage = driver.storage_stats(system, run, inputs)
    finally:
        driver.teardown(system)
    grades = oracle.grade(inputs, inputs.events, run.outputs)
    return SimpleNamespace(name=request.param, inputs=inputs, run=run,
                           grades=grades, storage=storage, setup=took,
                           report=tracer.report())


def test_short_run_has_no_failures(traced):
    result = driver.verdict(traced.inputs, [traced.run], [traced.grades])
    assert result["failed"] == 0 and result["correct"], result["problems"]
    assert traced.grades.rank_errors


def _pass(due: np.ndarray, start: np.ndarray, end: np.ndarray,
          idle: np.ndarray) -> driver.Pass:
    n = due.size
    return driver.Pass(due=due, start=start, end=end, idle=idle,
                       outputs=[None] * n, errors=[None] * n, warmup_errors=0,
                       seals=0, compactions=0, segment_bytes=0, speed=Speed())


def test_start_lag_of_idle_events_decides_validity():
    n = 200
    due = np.arange(n, dtype=float)
    inputs = SimpleNamespace(events=[None] * n)
    grades = [oracle.Grades(bad=np.zeros(n, dtype=bool))]
    limit_s = driver.MAX_START_LAG_US * 1e-6
    idle = np.ones(n, dtype=bool)

    def late_by(lag_s: float, idle: np.ndarray) -> driver.Pass:
        return _pass(due, due + lag_s, due + lag_s + 1e-3, idle)

    assert driver.verdict(inputs, [late_by(0.5 * limit_s, idle)],
                          grades)["valid"]
    assert not driver.verdict(inputs, [late_by(2 * limit_s, idle)],
                              grades)["valid"]
    # Up to TAIL_SAMPLES late starts (the host took the CPU away) leave
    # the run valid; one more does not.
    sliced = late_by(0.0, idle)
    sliced.start[:driver.TAIL_SAMPLES] += 20 * limit_s
    assert driver.verdict(inputs, [sliced], grades)["valid"]
    sliced.start[driver.TAIL_SAMPLES] += 20 * limit_s
    assert not driver.verdict(inputs, [sliced], grades)["valid"]
    # Events that came due while the driver was busy queue; that is no lag.
    busy = np.arange(n) % 2 == 0
    late = late_by(0.0, ~busy)
    late.start[busy] += 2 * limit_s
    assert driver.verdict(inputs, [late], grades)["valid"]


def test_responses_queue_behind_earlier_events():
    response = driver.respond(np.array([0.0, 1.0, 1.5, 10.0]),
                              np.array([2.0, 1.0, 1.0, 1.0]))
    np.testing.assert_allclose(response, [2.0, 2.0, 2.5, 1.0])


def test_slowdown_is_the_unit_time_around_each_instant():
    speed = Speed()
    speed.starts = list(np.arange(2000) * 1e-3)
    reference = REFERENCE_US * 1e-6
    speed.seconds = [reference] * 1000 + [2 * reference] * 1000
    np.testing.assert_allclose(speed.slowdown(np.array([0.1, 1.9, 5.0])),
                               [1.0, 2.0, 2.0])
    assert speed.slowdown() == pytest.approx(1.5)


def test_tracing_overhead_cancels_a_slower_pass():
    n = 400
    events = [SimpleNamespace(spec="q")] * n
    base = 1e-3 * (1 + np.arange(n) % 7)
    even = np.arange(n) % 2 == 0
    runs = []
    for traced, host in ((even, 1.0), (~even, 1.3)):
        service = base * host * np.where(traced, 1.1, 1.0)
        run = _pass(np.zeros(n), np.zeros(n), service, np.ones(n, dtype=bool))
        # The reference unit missed the slowdown: it ran at its own speed.
        run.speed.starts, run.speed.seconds = [0.0], [REFERENCE_US * 1e-6]
        runs.append(run)
    overhead = driver.tracing_overhead(SimpleNamespace(events=events), runs)
    assert overhead == pytest.approx(10.0)


def test_expected_spans_fire(traced):
    calls = {span: sum(spans.get(span, {}).get("calls", 0)
                       for spans in traced.report["spans"].values())
             for span in SPANS}
    for span in EXPECTED[traced.name]:
        assert calls[span] > 0, span
    assert not traced.report["absent"]


def test_self_time_sums_to_root_time(traced):
    self_ms = sum(row["self_ms"] for spans in traced.report["spans"].values()
                  for row in spans.values())
    root_ms = sum(root["total_ms"] for root in traced.report["roots"].values())
    assert root_ms > 0
    assert abs(self_ms - root_ms) <= 0.05 * root_ms


def test_output_json_has_the_contract_shape(traced):
    inputs, run = traced.inputs, traced.run
    failed = np.zeros(len(inputs.events), dtype=bool)
    e2e = driver.e2e_metrics(driver.latencies(inputs, run, failed),
                             traced.grades, [traced.setup], 100.0)
    layers = driver.layer_metrics(inputs, run, traced.grades, traced.storage,
                                  traced.report, overhead_pct=0.0)
    assert set(e2e) == {m["name"] for m in CONFIG["end_to_end"]}
    assert set(layers) == {m["name"] for m in CONFIG["per_layer"]}
    for metrics in (e2e, layers):
        record = {"workload": traced.name, "metrics": metrics,
                  "details": driver.verdict(inputs, [run], [traced.grades])}
        line = json.loads(json.dumps(bench_run.result_line([record]),
                                     allow_nan=False))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert isinstance(line["attempted"], int) and line["attempted"] >= 1
        for value in line["metrics"].values():
            assert set(value) == {"value", "unit"}
            assert math.isfinite(value["value"])
    for name in ("setup_s", "query_p50_ms", "capacity_eps", "rss_peak_mb"):
        assert e2e[name][0] > 0


def test_missing_targets_are_absent_and_patches_are_undone():
    import repro.core.quantile as quantile
    import repro.core.selector as selector
    original = selector.select_moments
    tracer = Tracer({"gone": ("repro.core.solver:no_such_function",),
                     "gone.module": ("repro.no_such_module:f",),
                     "core.select_scalar": SPANS["core.select_scalar"]})
    tracer.install()
    try:
        # `from .selector import select_moments` copies are patched too.
        assert quantile.select_moments is selector.select_moments
        assert quantile.select_moments is not original
    finally:
        tracer.uninstall()
    assert quantile.select_moments is original
    assert set(tracer.report()["absent"]) == {"gone", "gone.module"}
