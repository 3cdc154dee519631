"""Open-loop driver: a paced pass of a seeded schedule, and the metrics.

A single thread replays the schedule.  Before each event it waits, busy,
to the event's due time (sleeping would add the wake-from-idle penalty
to every response), timing the reference unit of ``bench.speed`` while
it waits.  Each operation's service time is scaled to reference speed,
and its response time runs from its due time: the driver is a single
FIFO server, so an event starts at its due time or when the event before
it ends, and a stall counts against every event queued behind it.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import oracle
from .speed import Speed
from .trace import SPANS, Tracer
from .workloads import (INGEST_OPS, Inputs, make_inputs, repeat_share,
                        run_event, setup, teardown)

#: Set-ups per run; setup_s is their median, and the last one is measured.
SETUPS = 3
#: Unrecorded warm-up queries before the measured pass, seconds.
WARMUP_SECONDS = 1.0
#: Reference-unit time around each set-up, seconds (before and after).
SETUP_SAMPLING_SECONDS = 0.02
#: A run is invalid when events due while the driver was idle started
#: later than this (the generator fell behind its schedule), at the tail
#: percentile of their start lags.
MAX_START_LAG_US = 1000.0
#: Samples beyond a reported tail percentile.  On a 2-vCPU VM the host
#: takes the driver off its CPU for 2-15 ms now and then; with fewer than
#: ten lags beyond it, one such slice decides a run's lag percentile.
TAIL_SAMPLES = 10


@dataclass
class Pass:
    """What one replay of the measured events did, event by event."""

    due: np.ndarray
    start: np.ndarray
    end: np.ndarray
    #: The driver was waiting (idle) when the event came due.
    idle: np.ndarray
    outputs: list
    errors: list
    warmup_errors: int
    #: Tiered-store seals and compactions during the pass, and the bytes
    #: of the segments they wrote.
    seals: int
    compactions: int
    segment_bytes: int
    #: Reference-unit samples taken while the driver waited.
    speed: Speed


def timed_setup(inputs: Inputs, workdir: Path):
    """Set up once; returns the system and its set-up time in seconds,
    as measured and at reference speed."""
    gc.collect()
    speed = Speed()
    speed.sample_for(SETUP_SAMPLING_SECONDS)
    start = time.perf_counter()
    system = setup(inputs, workdir)
    took = time.perf_counter() - start
    speed.sample_for(SETUP_SAMPLING_SECONDS)
    return system, took, took / speed.slowdown()


def _written(store, event, output, seals_before: int) -> int | None:
    """Bytes of the segment a tiered flush sealed or a compaction wrote."""
    if event.op == "flush" and store.stats_counters["seals"] > seals_before:
        return store.segments[-1].size_bytes
    if event.op == "compact" and output is not None:
        return sum(seg.size_bytes for seg in store.segments
                   if seg.path.name == output["created"])
    return None


def _wait(due: float, speed: Speed) -> float:
    """Time reference units until one more might overrun ``due``, then
    spin to it; returns the time the wait ended."""
    perf = time.perf_counter
    now = perf()
    unit = speed.seconds[-1] if speed.seconds else 0.0
    while now + 2 * unit < due:
        unit = speed.sample()
        now = perf()
    while now < due:
        now = perf()
    return now


def run_pass(system, inputs: Inputs, tracer: Tracer | None = None,
             traced: np.ndarray | None = None) -> Pass:
    """Warm up, then replay ``inputs.events`` on schedule.

    With a tracer, the events where ``traced`` is true run under a root
    span; the others run untraced.
    """
    perf = time.perf_counter
    store = system.target if system.directory is not None else None
    speed = Speed()
    gc.collect()
    t0 = perf() + 0.01
    warmup_errors = 0
    for event in inputs.warmup:
        _wait(t0 + event.at, speed)
        try:
            run_event(system, inputs, event)
        except Exception:  # reported as a problem of the run
            warmup_errors += 1
    t0 += inputs.warmup_seconds
    events = inputs.events
    n = len(events)
    due = t0 + np.array([event.at for event in events])
    start, end = np.zeros(n), np.zeros(n)
    idle = np.zeros(n, dtype=bool)
    outputs: list = [None] * n
    errors: list = [None] * n
    counts = {"flush": 0, "compact": 0}
    written = 0
    for i, event in enumerate(events):
        idle[i] = perf() < due[i]
        start[i] = _wait(due[i], speed) if idle[i] else perf()
        seals = store.stats_counters["seals"] if store is not None else 0
        try:
            if tracer is None or not traced[i]:
                outputs[i] = run_event(system, inputs, event)
            else:
                with tracer.op("ingest" if event.op in INGEST_OPS
                               else "query"):
                    outputs[i] = run_event(system, inputs, event)
        except Exception as exc:  # a failed operation, counted by verdict
            errors[i] = f"{type(exc).__name__}: {exc}"
        end[i] = perf()
        if store is not None and errors[i] is None:
            size = _written(store, event, outputs[i], seals)
            if size is not None:
                counts[event.op] += 1
                written += size
    return Pass(due=due, start=start, end=end, idle=idle, outputs=outputs,
                errors=errors, warmup_errors=warmup_errors,
                seals=counts["flush"], compactions=counts["compact"],
                segment_bytes=written, speed=speed)


# ----------------------------------------------------------------------
# Verdict and metrics
# ----------------------------------------------------------------------

def _pct(values: np.ndarray, p: float) -> float:
    """Percentile that never interpolates (a failure reads as +inf)."""
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, p, method="inverted_cdf"))


def tail_percentile(samples: int) -> int:
    """The highest whole percentile, from the median to p99, with
    ``TAIL_SAMPLES`` of ``samples`` beyond it."""
    beyond = 1 - TAIL_SAMPLES / max(samples, 1)
    return min(99, max(50, math.floor(100 * beyond)))


def verdict(inputs: Inputs, runs: list[Pass],
            grades: list[oracle.Grades]) -> dict:
    """Failed operations, correctness and generator validity of a run."""
    failed = np.zeros(len(inputs.events), dtype=bool)
    problems = []
    for run, graded in zip(runs, grades):
        raised = np.array([error is not None for error in run.errors],
                          dtype=bool)
        failed |= raised | graded.bad
        problems += [f"event {i}: {run.errors[i]}"
                     for i in np.flatnonzero(raised)[:5]]
        problems += graded.problems
    warmup_errors = sum(run.warmup_errors for run in runs)
    if warmup_errors:
        problems.append(f"{warmup_errors} warm-up operations raised")
    lag_us = np.concatenate([(run.start - run.due)[run.idle]
                             for run in runs]) * 1e6
    lag_pct = tail_percentile(lag_us.size)
    return {"attempted": len(inputs.events), "failed": int(failed.sum()),
            "failed_mask": failed,
            "correct": bool(not failed.any() and not warmup_errors),
            "start_lag_p99_us": _pct(lag_us, 99),
            "start_lag_pct": lag_pct,
            "valid": _pct(lag_us, lag_pct) <= MAX_START_LAG_US,
            "idle_events": int(lag_us.size), "problems": problems}


def respond(at: np.ndarray, service: np.ndarray) -> np.ndarray:
    """Response times of a single FIFO server: each event starts at its
    due time ``at`` or when the event before it ends."""
    response = np.empty_like(service)
    free = -math.inf
    for i, (due, took) in enumerate(zip(at, service)):
        free = max(due, free) + took
        response[i] = free - due
    return response


def latencies(inputs: Inputs, run: Pass, failed: np.ndarray) -> dict:
    """Query response and flush service times at reference speed.

    Flushes are timed from their start: the single-threaded driver makes
    a flush wait behind whatever query is running, which a writer beside
    readers would not (that wait is in ``queue.wait_*``).
    """
    ops = np.array([event.op for event in inputs.events])
    query = ~np.isin(ops, INGEST_OPS)
    flush = ops == "flush"
    slowdown = run.speed.slowdown(run.start)
    service = (run.end - run.start) / slowdown
    response_ms = respond(run.due, service) * 1e3
    response_ms[failed] = np.inf
    service_ms = np.where(failed, np.inf, service * 1e3)
    queries = int(query.sum())
    tail_pct = tail_percentile(queries)
    return {"query_p50_ms": _pct(response_ms[query], 50),
            "ingest_p50_ms": _pct(service_ms[flush], 50),
            "capacity_eps": int((~failed).sum()) / float(service.sum()),
            "query_tail_ms": _pct(response_ms[query], tail_pct),
            "query_tail_pct": tail_pct,
            "measured_query_p50_ms": _pct(
                np.where(failed, np.inf, run.end - run.due)[query] * 1e3, 50),
            "slowdown_median": float(np.median(slowdown)),
            "queries": queries, "flushes": int(flush.sum())}


def e2e_metrics(lat: dict, grades: oracle.Grades, setups: list[float],
                rss_mb: float) -> dict:
    """Every end-to-end metric: name -> (value, unit)."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "query_p50_ms": (lat["query_p50_ms"], "ms"),
        "ingest_p50_ms": (lat["ingest_p50_ms"], "ms"),
        "capacity_eps": (lat["capacity_eps"], "ev/s"),
        "rank_error_mean": (float(np.mean(grades.rank_errors))
                            if grades.rank_errors else 0.0, "rank"),
        "rss_peak_mb": (rss_mb, "MB"),
    }


def storage_stats(system, run: Pass, inputs: Inputs) -> dict:
    """Tiered-store state after a pass (zeros for untiered layouts)."""
    if system.directory is None:
        return {"seals": 0, "compactions": 0, "segments_end": 0,
                "disk_bytes_end": 0, "write_amp": 0.0}
    flushed = sum(1 for event, error in zip(inputs.events, run.errors)
                  if event.op == "flush" and error is None)
    # A user row is one float64 value plus one int64 dimension.
    user_bytes = flushed * inputs.workload.flush_rows * 16
    return {"seals": run.seals, "compactions": run.compactions,
            "segments_end": len(system.target.segments),
            "disk_bytes_end": system.target.disk_bytes(),
            "write_amp": run.segment_bytes / user_bytes if user_bytes else 0.0}


def layer_metrics(inputs: Inputs, run: Pass, grades: oracle.Grades,
                  storage: dict, report: dict, overhead_pct: float) -> dict:
    """Every per-layer metric of a traced run: name -> (value, unit)."""
    metrics = {}
    for span in SPANS:
        rows = [spans.get(span, {}) for spans in report["spans"].values()]
        metrics[f"{span}.calls"] = (sum(r.get("calls", 0) for r in rows),
                                    "count")
        metrics[f"{span}.self_ms"] = (sum(r.get("self_ms", 0.0) for r in rows),
                                      "ms")
    for kind, root in report["roots"].items():
        metrics[f"op.{kind}.self_ms"] = (
            report["spans"][kind].get(f"op.{kind}", {}).get("self_ms", 0.0),
            "ms")
        metrics[f"trace.{kind}_root_ms"] = (root["total_ms"], "ms")

    events = inputs.events
    queries = [out for event, out in zip(events, run.outputs)
               if event.spec is not None and out is not None]
    reports = [out for event, out in zip(events, run.outputs)
               if event.op == "flush" and out is not None]
    wait_ms = (run.start - run.due) * 1e3

    def mean(values) -> float:
        return float(np.mean(values)) if len(values) else 0.0

    metrics.update({
        "queue.wait_p50_ms": (_pct(wait_ms, 50), "ms"),
        "queue.wait_p99_ms": (_pct(wait_ms, 99), "ms"),
        "driver.start_lag_p99_us": (
            _pct((run.start - run.due)[run.idle] * 1e6, 99), "us"),
        "api.cells_scanned_per_query": (
            mean([r.cells_scanned for r in queries]), "count"),
        "api.merges_per_query": (mean([r.merges for r in queries]), "count"),
        "api.solve_calls_per_query": (
            mean([r.timings.solve_calls for r in queries]), "count"),
        "ingest.cells_per_flush": (mean([r.cells for r in reports]), "count"),
        "ingest.pack_ms": (mean([r.pack_seconds * 1e3 for r in reports]),
                           "ms"),
        "storage.seals": (storage["seals"], "count"),
        "storage.compactions": (storage["compactions"], "count"),
        "storage.segments_end": (storage["segments_end"], "count"),
        "storage.disk_bytes_end": (storage["disk_bytes_end"], "B"),
        "storage.write_amp": (storage["write_amp"], "ratio"),
        "core.cascade.solved_fraction": (
            grades.cascade_solved / grades.cascade_cells
            if grades.cascade_cells else 0.0, "ratio"),
        "optimizer.hit_ratio": (
            mean([r.timings.solve_route == "cached" for r in queries]),
            "ratio"),
        "workload.repeat_share": (repeat_share(events), "ratio"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return metrics


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, workdir: Path) -> dict:
    """The end-to-end run: ``SETUPS`` set-ups, then one paced pass of
    ``seconds`` on the last of them."""
    inputs = make_inputs(workload, seed, seconds, WARMUP_SECONDS)
    setups, measured = [], []
    for i in range(SETUPS):
        system, took, scaled = timed_setup(inputs, workdir)
        measured.append(took)
        setups.append(scaled)
        if i < SETUPS - 1:
            teardown(system)
    try:
        run = run_pass(system, inputs)
    finally:
        teardown(system)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    grades = oracle.grade(inputs, inputs.events, run.outputs)
    result = verdict(inputs, [run], [grades])
    failed = result.pop("failed_mask")
    lat = latencies(inputs, run, failed)
    details = {**result, **lat, "setups_s": setups,
               "measured_setups_s": measured,
               "failed_ratio": result["failed"] / result["attempted"],
               "graded_estimates": len(grades.rank_errors)}
    return {"metrics": e2e_metrics(lat, grades, setups, rss_mb),
            "details": details}


def tracing_overhead(inputs: Inputs, runs: list[Pass]) -> float:
    """Traced over untraced service time of the queries, in %.

    Each pass traces the events the other leaves untraced, so every
    query has one traced and one untraced execution, each at reference
    speed, and what is left of a slowdown of the host during one pass
    inflates as many ratios as it deflates.  The geometric mean of the
    ratios cancels it.
    """
    query = np.array([event.spec is not None for event in inputs.events])
    first, second = (((run.end - run.start)
                      / run.speed.slowdown(run.start))[query] for run in runs)
    traced_first = (np.arange(len(inputs.events)) % 2 == 0)[query]
    ratio = np.where(traced_first, first / second, second / first)
    return (float(np.exp(np.mean(np.log(ratio)))) - 1.0) * 100.0


def trace(workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Per-layer run: two passes of one schedule, ``seconds / 2`` each,
    on fresh set-ups.  The first traces the even events, the second the
    odd ones, so the spans cover the schedule once."""
    inputs = make_inputs(workload, seed, seconds / 2, WARMUP_SECONDS)
    parity = np.arange(len(inputs.events)) % 2
    tracer = Tracer()
    runs = []
    tracer.install()
    try:
        for half in (0, 1):
            system, _, _ = timed_setup(inputs, workdir)
            try:
                runs.append(run_pass(system, inputs, tracer, parity == half))
                if half == 0:
                    storage = storage_stats(system, runs[0], inputs)
            finally:
                teardown(system)
    finally:
        tracer.uninstall()

    grades = [oracle.grade(inputs, inputs.events, run.outputs)
              for run in runs]
    result = verdict(inputs, runs, grades)
    result.pop("failed_mask")
    report = tracer.report()
    return {"metrics": layer_metrics(inputs, runs[0], grades[0], storage,
                                     report, tracing_overhead(inputs, runs)),
            "details": {**result, "trace": report}}
