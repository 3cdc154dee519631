"""Tests for the repro.telemetry runtime plane.

Covers the three promises telemetry makes:

* **mergeable metrics** — the log-linear histogram folds partials in any
  order or tree shape to a byte-identical result (integer bucket adds
  only, no float sum), and its quantile estimates honor the documented
  ``2**(1/(2S)) - 1`` relative error bound vs the exact rank statistic;
* **connected traces** — spans nest on one thread via the context var,
  cross thread pools via explicit parents, cross process boundaries via
  detached spans adopted from node partials, and phase spans agree
  *exactly* with the ``QueryTimings`` the API reports;
* **near-zero disabled cost** — with the plane off, queries and ingest
  record no spans and no metrics (the ≤3%/≤10% latency gates live in
  ``benchmarks/bench_telemetry.py``).
"""

import json
import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import QueryService, QuerySpec
from repro.cluster import ClusterCoordinator
from repro.datacube import CubeSchema, DataCube
from repro.druid import MomentsSketchAggregator
from repro.ingest import IngestSession
from repro.storage import ColdSpec, TieredStore
from repro.summaries.moments_summary import MomentsSummary
from repro.telemetry import (TELEMETRY, Counter, Gauge, LogHistogram,
                             MetricsRegistry, SlowQueryLog, Tracer,
                             build_trace_tree, load_metrics, render_json,
                             render_prometheus, render_trace_tree)

K = 8


@pytest.fixture()
def telemetry():
    """Enable a fresh telemetry plane; always disable + clear afterwards."""
    TELEMETRY.enable(reset=True, slow_query_threshold_seconds=None)
    yield TELEMETRY
    TELEMETRY.disable()
    TELEMETRY.reset()


@pytest.fixture()
def disabled_telemetry():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield TELEMETRY
    TELEMETRY.disable()
    TELEMETRY.reset()


def fresh_cube(k=K):
    cube = DataCube(CubeSchema(("d",)), lambda: MomentsSummary(k=k))
    rng = np.random.default_rng(3)
    values = rng.lognormal(1.0, 1.0, 2000)
    cube.ingest([(np.arange(values.size) % 8).astype(int)], values)
    return cube


# ----------------------------------------------------------------------
# LogHistogram: mergeable metrics
# ----------------------------------------------------------------------

samples = st.lists(
    st.one_of(st.floats(min_value=1e-6, max_value=1e6,
                        allow_nan=False, allow_infinity=False),
              st.just(0.0),
              st.floats(min_value=-1e6, max_value=-1e-6,
                        allow_nan=False, allow_infinity=False)),
    min_size=0, max_size=60)


def hist_of(values):
    h = LogHistogram()
    h.observe_many(values)
    return h


class TestLogHistogram:
    def test_basic_counts(self):
        h = hist_of([0.0, 0.0, 1.5, -2.0, 3.0])
        assert h.count == 5
        assert h.zeros == 2
        assert h.min == -2.0
        assert h.max == 3.0

    def test_rejects_non_finite(self):
        h = LogHistogram()
        with pytest.raises(ValueError):
            h.observe(float("nan"))
        with pytest.raises(ValueError):
            h.observe(float("inf"))

    @given(a=samples, b=samples)
    @settings(max_examples=50, deadline=None)
    def test_merge_commutes(self, a, b):
        left = hist_of(a).merge(hist_of(b))
        right = hist_of(b).merge(hist_of(a))
        assert left == right
        assert left.to_partial() == right.to_partial()

    @given(a=samples, b=samples, c=samples)
    @settings(max_examples=50, deadline=None)
    def test_merge_associates(self, a, b, c):
        left = hist_of(a).merge(hist_of(b)).merge(hist_of(c))
        right = hist_of(a).merge(hist_of(b).merge(hist_of(c)))
        assert left == right
        assert left.to_partial() == right.to_partial()

    @given(chunks=st.lists(samples, min_size=1, max_size=8),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_fold_order_invariance(self, chunks, seed):
        """Shuffled partial folds are byte-identical to one-shot build."""
        single = hist_of([v for chunk in chunks for v in chunk])
        partials = [hist_of(chunk).to_partial() for chunk in chunks]
        random.Random(seed).shuffle(partials)
        folded = LogHistogram()
        for blob in partials:
            folded.merge_partial(blob)
        assert folded == single
        assert folded.to_partial() == single.to_partial()

    def test_sixteen_node_fold_bit_identical(self):
        """The ISSUE acceptance gate: 16 node partials fold to the same
        bytes as the single-process histogram, in any tree shape."""
        rng = np.random.default_rng(0)
        values = rng.lognormal(-5.0, 1.5, 16 * 200)  # latency-like
        single = hist_of(values)
        partials = [hist_of(values[i * 200:(i + 1) * 200]).to_partial()
                    for i in range(16)]
        # Linear fold, reversed fold, and pairwise-tree fold.
        for order in (partials, partials[::-1]):
            linear = LogHistogram()
            for blob in order:
                linear.merge_partial(blob)
            assert linear.to_partial() == single.to_partial()
        tier = [LogHistogram.from_partial(blob) for blob in partials]
        while len(tier) > 1:
            tier = [tier[i].merge(tier[i + 1]) for i in range(0, len(tier), 2)]
        assert tier[0].to_partial() == single.to_partial()

    def test_partial_round_trip(self):
        h = hist_of([0.0, 0.25, 7.5, -3.0, 1e-5])
        assert LogHistogram.from_partial(h.to_partial()) == h
        assert LogHistogram.from_dict(h.to_dict()) == h

    @given(values=st.lists(st.floats(min_value=1e-6, max_value=1e6,
                                     allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=200),
           q=st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_quantile_error_bound(self, values, q):
        """Estimates stay within the documented relative error of the
        exact rank statistic (numpy's ``inverted_cdf`` percentile)."""
        h = hist_of(values)
        estimate = h.quantile(q)
        exact = float(np.percentile(values, q * 100, method="inverted_cdf"))
        bound = h.relative_error_bound  # 2**(1/(2S)) - 1 ~ 4.4% at S=8
        assert abs(estimate - exact) <= bound * exact + 1e-12

    def test_quantile_clamped_to_min_max(self):
        h = hist_of([2.0, 3.0, 1000.0])
        assert h.quantile(0.0) >= h.min
        assert h.quantile(1.0) <= h.max

    def test_error_bound_value_documented(self):
        # The module docstring promises ~4.4% at the default S=8.
        assert LogHistogram().relative_error_bound == \
            pytest.approx(2 ** (1 / 16) - 1)
        assert LogHistogram().relative_error_bound < 0.045


# ----------------------------------------------------------------------
# Counters, gauges, registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("hits", kind="a").inc()
        reg.counter("hits", kind="a").inc(2)
        reg.gauge("depth").set(7.0)
        reg.gauge("depth").add(-2.0)
        assert reg.counter("hits", kind="a").value == 3
        assert reg.gauge("depth").value == 5.0

    def test_label_sets_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", kind="a").inc()
        reg.counter("hits", kind="b").inc(5)
        assert reg.counter("hits", kind="a").value == 1
        assert reg.counter("hits", kind="b").value == 5

    def test_type_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_dict_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("hits", kind="a").inc(3)
        reg.gauge("depth").set(1.5)
        reg.histogram("lat", route="p").observe_many([0.01, 0.02, 0.4])
        clone = MetricsRegistry.from_dict(reg.to_dict())
        assert clone.to_dict() == reg.to_dict()

    def test_merge_folds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("hits").inc(2)
        b.counter("hits").inc(5)
        a.histogram("lat").observe(0.1)
        b.histogram("lat").observe(0.2)
        a.merge(b)
        assert a.counter("hits").value == 7
        assert a.histogram("lat").count == 2


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

class TestTracer:
    def test_nesting_via_context(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert tracer.current_span() is outer
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        assert tracer.current_span() is None
        spans = tracer.spans()
        assert [s["name"] for s in spans] == ["inner", "outer"]

    def test_explicit_parent_across_threads(self):
        """Thread pools do not inherit context vars; explicit parents
        must still yield one connected trace."""
        tracer = Tracer()
        with tracer.span("root") as root:
            captured = tracer.current_span()
            results = []

            def work():
                with tracer.span("child", parent=captured) as child:
                    results.append((child.trace_id, child.parent_id))

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert results == [(root.trace_id, root.span_id)] * 4

    def test_detached_span_not_recorded_until_adopted(self):
        tracer = Tracer()
        span = tracer.span("remote", parent=None, detached=True)
        payload = span.end()
        assert tracer.spans() == []
        tracer.adopt(payload)
        assert [s["name"] for s in tracer.spans()] == ["remote"]

    def test_record_uses_explicit_duration_and_start(self):
        tracer = Tracer()
        payload = tracer.record("phase", 0.125, parent=None,
                                start_monotonic=42.0, route="batched")
        assert payload["duration_seconds"] == 0.125
        assert payload["start_monotonic"] == 42.0
        assert payload["attributes"] == {"route": "batched"}

    def test_ring_capacity_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            with tracer.span(f"s{i}", parent=None):
                pass
        assert [s["name"] for s in tracer.spans()] == ["s2", "s3", "s4"]
        assert tracer.spans_recorded == 5
        assert tracer.spans_dropped == 2

    def test_error_status_and_event(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed") as span:
                span.add_event("checkpoint", step=1)
                raise RuntimeError("boom")
        (payload,) = tracer.spans()
        assert payload["status"] == "error"
        assert "RuntimeError" in payload["attributes"]["error"]
        assert payload["events"][0]["name"] == "checkpoint"
        assert payload["events"][0]["offset_seconds"] >= 0.0

    def test_export_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", parent=None):
            with tracer.span("b"):
                pass
        path = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(str(path)) == 2
        lines = [json.loads(line)
                 for line in path.read_text().strip().splitlines()]
        assert {line["name"] for line in lines} == {"a", "b"}

    def test_tree_building_and_rendering(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            root.add_event("failover", node="n0")
            with tracer.span("leaf"):
                pass
        roots = build_trace_tree(tracer.spans())
        assert len(roots) == 1
        assert roots[0]["name"] == "root"
        assert [c["name"] for c in roots[0]["children"]] == ["leaf"]
        lines = render_trace_tree(tracer.spans())
        assert lines[0].startswith("root")
        assert "!failover" in lines[0]
        assert lines[1].startswith("  leaf")


# ----------------------------------------------------------------------
# Slow-query log, renderers
# ----------------------------------------------------------------------

class TestSlowLogAndRenderers:
    def test_slowlog_threshold(self):
        tracer = Tracer()
        log = SlowQueryLog(threshold_seconds=0.5, capacity=2)
        fast = tracer.record("query", 0.1, parent=None)
        slow = tracer.record("query", 0.9, parent=None)
        assert not log.consider(fast, tracer)
        assert log.consider(slow, tracer)
        assert SlowQueryLog().consider(slow, tracer) is False  # disabled
        (entry,) = log.entries()
        assert entry["trace_id"] == slow["trace_id"]
        assert entry["duration_seconds"] == 0.9
        assert entry["spans"]  # span tree captured from the ring

    def test_slowlog_capacity_keeps_newest(self):
        tracer = Tracer()
        log = SlowQueryLog(threshold_seconds=0.0, capacity=2)
        for i in range(4):
            log.consider(tracer.record("query", float(i), parent=None),
                         tracer)
        assert log.captured == 4
        assert [e["duration_seconds"] for e in log.entries()] == [2.0, 3.0]

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("queries_total", backend="cube").inc(4)
        reg.gauge("depth").set(2.5)
        reg.histogram("query_seconds", kind="quantile").observe_many(
            [0.01, 0.02, 0.03])
        text = render_prometheus(reg)
        assert '# TYPE repro_queries_total counter' in text
        assert 'repro_queries_total{backend="cube"} 4' in text
        assert '# TYPE repro_depth gauge' in text
        assert '# TYPE repro_query_seconds summary' in text
        assert 'quantile="0.99"' in text
        assert 'repro_query_seconds_count{kind="quantile"} 3' in text

    def test_render_json_and_load_metrics(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("hits").inc(2)
        raw = tmp_path / "metrics.json"
        raw.write_text(render_json(reg))
        snap = tmp_path / "snapshot.json"
        snap.write_text(json.dumps({"enabled": True,
                                    "metrics": reg.to_dict()}))
        for path in (raw, snap):
            loaded = MetricsRegistry.from_dict(load_metrics(str(path)))
            assert loaded.counter("hits").value == 2


# ----------------------------------------------------------------------
# Query integration: phase accounting
# ----------------------------------------------------------------------

class TestQueryIntegration:
    def test_disabled_mode_records_nothing(self, disabled_telemetry):
        service = QueryService(cube=fresh_cube())
        service.execute(QuerySpec(kind="quantile", quantiles=(0.5,)))
        assert disabled_telemetry.tracer.spans() == []
        assert len(disabled_telemetry.registry) == 0

    def test_phase_spans_equal_query_timings(self, telemetry):
        """Satellite (a): span durations and QueryTimings must agree."""
        service = QueryService(cube=fresh_cube())
        spec = QuerySpec(kind="group_by", quantiles=(0.5, 0.9),
                         group_dimension="d")
        response = service.execute(spec)
        spans = {s["name"]: s for s in telemetry.tracer.spans()}
        assert set(spans) >= {"query", "query.plan", "query.merge",
                              "query.solve"}
        timings = response.timings
        assert spans["query.plan"]["duration_seconds"] == \
            timings.planner_seconds
        assert spans["query.merge"]["duration_seconds"] == \
            timings.merge_seconds
        assert spans["query.solve"]["duration_seconds"] == \
            timings.solve_seconds
        root = spans["query"]
        for name in ("query.plan", "query.merge", "query.solve"):
            assert spans[name]["trace_id"] == root["trace_id"]
            assert spans[name]["parent_id"] == root["span_id"]
        # Group routes must report real planner time, not the old 0.0
        # default (locate + merge phases are timed inside the engines).
        assert timings.planner_seconds >= 0.0
        assert timings.merge_seconds > 0.0

    def test_query_metrics_recorded(self, telemetry):
        service = QueryService(cube=fresh_cube())
        spec = QuerySpec(kind="quantile", quantiles=(0.5,))
        service.execute_batch([spec, spec])
        reg = telemetry.registry
        hits = [(name, labels, metric.value)
                for name, labels, metric in reg.items()
                if name == "queries_total"]
        assert sum(v for _, _, v in hits) == 2
        (hist,) = [metric for name, _, metric in reg.items()
                   if name == "query_seconds"]
        assert hist.count == 2

    def test_slow_query_capture_via_runtime(self, telemetry):
        telemetry.slow_queries.threshold_seconds = 0.0
        service = QueryService(cube=fresh_cube())
        service.execute(QuerySpec(kind="quantile", quantiles=(0.5,)))
        (entry,) = telemetry.slow_queries.entries()
        assert entry["root"] == "query"
        assert {s["name"] for s in entry["spans"]} >= {"query", "query.solve"}


# ----------------------------------------------------------------------
# Cluster integration: connected trace across the pool and the wire
# ----------------------------------------------------------------------

def make_cluster(nodes=3, shards=8, replication=2):
    return ClusterCoordinator(
        dimensions=("cell",),
        aggregators={"m": MomentsSketchAggregator(k=K)},
        num_shards=shards, replication=replication, granularity=1.0,
        nodes=[f"n{i}" for i in range(nodes)])


def ingest_cluster(cluster, rows=2000, cells=10, seed=5):
    rng = np.random.default_rng(seed)
    values = rng.lognormal(1.0, 1.0, rows)
    dims = (np.arange(rows) % cells).astype(int)
    cluster.ingest(cluster.shard_ids([dims]).astype(float), [dims], values)


class TestClusterIntegration:
    @given(shards=st.integers(min_value=2, max_value=12),
           nodes=st.integers(min_value=3, max_value=4),
           kill=st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_single_connected_trace_tree(self, shards, nodes, kill):
        """ISSUE acceptance gate: broker -> surviving replicas -> solve
        forms ONE trace tree, with failovers as span events."""
        TELEMETRY.enable(reset=True)
        try:
            cluster = make_cluster(nodes=nodes, shards=shards)
            ingest_cluster(cluster)
            if kill:
                cluster.fail_node("n0", repair=False)
            service = QueryService(cluster=cluster)
            response = service.execute(
                QuerySpec(kind="quantile", quantiles=(0.5, 0.99),
                          measure="m"))
            assert response.count == 2000

            spans = TELEMETRY.tracer.spans()
            trace_ids = {s["trace_id"] for s in spans}
            assert len(trace_ids) == 1  # one connected trace
            by_id = {s["span_id"]: s for s in spans}
            by_name = {}
            for s in spans:
                by_name.setdefault(s["name"], []).append(s)
            assert set(by_name) >= {"query", "cluster.scatter",
                                    "cluster.node", "cluster.shard",
                                    "query.solve"}
            (root,) = by_name["query"]
            (scatter,) = by_name["cluster.scatter"]
            assert scatter["parent_id"] == root["span_id"]
            for node_span in by_name["cluster.node"]:
                assert node_span["parent_id"] == scatter["span_id"]
            for shard_span in by_name["cluster.shard"]:
                parent = by_id[shard_span["parent_id"]]
                assert parent["name"] == "cluster.node"
            # One span per shard that actually held data (cells hash
            # into shards, so some of the `shards` slots can be empty).
            scanned = sum(
                metric.value for name, _, metric
                in TELEMETRY.registry.items()
                if name == "cluster_shards_scanned_total")
            assert len(by_name["cluster.shard"]) == scanned
            assert 1 <= scanned <= shards
            # No orphans: every parent_id points into the same trace.
            for s in spans:
                assert s["parent_id"] is None or s["parent_id"] in by_id

            events = [e for e in scatter["events"] if e["name"] == "failover"]
            if kill:
                assert events and events[0]["node"] == "n0"
                assert events[0]["shards"] >= 1
                failovers = [metric.value for name, labels, metric
                             in TELEMETRY.registry.items()
                             if name == "cluster_failover_routes_total"]
                assert sum(failovers) >= 1
            else:
                assert not events
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()

    def test_shard_scan_histogram_folded_from_partials(self, telemetry):
        cluster = make_cluster(nodes=3, shards=8)
        ingest_cluster(cluster)
        service = QueryService(cluster=cluster)
        service.execute(QuerySpec(kind="quantile", quantiles=(0.5,),
                                  measure="m"))
        (hist,) = [metric for name, _, metric in telemetry.registry.items()
                   if name == "cluster_shard_scan_seconds"]
        scanned = sum(metric.value
                      for name, _, metric in telemetry.registry.items()
                      if name == "cluster_shards_scanned_total")
        assert hist.count == scanned >= 1  # one observation per shard scan

    def test_group_scatter_reports_partial_bytes(self, telemetry):
        cluster = make_cluster(nodes=3, shards=8)
        ingest_cluster(cluster)
        service = QueryService(cluster=cluster)
        service.execute(QuerySpec(kind="group_by", quantiles=(0.5,),
                                  measure="m", group_dimension="cell"))
        values = {labels["kind"]: metric.value
                  for name, labels, metric in telemetry.registry.items()
                  if name == "cluster_partial_bytes_total"}
        assert values.get("group", 0) > 0


# ----------------------------------------------------------------------
# Ingest + storage integration
# ----------------------------------------------------------------------

class TestIngestStorageIntegration:
    def test_ingest_flush_span_and_counters(self, telemetry):
        cube = DataCube(CubeSchema(("d",)), lambda: MomentsSummary(k=K))
        session = IngestSession(cube)
        values = np.ones(500)
        session.append_columns(values, dims=[np.arange(500) % 4])
        session.flush()
        session.close()
        reg = telemetry.registry
        rows = [metric.value for name, _, metric in reg.items()
                if name == "ingest_rows_total"]
        assert sum(rows) == 500
        flushes = [s for s in telemetry.tracer.spans()
                   if s["name"] == "ingest.flush"]
        assert flushes and flushes[0]["attributes"]["rows"] == 500

    def test_storage_spans_and_gauges(self, telemetry, tmp_path):
        with TieredStore(tmp_path / "tiers", k=K, dimensions=("cell",),
                         hot_budget_bytes=2000) as store:
            rng = np.random.default_rng(1)
            for _ in range(4):
                store.ingest_columns([np.arange(50) % 7],
                                     rng.lognormal(1.0, 1.0, 50))
            store.seal()
            store.demote(count=1, spec=ColdSpec())
        names = {s["name"] for s in telemetry.tracer.spans()}
        assert "storage.seal" in names
        assert "storage.demote" in names
        gauges = {name: metric.value
                  for name, _, metric in telemetry.registry.items()
                  if isinstance(metric, Gauge)}
        assert "storage_segments" in gauges
        assert "storage_hot_budget_occupancy" in gauges
        assert "storage_compaction_debt_rows" in gauges
        counters = {name: metric.value
                    for name, _, metric in telemetry.registry.items()
                    if isinstance(metric, Counter)}
        assert counters.get("storage_seals_total", 0) >= 1
        assert counters.get("storage_demotions_total", 0) >= 1


# ----------------------------------------------------------------------
# CLI: dump / top / trace over exported artifacts
# ----------------------------------------------------------------------

def _cli(capsys, *argv):
    """Run ``repro.cli.main``; returns (exit code, trailing JSON, text)."""
    from repro.cli import main

    code = main(list(argv))
    out = capsys.readouterr().out
    start = 0 if out.startswith("{") else out.index("\n{") + 1
    return code, json.loads(out[start:]), out[:start]


class TestTelemetryCli:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        """Queries on a cube and a 2-node cluster, exported to disk."""
        TELEMETRY.enable(reset=True)
        try:
            cube = QueryService(cube=fresh_cube())
            cube.execute(QuerySpec(kind="quantile", quantiles=(0.5, 0.99)))
            cube.execute(QuerySpec(kind="group_by", quantiles=(0.9,),
                                   group_dimension="d"))
            cluster = make_cluster(nodes=2, shards=4)
            ingest_cluster(cluster)
            clustered = QueryService(cluster=cluster)
            clustered.execute(QuerySpec(kind="quantile", quantiles=(0.5,),
                                        measure="m"))
            clustered.execute(QuerySpec(kind="group_by", quantiles=(0.5,),
                                        group_dimension="cell", measure="m"))
            directory = tmp_path_factory.mktemp("telemetry")
            spans = directory / "spans.jsonl"
            assert TELEMETRY.tracer.export_jsonl(str(spans)) > 0
            metrics = directory / "metrics.json"
            metrics.write_text(render_json(TELEMETRY.registry) + "\n",
                               encoding="utf-8")
            scatter = [s for s in TELEMETRY.tracer.spans()
                       if s["name"] == "cluster.scatter"]
            series = len(TELEMETRY.registry)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        return {"spans": str(spans), "metrics": str(metrics),
                "cluster_trace": scatter[0]["trace_id"], "series": series}

    def test_dump_renders_every_series(self, artifacts, capsys):
        code, result, _ = _cli(capsys, "telemetry", "dump",
                               artifacts["metrics"])
        assert code == 0
        assert result["series"] == artifacts["series"]
        assert result["metrics"] == load_metrics(artifacts["metrics"])

    def test_top_ranks_query_latency_of_both_backends(self, artifacts,
                                                      capsys):
        code, result, _ = _cli(capsys, "telemetry", "top",
                               artifacts["metrics"], "--name",
                               "query_seconds")
        assert code == 0
        rows = result["series"]
        assert {row["labels"]["backend"] for row in rows} == \
            {"cube", "cluster"}
        assert all(row["name"] == "query_seconds" for row in rows)
        ranked = [row["p99"] for row in rows]
        assert ranked == sorted(ranked, reverse=True)

    def test_trace_renders_one_connected_tree(self, artifacts, capsys):
        code, result, text = _cli(capsys, "telemetry", "trace",
                                  artifacts["spans"], "--trace-id",
                                  artifacts["cluster_trace"])
        assert code == 0
        assert result["roots"] == 1
        lines = text.splitlines()
        assert len(lines) == result["spans"]
        assert lines[0].startswith("query ")
        names = {line.split()[0] for line in lines}
        assert names >= {"query", "cluster.scatter", "cluster.node",
                         "cluster.shard", "query.solve"}

    def test_trace_defaults_to_a_connected_tree(self, artifacts, capsys):
        code, result, _ = _cli(capsys, "telemetry", "trace",
                               artifacts["spans"])
        assert code == 0
        assert result["roots"] == 1

    def test_trace_fails_on_an_empty_export(self, tmp_path, capsys):
        empty = tmp_path / "spans.jsonl"
        empty.write_text("", encoding="utf-8")
        code, result, _ = _cli(capsys, "telemetry", "trace", str(empty))
        assert code == 1
        assert "no spans" in result["error"]

    def test_trace_fails_on_an_unknown_trace_id(self, artifacts, capsys):
        code, result, _ = _cli(capsys, "telemetry", "trace",
                               artifacts["spans"], "--trace-id", "nope")
        assert code == 1
        assert "'nope' not found" in result["error"]

    @pytest.mark.parametrize("command, flag, value", [
        ("telemetry top", "--limit", "0"), ("telemetry top", "--limit", "-1"),
        ("telemetry top", "--quantile", "1.5"),
        ("telemetry top", "--quantile", "-0.1"),
        ("optimizer advise", "--top", "0"), ("optimizer advise", "--top", "-1"),
    ])
    def test_out_of_range_arguments_are_usage_errors(self, artifacts, capsys,
                                                     command, flag, value):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([*command.split(), artifacts["metrics"], flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
