"""Tests for the unified declarative ingestion API (repro.ingest)."""

import json

import numpy as np
import pytest

from repro.api import QueryService, QuerySpec, qkey
from repro.cluster import ClusterCoordinator
from repro.core.errors import BackpressureError, IngestError, QueryError
from repro.datacube import CubeSchema, DataCube
from repro.druid import DruidEngine, MomentsSketchAggregator
from repro.ingest import (BACKENDS, IngestReport, IngestSession, IngestSpec,
                          WriteBackend, WriteBuffer, WriteOutcome,
                          as_write_backend, build_target, make_batch,
                          register_write_adapter, write_columns, write_rows)
from repro.store import PackedSketchStore
from repro.summaries.moments_summary import MomentsSummary
from repro.window import StreamingWindowMonitor


@pytest.fixture()
def data():
    rng = np.random.default_rng(7)
    values = rng.lognormal(1.0, 1.0, 3000)
    dims = (np.arange(values.size) % 11).astype(int)
    return values, dims


def fresh_cube(k=8):
    return DataCube(CubeSchema(("d",)), lambda: MomentsSummary(k=k))


MOMENTS_SPEC = QuerySpec(kind="quantile", quantiles=(0.5, 0.99),
                         report_moments=True)


# ----------------------------------------------------------------------
# IngestSpec
# ----------------------------------------------------------------------

class TestIngestSpec:
    def test_json_round_trip(self):
        spec = IngestSpec(backend="cluster", dimensions=("a", "b"), k=6,
                          granularity=60.0, num_shards=8, replication=3,
                          dedup_key="load-1", flush_rows=1000,
                          flush_bytes=1 << 20)
        assert IngestSpec.from_json(spec.to_json()) == spec

    def test_defaults_omitted_from_json(self):
        assert json.loads(IngestSpec().to_json()) == {}

    def test_unknown_backend_rejected(self):
        with pytest.raises(IngestError):
            IngestSpec(backend="kafka")

    def test_unknown_field_rejected(self):
        with pytest.raises(IngestError):
            IngestSpec.from_dict({"no_such_field": 1})

    def test_invalid_values_rejected(self):
        with pytest.raises(IngestError):
            IngestSpec(flush_rows=0)
        with pytest.raises(IngestError):
            IngestSpec(granularity=-1.0)
        with pytest.raises(IngestError):
            IngestSpec(dimensions=("a", "a"))
        with pytest.raises(IngestError):
            IngestSpec(flush_rows=100, max_pending_rows=50)

    def test_sequence_stamps(self):
        assert IngestSpec().sequence_for(3) is None
        assert IngestSpec(dedup_key="x").sequence_for(3) == ("x", 3)

    def test_backend_names_cover_adapters(self):
        assert set(BACKENDS) == {"cube", "druid", "packed", "window",
                                 "cluster", "fanout", "tiered"}


# ----------------------------------------------------------------------
# WriteBuffer
# ----------------------------------------------------------------------

class TestWriteBuffer:
    def test_columnar_accumulation_and_drain(self):
        buffer = WriteBuffer()
        buffer.append([1.0, 2.0], dims=[["a", "b"]])
        buffer.append([3.0], dims=[["c"]])
        assert buffer.rows == 3
        batch = buffer.drain(sequence=("k", 0))
        assert batch.values.tolist() == [1.0, 2.0, 3.0]
        assert batch.dims[0].tolist() == ["a", "b", "c"]
        assert batch.sequence == ("k", 0)
        assert buffer.is_empty

    def test_misaligned_columns_rejected(self):
        buffer = WriteBuffer()
        with pytest.raises(IngestError):
            buffer.append([1.0, 2.0], dims=[["a"]])
        with pytest.raises(IngestError):
            buffer.append([1.0], timestamps=[0.0, 1.0])

    def test_arity_fixed_by_first_append(self):
        buffer = WriteBuffer()
        buffer.append([1.0], dims=[["a"]])
        with pytest.raises(IngestError):
            buffer.append([1.0], dims=[["a"], ["b"]])

    def test_cannot_mix_timestamped_appends(self):
        buffer = WriteBuffer()
        buffer.append([1.0], timestamps=[0.0])
        with pytest.raises(IngestError):
            buffer.append([2.0])

    def test_drain_empty_rejected(self):
        with pytest.raises(IngestError):
            WriteBuffer().drain()

    def test_nbytes_tracks_payload(self):
        buffer = WriteBuffer()
        buffer.append(np.ones(100), dims=[np.arange(100)],
                      timestamps=np.zeros(100))
        assert buffer.nbytes >= 100 * 24


# ----------------------------------------------------------------------
# Session mechanics
# ----------------------------------------------------------------------

class TestIngestSession:
    def test_row_count_trigger_micro_batches(self, data):
        values, dims = data
        session = IngestSession(fresh_cube(), flush_rows=1000)
        for start in range(0, values.size, 250):
            session.append_columns(values[start:start + 250],
                                   dims=[dims[start:start + 250]])
        report = session.close()
        assert report is None or report.trigger == "close"
        assert [r.trigger for r in session.reports[:-1]] == ["rows", "rows"]
        assert session.total_rows == values.size
        assert sum(r.rows for r in session.reports) == values.size

    def test_byte_budget_trigger(self, data):
        values, dims = data
        session = IngestSession(fresh_cube(), flush_rows=None,
                                flush_bytes=4096)
        session.append_columns(values[:1000], dims=[dims[:1000]])
        assert session.reports and session.reports[0].trigger == "bytes"

    def test_explicit_flush_and_reports(self, data):
        values, dims = data
        session = IngestSession(fresh_cube())
        session.append_columns(values, dims=[dims])
        report = session.flush()
        assert isinstance(report, IngestReport)
        assert report.rows == values.size
        assert report.cells == 11
        assert report.trigger == "explicit"
        assert report.write_seconds >= report.pack_seconds
        assert session.flush() is None  # nothing pending

    def test_append_row_objects(self):
        cube = fresh_cube()
        with IngestSession(cube) as session:
            session.append([{"d": "x", "value": 1.0},
                            {"d": "y", "value": 2.0}])
            session.append([("x", 3.0)])
        assert cube.num_cells == 2
        assert session.total_rows == 3

    def test_tuple_rows_with_timestamps(self):
        engine = DruidEngine(dimensions=("d",),
                             aggregators={"m": MomentsSketchAggregator(k=6)},
                             granularity=10.0)
        with IngestSession(engine) as session:
            session.append([(0.0, "x", 1.0), (25.0, "x", 2.0)])
        assert len(engine.segments) == 2

    def test_bad_row_shapes_rejected(self):
        session = IngestSession(fresh_cube())
        with pytest.raises(IngestError):
            session.append([("x", 1.0, 2.0, 3.0)])
        with pytest.raises(IngestError):
            session.append([{"value": 1.0}])  # missing dimension key

    def test_malformed_later_rows_rejected(self):
        # Shape problems past rows[0] must still surface as IngestError.
        session = IngestSession(fresh_cube())
        with pytest.raises(IngestError):
            session.append([{"d": "a", "value": 1.0}, {"value": 2.0}])
        with pytest.raises(IngestError):
            session.append([("a", 1.0), ("b",)])
        assert session.pending_rows == 0

    def test_infinite_values_rejected_at_flush(self):
        from repro.core.errors import SketchError
        cube = fresh_cube()
        session = IngestSession(cube)
        session.append_columns([1.0, 2.0], dims=[["x", "y"]])
        session.flush()
        session.append_columns([3.0, -np.inf], dims=[["x", "y"]])
        with pytest.raises(SketchError):
            session.flush()
        response = QueryService(cube=cube).execute(
            QuerySpec(kind="quantile", quantiles=(0.5,)))
        assert response.count == 2 and np.isfinite(response.value)

    def test_closed_session_rejects_appends(self):
        session = IngestSession(fresh_cube())
        session.close()
        with pytest.raises(IngestError):
            session.append_columns([1.0], dims=[["x"]])

    def test_backpressure_without_auto_flush(self, data):
        values, dims = data
        session = IngestSession(fresh_cube(), auto_flush=False,
                                flush_rows=None, max_pending_rows=100)
        session.append_columns(values[:80], dims=[dims[:80]])
        with pytest.raises(BackpressureError):
            session.append_columns(values[:50], dims=[dims[:50]])
        # The over-limit rows were rejected *before* buffering, so the
        # caller can flush and re-send them without double-counting.
        assert session.pending_rows == 80
        session.flush()
        session.append_columns(values[:50], dims=[dims[:50]])  # fine now
        session.close()
        assert session.total_rows == 130

    def test_spec_dimension_mismatch_rejected(self):
        with pytest.raises(IngestError):
            IngestSession(fresh_cube(), dimensions=("other",))

    def test_spec_backend_mismatch_rejected(self):
        with pytest.raises(IngestError):
            IngestSession(fresh_cube(), backend="druid")

    def test_query_service_closes_the_loop(self, data):
        values, dims = data
        session = IngestSession(fresh_cube())
        session.append_columns(values, dims=[dims])
        # query() flushes pending rows itself.
        response = session.query(MOMENTS_SPEC)
        assert response.backend == "cube"
        assert response.count == values.size

    def test_write_rows_one_shot(self):
        cube = fresh_cube()
        reports = write_rows(cube, [{"d": "x", "value": 1.0}])
        assert len(reports) == 1 and reports[0].rows == 1


# ----------------------------------------------------------------------
# Adapter registry
# ----------------------------------------------------------------------

class TestWriteAdapterRegistry:
    def test_unknown_object_rejected(self):
        with pytest.raises(IngestError):
            as_write_backend(object())

    def test_backend_passes_through(self):
        backend = as_write_backend(fresh_cube())
        assert as_write_backend(backend) is backend

    def test_registry_is_extensible(self):
        class Sink:
            pass

        class SinkBackend(WriteBackend):
            name = "sink"

            def __init__(self, sink, spec=None):
                self.sink = sink

            def write(self, batch):
                return WriteOutcome(cells=0)

            def read_target(self):
                return self.sink

        from repro.ingest.backends import WRITE_ADAPTERS
        register_write_adapter(lambda obj: isinstance(obj, Sink), SinkBackend)
        try:
            assert as_write_backend(Sink()).name == "sink"
        finally:
            WRITE_ADAPTERS.pop()

    def test_build_target_validation(self):
        with pytest.raises(IngestError):
            build_target(IngestSpec())  # no backend
        with pytest.raises(IngestError):
            build_target(IngestSpec(backend="cube"))  # no dimensions
        with pytest.raises(IngestError):
            build_target(IngestSpec(backend="window"))  # no pane policy
        cube = build_target(IngestSpec(backend="cube", dimensions=("d",)))
        assert isinstance(cube, DataCube)


# ----------------------------------------------------------------------
# Uniform boundary validation (satellite: IngestError everywhere)
# ----------------------------------------------------------------------

class TestBoundaryValidation:
    def test_druid_ingest_length_mismatch(self):
        engine = DruidEngine(dimensions=("d",),
                             aggregators={"m": MomentsSketchAggregator(k=6)})
        with pytest.raises(IngestError):
            engine.ingest(np.zeros(3), [np.array(["a", "b", "c"])],
                          np.ones(2))
        with pytest.raises(IngestError):
            engine.ingest(np.zeros(2), [np.array(["a", "b", "c"])],
                          np.ones(3))
        with pytest.raises(IngestError):
            engine.ingest(np.zeros(2), [], np.ones(2))

    def test_node_ingest_shard_length_mismatch(self):
        from repro.cluster.node import DataNode
        node = DataNode("n0", ("d",),
                        {"m": MomentsSketchAggregator(k=6)})
        with pytest.raises(IngestError):
            node.ingest_shard(0, np.zeros(2), [np.array(["a"])], np.ones(2))
        with pytest.raises(IngestError):
            node.ingest_shard(0, None, [np.array(["a"])], np.ones(1))

    def test_cube_ingest_errors_still_query_errors(self):
        # IngestError subclasses QueryError, so pre-existing callers
        # guarding ingest with `except QueryError` keep working.
        assert issubclass(IngestError, QueryError)
        cube = fresh_cube()
        with pytest.raises(QueryError):
            cube.ingest([np.array([1, 2])], np.array([1.0]))
        with pytest.raises(IngestError):
            cube.ingest([np.array([1])], np.array([]))

    def test_cluster_ingest_needs_timestamps(self):
        cluster = ClusterCoordinator(
            dimensions=("d",), aggregators={"m": MomentsSketchAggregator(k=6)},
            num_shards=4, replication=1, nodes=["n0"])
        backend = as_write_backend(cluster)
        with pytest.raises(IngestError):
            backend.write(make_batch([1.0], dims=[["a"]]))


# ----------------------------------------------------------------------
# Packed store sessions
# ----------------------------------------------------------------------

class TestPackedStoreSessions:
    def test_dimensionless_store_accumulates_one_row(self, data):
        values, _ = data
        store = PackedSketchStore(k=8)
        with IngestSession(store) as session:
            session.append_columns(values)
        assert len(store) == 1
        reference = PackedSketchStore(k=8)
        reference.append()
        reference.accumulate_row(0, values)
        assert store.power_sums[0].tolist() == reference.power_sums[0].tolist()

    def test_dimensioned_session_needs_empty_store(self, data):
        values, _ = data
        store = PackedSketchStore(k=8)
        store.accumulate_row(store.new_row(), values[:100])
        with pytest.raises(IngestError):
            IngestSession(store, dimensions=("d",))  # keyless rows exist

    def test_keyed_store_matches_packed_cube_bits(self, data):
        values, dims = data
        store = PackedSketchStore(k=8)
        spec = IngestSpec(dimensions=("d",))
        with IngestSession(store, spec) as session:
            session.append_columns(values, dims=[dims])
        cube = fresh_cube(k=8)
        cube.ingest([dims], values)
        assert len(store) == cube.num_cells
        assert np.array_equal(store.power_sums[:len(store)],
                              cube.store.power_sums[:len(store)])
        # The session's read target can answer filtered/grouped specs.
        response = session.query(QuerySpec(kind="group_by",
                                           group_dimension="d",
                                           quantiles=(0.9,)))
        assert len(response.groups) == 11


# ----------------------------------------------------------------------
# Cluster sessions: routing + idempotent replay
# ----------------------------------------------------------------------

class TestClusterIdempotency:
    @pytest.fixture()
    def cluster(self):
        return ClusterCoordinator(
            dimensions=("cell",),
            aggregators={"m": MomentsSketchAggregator(k=8)},
            num_shards=8, replication=2, granularity=1.0,
            nodes=["n0", "n1", "n2"])

    def test_replayed_batch_is_noop_on_every_replica(self, cluster, data):
        values, dims = data
        timestamps = cluster.shard_ids([dims]).astype(float)
        backend = as_write_backend(cluster)
        batch = make_batch(values, dims=[dims], timestamps=timestamps,
                           sequence=("load", 0))
        first = backend.write(batch)
        service = QueryService(cluster=cluster)
        before = service.execute(MOMENTS_SPEC)
        replay = backend.write(batch)
        after = service.execute(MOMENTS_SPEC)
        assert first.replicas > 0 and replay.replicas == 0
        assert replay.cells == 0
        assert after.moments == before.moments
        assert after.count == before.count == values.size

    def test_distinct_sequences_both_apply(self, cluster, data):
        values, dims = data
        timestamps = cluster.shard_ids([dims]).astype(float)
        session = IngestSession(cluster, dedup_key="load")
        session.append_columns(values[:1000], dims=[dims[:1000]],
                               timestamps=timestamps[:1000])
        session.flush()
        session.append_columns(values[1000:], dims=[dims[1000:]],
                               timestamps=timestamps[1000:])
        session.flush()
        assert [r.sequence for r in session.reports] == [("load", 0),
                                                         ("load", 1)]
        response = session.query(MOMENTS_SPEC)
        assert response.count == values.size

    def test_idempotency_ledger_survives_replication(self, cluster, data):
        # A replica repaired from a snapshot must also treat the old
        # batch as applied: the ledger travels in ShardSnapshot.applied.
        values, dims = data
        timestamps = cluster.shard_ids([dims]).astype(float)
        backend = as_write_backend(cluster)
        batch = make_batch(values, dims=[dims], timestamps=timestamps,
                           sequence=("load", 0))
        backend.write(batch)
        service = QueryService(cluster=cluster)
        before = service.execute(MOMENTS_SPEC)
        cluster.fail_node("n2", repair=True)  # re-replicates from snapshots
        replay = backend.write(batch)
        assert replay.replicas == 0
        assert service.execute(MOMENTS_SPEC).moments == before.moments

    def test_failed_flush_loses_nothing_and_retry_dedupes(self, data):
        values, dims = data
        cluster = ClusterCoordinator(
            dimensions=("cell",),
            aggregators={"m": MomentsSketchAggregator(k=8)},
            num_shards=8, replication=1, granularity=1.0,
            nodes=["n0", "n1"])
        timestamps = cluster.shard_ids([dims]).astype(float)
        session = IngestSession(cluster, dedup_key="retry")
        session.append_columns(values, dims=[dims], timestamps=timestamps)
        cluster.fail_node("n1", repair=False)  # some shards unroutable
        from repro.core.errors import ClusterError
        with pytest.raises(ClusterError):
            session.flush()
        # The rows are back in the buffer and no replica applied the
        # stamp (owners are resolved before any apply).
        assert session.pending_rows == values.size
        assert session.reports == []
        cluster.restore_node("n1")
        report = session.flush()
        assert report.rows == values.size
        assert report.sequence == ("retry", 0)
        response = session.query(MOMENTS_SPEC)
        assert response.count == values.size  # applied exactly once

    def test_legacy_empty_cluster_ingest_is_noop(self, cluster):
        cluster.ingest(np.array([]), [np.array([], dtype=int)],
                       np.array([]))  # zero-row poll, pre-API semantics
        assert cluster.num_cells == 0

    def test_sequenceless_writes_still_accumulate(self, cluster):
        # Legacy ClusterCoordinator.ingest carries no sequence: calling
        # it twice intentionally double-counts (pre-API behavior).
        values = np.ones(100)
        dims = np.zeros(100, dtype=int)
        timestamps = np.zeros(100)
        cluster.ingest(timestamps, [dims], values)
        cluster.ingest(timestamps, [dims], values)
        response = QueryService(cluster=cluster).execute(MOMENTS_SPEC)
        assert response.count == 200


# ----------------------------------------------------------------------
# Fan-out sessions
# ----------------------------------------------------------------------

class TestFanOut:
    def test_one_session_feeds_three_backends(self, data):
        values, dims = data
        cube = fresh_cube()
        engine = DruidEngine(dimensions=("d",),
                             aggregators={"m": MomentsSketchAggregator(k=8)},
                             granularity=1e12)
        cluster = ClusterCoordinator(
            dimensions=("d",), aggregators={"m": MomentsSketchAggregator(k=8)},
            num_shards=4, replication=2, granularity=1e12,
            nodes=["n0", "n1"])
        timestamps = np.zeros(values.size)
        with IngestSession([cube, engine, cluster]) as session:
            session.append_columns(values, dims=[dims],
                                   timestamps=timestamps)
        service = session.query_service()
        assert set(service.backends) == {"cube", "druid", "cluster"}
        responses = {name: service.execute(MOMENTS_SPEC, backend=name)
                     for name in service.backends}
        assert all(r.count == values.size for r in responses.values())
        # One segment (all timestamps in chunk 0): the cube and Druid
        # folds coincide bit for bit.  The cluster folds per-shard
        # partials — a different association of the same float adds —
        # so it agrees to relative 1e-12, not to the last ulp.
        assert responses["druid"].estimates == responses["cube"].estimates
        for key, value in responses["cube"].estimates.items():
            assert responses["cluster"].estimates[key] == pytest.approx(
                value, rel=1e-12)

    def test_fanout_arity_mismatch_rejected(self):
        two = DataCube(CubeSchema(("a", "b")), lambda: MomentsSummary(k=6))
        with pytest.raises(IngestError):
            IngestSession([fresh_cube(), two])

    def test_fanout_retry_skips_children_that_applied(self):
        # A mid-fan-out failure followed by the session's flush retry
        # must not double-count children that already took the batch.
        from repro.core.errors import ClusterError
        cube = fresh_cube()
        cluster = ClusterCoordinator(
            dimensions=("d",), aggregators={"m": MomentsSketchAggregator(k=6)},
            num_shards=4, replication=1, granularity=1.0, nodes=["n0", "n1"])
        session = IngestSession([cube, cluster], dedup_key="fan")
        values = np.arange(1.0, 11.0)
        dims = np.zeros(10, dtype=int)
        session.append_columns(values, dims=[dims],
                               timestamps=np.zeros(10))
        victim = cluster.ring.owners(cluster.shard_of_key((0,)))[0]
        cluster.fail_node(victim, repair=False)
        with pytest.raises(ClusterError):
            session.flush()  # cube applied, cluster refused
        assert session.pending_rows == 10
        cluster.restore_node(victim)
        report = session.flush()
        assert report.rows == 10
        service = session.query_service()
        counts = {name: service.execute(MOMENTS_SPEC, backend=name).count
                  for name in service.backends}
        assert counts == {"cube": 10.0, "cluster": 10.0}


# ----------------------------------------------------------------------
# Window sessions
# ----------------------------------------------------------------------

class TestWindowSessions:
    def test_session_matches_legacy_monitor(self):
        rng = np.random.default_rng(3)
        stream = rng.lognormal(1.0, 1.0, 2200)
        threshold = float(np.quantile(stream, 0.9))
        legacy = StreamingWindowMonitor(pane_size=100, window_panes=5,
                                        threshold=threshold, phi=0.95, k=8)
        legacy_alerts = legacy.ingest(stream)
        fresh = StreamingWindowMonitor(pane_size=100, window_panes=5,
                                       threshold=threshold, phi=0.95, k=8)
        with IngestSession(fresh) as session:
            session.append_columns(stream)
        report = session.reports[0]
        assert report.cells == 22  # sealed panes
        assert report.alerts == len(legacy_alerts)
        assert fresh.current_window.power_sums.tolist() \
            == legacy.current_window.power_sums.tolist()
        # The sealed panes answer QuerySpecs right after the flush.
        response = session.query(QuerySpec(kind="quantile", quantiles=(0.5,)))
        assert response.backend == "window"

    def test_query_before_any_sealed_pane_rejected(self):
        monitor = StreamingWindowMonitor(pane_size=100, window_panes=2,
                                         threshold=1.0)
        session = IngestSession(monitor)
        session.append_columns(np.ones(10))
        with pytest.raises(QueryError):
            session.query_service()


# ----------------------------------------------------------------------
# One-shot shims stay bit-exact
# ----------------------------------------------------------------------

class TestLegacyShims:
    def test_write_columns_equals_legacy_cube(self, data):
        values, dims = data
        via_shim = fresh_cube()
        via_shim.ingest([dims], values)
        via_api = fresh_cube()
        report = write_columns(via_api, values, dims=[dims])
        assert report.cells == 11
        assert np.array_equal(
            via_shim.store.power_sums[:via_shim.num_cells],
            via_api.store.power_sums[:via_api.num_cells])
