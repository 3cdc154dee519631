"""Cross-backend equivalence through one QuerySpec (the API's core promise).

The same synthetic dataset is pre-aggregated into identical 200-value
cells by four different systems — data cube, Druid engine, raw packed
store, and window panes — and queried through one unified
:class:`~repro.api.QuerySpec`.  Because every backend accumulates each
cell in a single vectorized pass and merges cells with the same strict
left fold, the merged raw moments must agree *bit for bit*, and the
estimates (solved from identical moments) must agree exactly with each
other and within tolerance of ground truth.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import QueryService, QuerySpec, qkey
from repro.cluster import ClusterCoordinator
from repro.datacube import CubeSchema, DataCube
from repro.druid import DruidEngine, MomentsSketchAggregator
from repro.ingest import IngestSession, IngestSpec, make_batch, \
    as_write_backend
from repro.store import PackedSketchStore
from repro.summaries.moments_summary import MomentsSummary
from repro.window import StreamingWindowMonitor, build_panes
from repro.workload import build_packed_cells

CELL = 200
K = 10


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    return rng.lognormal(1.0, 1.2, 20_000)


@pytest.fixture(scope="module")
def service(data):
    cell_ids = np.arange(data.size) // CELL

    cube = DataCube(CubeSchema(("cell",)), lambda: MomentsSummary(k=K))
    cube.ingest([cell_ids], data)

    # One segment (all timestamps in chunk 0) so the broker's
    # per-segment fold degenerates to the same flat left fold as the
    # other backends.
    engine = DruidEngine(dimensions=("cell",),
                         aggregators={"m": MomentsSketchAggregator(k=K)},
                         granularity=1e12)
    engine.ingest(np.zeros(data.size), [cell_ids], data)

    packed = build_packed_cells(data, cell_size=CELL, k=K)
    panes = build_panes(data, pane_size=CELL, k=K)

    return (QueryService(cube=cube, druid=engine, packed=packed.store,
                         window=panes))

BACKENDS = ("cube", "druid", "packed", "window")


class TestCrossBackendEquivalence:
    @pytest.fixture(scope="class")
    def responses(self, service):
        spec = QuerySpec(kind="quantile",
                         quantiles=(0.1, 0.5, 0.9, 0.99),
                         report_moments=True)
        return {name: service.execute(spec, backend=name)
                for name in BACKENDS}

    def test_all_backends_scan_every_cell(self, responses, data):
        for response in responses.values():
            assert response.cells_scanned == data.size // CELL
            assert response.count == data.size
            assert response.route == "packed"

    def test_merged_moments_bit_for_bit(self, responses):
        reference = responses["cube"].moments
        for name in BACKENDS:
            moments = responses[name].moments
            assert moments["count"] == reference["count"]
            assert moments["min"] == reference["min"]
            assert moments["max"] == reference["max"]
            assert moments["power_sums"] == reference["power_sums"], name
            assert moments["log_sums"] == reference["log_sums"], name
            assert moments["log_valid"] is True

    def test_estimates_identical_across_backends(self, responses):
        reference = responses["cube"].estimates
        for name in BACKENDS:
            # Identical merged moments -> identical solves, so exact
            # equality (not approx) is required.
            assert responses[name].estimates == reference, name

    def test_estimates_near_ground_truth(self, responses, data):
        for q in (0.1, 0.5, 0.9, 0.99):
            truth = np.quantile(data, q)
            assert responses["cube"].estimates[qkey(q)] == pytest.approx(
                truth, rel=0.1), q

    def test_threshold_count_agrees(self, service, data):
        t = float(np.quantile(data, 0.95))
        spec = QuerySpec(kind="threshold_count", quantiles=(0.99,),
                         thresholds=(t,))
        answers = {name: service.execute(spec, backend=name).value
                   for name in BACKENDS}
        assert len(set(answers.values())) == 1

    def test_cdf_agrees(self, service, data):
        t = float(np.quantile(data, 0.5))
        spec = QuerySpec(kind="cdf", thresholds=(t,))
        answers = {name: service.execute(spec, backend=name).estimates[qkey(t)]
                   for name in BACKENDS}
        assert len(set(answers.values())) == 1
        assert answers["cube"] == pytest.approx(0.5, abs=0.1)

    def test_group_by_agrees_between_cube_druid_packed(self, service, data):
        cell_ids = np.arange(data.size) // CELL
        keys = [(int(i),) for i in range(data.size // CELL)]
        # Rebuild the packed backend with keys so it can group.
        from repro.api import PackedStoreBackend
        from repro.workload import build_packed_cells
        packed = build_packed_cells(data, cell_size=CELL, k=K)
        service.register("packed_keyed",
                         PackedStoreBackend(packed.store, keys=keys,
                                            dimensions=("cell",)))
        spec = QuerySpec(kind="group_by", quantiles=(0.9,),
                         group_dimension="cell")
        results = {}
        for name in ("cube", "druid", "packed_keyed"):
            response = service.execute(spec, backend=name)
            results[name] = {int(k): v[qkey(0.9)]
                             for k, v in response.groups.items()}
        assert results["cube"] == results["druid"] == results["packed_keyed"]
        assert len(results["cube"]) == data.size // CELL
        assert cell_ids.max() + 1 == len(results["cube"])


class TestClusterBitExactness:
    """ClusterBackend vs DruidBackend on the same data, bit for bit.

    The broker folds per-shard partials in ascending shard order; a
    single-process engine whose time chunks coincide with the cluster's
    shards folds per-segment partials in the same order, so the two
    answers must match exactly — including after a node failure, because
    replicas are bit-identical and shard partials are replica-independent.
    """

    @pytest.fixture(scope="class")
    def pair(self, data):
        cell_ids = np.arange(data.size) // CELL
        cluster = ClusterCoordinator(
            dimensions=("cell",),
            aggregators={"m": MomentsSketchAggregator(k=K)},
            num_shards=16, replication=2, granularity=1.0,
            nodes=["n0", "n1", "n2", "n3"])
        # Shard-aligned time chunks: reference segments == cluster shards.
        timestamps = cluster.shard_ids([cell_ids]).astype(float)
        cluster.ingest(timestamps, [cell_ids], data)
        engine = DruidEngine(dimensions=("cell",),
                             aggregators={"m": MomentsSketchAggregator(k=K)},
                             granularity=1.0)
        engine.ingest(timestamps, [cell_ids], data)
        return cluster, QueryService(cluster=cluster, druid=engine)

    def test_rollup_bit_exact(self, pair, data):
        _, service = pair
        spec = QuerySpec(kind="quantile", quantiles=(0.1, 0.5, 0.9, 0.99),
                         report_moments=True)
        ours = service.execute(spec, backend="cluster")
        theirs = service.execute(spec, backend="druid")
        assert ours.moments == theirs.moments
        assert ours.estimates == theirs.estimates
        assert ours.count == theirs.count == data.size
        assert ours.route == theirs.route == "packed"

    def test_group_by_bit_exact(self, pair):
        _, service = pair
        spec = QuerySpec(kind="group_by", quantiles=(0.9,),
                         group_dimension="cell")
        assert (service.execute(spec, backend="cluster").groups
                == service.execute(spec, backend="druid").groups)

    def test_rollup_bit_exact_after_node_failure(self, pair):
        cluster, service = pair
        spec = QuerySpec(kind="quantile", quantiles=(0.5, 0.99),
                         report_moments=True)
        theirs = service.execute(spec, backend="druid")
        cluster.fail_node("n3", repair=True)
        ours = service.execute(spec, backend="cluster")
        assert ours.moments == theirs.moments
        assert ours.estimates == theirs.estimates


MOMENTS_SPEC = QuerySpec(kind="quantile", quantiles=(0.1, 0.5, 0.9, 0.99),
                         report_moments=True)


class TestIngestEquivalence:
    """IngestSession vs legacy per-layer ingest: bit-exact on all five.

    Each test feeds the identical rows, with identical batch boundaries,
    once through the legacy entry point and once through an
    :class:`~repro.ingest.IngestSession`, then asserts the unified
    QuerySpec answers — merged moments included — match bit for bit.
    (Different batch *boundaries* would re-associate float adds; the
    gate holds per batch, which is what the shims guarantee.)
    """

    def _moments(self, target) -> dict:
        payload = QueryService(t=target).execute(MOMENTS_SPEC).to_dict()
        payload.pop("timings")  # wall-clock noise; everything else is exact
        return payload

    def test_cube(self, data):
        cell_ids = np.arange(data.size) // CELL
        legacy = DataCube(CubeSchema(("cell",)), lambda: MomentsSummary(k=K))
        legacy.ingest([cell_ids], data)
        target = DataCube(CubeSchema(("cell",)), lambda: MomentsSummary(k=K))
        with IngestSession(target) as session:
            session.append_columns(data, dims=[cell_ids])
        assert self._moments(target) == self._moments(legacy)

    def test_druid(self, data):
        cell_ids = np.arange(data.size) // CELL
        timestamps = (np.arange(data.size) // 4000).astype(float)

        def engine():
            return DruidEngine(
                dimensions=("cell",),
                aggregators={"m": MomentsSketchAggregator(k=K)},
                granularity=1.0)

        legacy = engine()
        legacy.ingest(timestamps, [cell_ids], data)
        target = engine()
        with IngestSession(target) as session:
            session.append_columns(data, dims=[cell_ids],
                                   timestamps=timestamps)
        assert len(target.segments) == len(legacy.segments) == 5
        assert self._moments(target) == self._moments(legacy)

    def test_packed_store(self, data):
        legacy = PackedSketchStore(k=K)
        for start in range(0, data.size, CELL):
            legacy.accumulate_row(legacy.new_row(), data[start:start + CELL])
        target = PackedSketchStore(k=K)
        cell_ids = np.arange(data.size) // CELL
        spec = IngestSpec(dimensions=("cell",))
        with IngestSession(target, spec) as session:
            session.append_columns(data, dims=[cell_ids])
        assert len(target) == len(legacy)
        assert np.array_equal(target.power_sums[:len(target)],
                              legacy.power_sums[:len(legacy)])
        assert self._moments(target) == self._moments(legacy)

    def test_window(self, data):
        def monitor():
            return StreamingWindowMonitor(pane_size=CELL, window_panes=10,
                                          threshold=float("inf"), k=K)

        legacy = monitor()
        legacy.ingest(data)
        target = monitor()
        with IngestSession(target) as session:
            session.append_columns(data)
        assert self._moments(list(target._panes)) \
            == self._moments(list(legacy._panes))
        assert target.current_window.power_sums.tolist() \
            == legacy.current_window.power_sums.tolist()

    def test_cluster(self, data):
        cell_ids = np.arange(data.size) // CELL

        def cluster():
            return ClusterCoordinator(
                dimensions=("cell",),
                aggregators={"m": MomentsSketchAggregator(k=K)},
                num_shards=16, replication=2, granularity=1.0,
                nodes=["n0", "n1", "n2"])

        legacy = cluster()
        timestamps = legacy.shard_ids([cell_ids]).astype(float)
        legacy.ingest(timestamps, [cell_ids], data)
        target = cluster()
        with IngestSession(target, dedup_key="gate") as session:
            session.append_columns(data, dims=[cell_ids],
                                   timestamps=timestamps)
        assert self._moments(target) == self._moments(legacy)

    def test_cluster_replay_idempotent_across_replicas(self, data):
        cell_ids = np.arange(data.size) // CELL
        cluster = ClusterCoordinator(
            dimensions=("cell",),
            aggregators={"m": MomentsSketchAggregator(k=K)},
            num_shards=16, replication=2, granularity=1.0,
            nodes=["n0", "n1", "n2"])
        timestamps = cluster.shard_ids([cell_ids]).astype(float)
        backend = as_write_backend(cluster)
        batch = make_batch(data, dims=[cell_ids], timestamps=timestamps,
                           sequence=("gate", 0))
        backend.write(batch)
        before = self._moments(cluster)
        # Replay before and after a failover repair: no replica may
        # double-count, including ones rebuilt from snapshots.
        assert backend.write(batch).replicas == 0
        cluster.fail_node("n1", repair=True)
        assert backend.write(batch).replicas == 0
        assert self._moments(cluster) == before


class TestIngestEquivalenceProperties:
    """Hypothesis gate: any rows, any batch split — session == legacy."""

    values_strategy = st.lists(
        st.floats(min_value=0.01, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=4, max_size=120)

    @given(values=values_strategy, cardinality=st.integers(1, 6),
           splits=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_cube_session_matches_legacy_bitwise(self, values, cardinality,
                                                 splits):
        values = np.asarray(values, dtype=float)
        dims = (np.arange(values.size) % cardinality).astype(int)
        bounds = np.linspace(0, values.size, splits + 1).astype(int)
        legacy = DataCube(CubeSchema(("d",)), lambda: MomentsSummary(k=6))
        target = DataCube(CubeSchema(("d",)), lambda: MomentsSummary(k=6))
        session = IngestSession(target, flush_rows=None)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if lo == hi:
                continue
            legacy.ingest([dims[lo:hi]], values[lo:hi])
            session.append_columns(values[lo:hi], dims=[dims[lo:hi]])
            session.flush()
        session.close()
        assert np.array_equal(
            target.store.power_sums[:target.num_cells],
            legacy.store.power_sums[:legacy.num_cells])
        assert np.array_equal(target.store.log_sums[:target.num_cells],
                              legacy.store.log_sums[:legacy.num_cells])


class TestLowPrecisionRoundTrip:
    """Low-precision storage composes with cross-backend equivalence.

    Every backend produces bit-identical merged moments, so encoding
    them through the Appendix C LowPrecisionCodec must yield the
    *identical payload* per backend (the codec's randomized rounding is
    seeded), and the decoded sketch must sit within one quantization ulp
    of the originals everywhere.
    """

    @staticmethod
    def sketch_of(moments):
        from repro.core import MomentsSketch
        sketch = MomentsSketch(k=K, track_log=True)
        sketch.count = float(moments["count"])
        sketch.min = float(moments["min"])
        sketch.max = float(moments["max"])
        sketch.power_sums = np.asarray(moments["power_sums"], dtype=float)
        sketch.log_sums = np.asarray(moments["log_sums"], dtype=float)
        sketch.log_valid = bool(moments["log_valid"])
        return sketch

    @pytest.fixture(scope="class")
    def merged(self, service):
        spec = QuerySpec(kind="quantile", quantiles=(0.5,),
                         report_moments=True)
        return {name: self.sketch_of(
                    service.execute(spec, backend=name).moments)
                for name in BACKENDS}

    def test_identical_payload_across_backends(self, merged):
        from repro.core.encoding import LowPrecisionCodec

        def encode(sketch):
            # fresh codec per encode: the rounding RNG is stateful, so
            # only same-seed fresh instances are deterministic
            return LowPrecisionCodec(mantissa_bits=10, seed=7).encode(sketch)

        reference = encode(merged["cube"])
        for name in BACKENDS:
            assert encode(merged[name]) == reference, name

    def test_round_trip_within_one_ulp(self, merged):
        from repro.core.encoding import LowPrecisionCodec
        for name, sketch in merged.items():
            codec = LowPrecisionCodec(mantissa_bits=10, seed=7)
            restored = codec.decode(codec.encode(sketch))
            assert restored.count == sketch.count
            assert restored.min == sketch.min
            assert restored.max == sketch.max
            np.testing.assert_allclose(restored.power_sums[1:],
                                       sketch.power_sums[1:],
                                       rtol=2.0 ** -9, err_msg=name)
            np.testing.assert_allclose(restored.log_sums[1:],
                                       sketch.log_sums[1:],
                                       rtol=2.0 ** -9, err_msg=name)

    def test_decoded_sketches_estimate_identically(self, merged):
        from repro.core import estimate_quantiles
        from repro.core.encoding import LowPrecisionCodec
        def round_trip(sketch):
            codec = LowPrecisionCodec(mantissa_bits=16, seed=7)
            return codec.decode(codec.encode(sketch))

        estimates = {
            name: estimate_quantiles(round_trip(sketch), [0.5, 0.99])
            for name, sketch in merged.items()}
        reference = estimates["cube"]
        for name in BACKENDS:
            # Identical payloads decode to identical sketches, so the
            # solves must agree exactly across backends.
            np.testing.assert_array_equal(estimates[name], reference,
                                          err_msg=name)
