"""Multi-query optimizer tests: the scan cache, epochs, bit-exactness.

The optimizer's whole contract is *performance without payload drift*:
every answer served from a cached scan must equal — bit for bit — what
the cold path would have produced against the same engine state.  The
tests here pit an optimizer-enabled :class:`~repro.api.QueryService`
against an uncached mirror through interleaved flushes, shard-local
cluster writes, node failover, and hypothesis-generated query/ingest
sequences, and assert exact payload equality throughout.
"""

import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import QueryService, QuerySpec
from repro.cluster import ClusterCoordinator
from repro.core.errors import QueryError
from repro.datacube import CubeSchema, DataCube
from repro.druid import MomentsSketchAggregator
from repro.ingest import IngestSession
from repro.optimizer import EPOCHS, MergeCache, Optimizer, rank_metrics
from repro.summaries.moments_summary import MomentsSummary

K = 8
CELLS = 8
ROWS = 2_000

FULL = QuerySpec(kind="quantile", quantiles=(0.1, 0.5, 0.99),
                 report_moments=True)
OTHER_Q = QuerySpec(kind="quantile", quantiles=(0.9,), report_moments=True)
GROUP = QuerySpec(kind="group_by", quantiles=(0.5,), group_dimension="cell")


def fresh_cube() -> DataCube:
    return DataCube(CubeSchema(("cell",)), lambda: MomentsSummary(k=K))


def batch(seed: int, rows: int = 400):
    rng = np.random.default_rng(seed)
    return (rng.lognormal(1.0, 1.1, rows),
            rng.integers(0, CELLS, rows))


def make_pair(seed: int = 11):
    """Two identically-loaded cubes: (optimized service+session, mirror)."""
    values, cells = batch(seed, ROWS)
    sides = []
    for _ in range(2):
        cube = fresh_cube()
        session = IngestSession(cube, auto_flush=False)
        session.append_columns(values, dims=[cells])
        session.flush()
        sides.append((cube, session))
    (cube_a, session_a), (cube_b, session_b) = sides
    optimizer = Optimizer()
    optimized = QueryService(cube=cube_a, optimizer=optimizer)
    mirror = QueryService(cube=cube_b)
    return optimized, session_a, mirror, session_b, optimizer


def assert_same_payload(response, expected):
    assert response.count == expected.count
    assert response.estimates == expected.estimates
    assert response.moments == expected.moments
    assert response.groups == expected.groups


class TestMergeCache:
    KEY = ("partial", 1, "scan")

    def test_hit_miss_and_stats(self):
        cache = MergeCache(budget_bytes=1024)
        assert cache.get(self.KEY, (0,)) is None
        cache.put(self.KEY, (0,), "value", nbytes=100)
        assert cache.get(self.KEY, (0,)) == "value"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["bytes"] == 100
        assert stats["hit_rate"] == 0.5

    def test_epoch_mismatch_drops_stale_entry(self):
        cache = MergeCache(budget_bytes=1024)
        cache.put(self.KEY, (0,), "old", nbytes=100)
        assert cache.get(self.KEY, (1,)) is None
        assert len(cache) == 0
        assert cache.stats()["stale_drops"] == 1
        assert cache.stats()["bytes"] == 0

    def test_lru_eviction_over_byte_budget(self):
        cache = MergeCache(budget_bytes=250)
        cache.put(("a",), (0,), "a", nbytes=100)
        cache.put(("b",), (0,), "b", nbytes=100)
        assert cache.get(("a",), (0,)) == "a"  # a is now MRU
        cache.put(("c",), (0,), "c", nbytes=100)
        assert cache.get(("b",), (0,)) is None  # LRU went first
        assert cache.get(("a",), (0,)) == "a"
        assert cache.get(("c",), (0,)) == "c"
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["bytes"] <= 250

    def test_oversized_entry_is_not_admitted(self):
        cache = MergeCache(budget_bytes=50)
        cache.put(self.KEY, (0,), "huge", nbytes=1000)
        assert len(cache) == 0
        assert cache.get(self.KEY, (0,)) is None

    def test_replacement_reaccounts_bytes(self):
        cache = MergeCache(budget_bytes=1024)
        cache.put(self.KEY, (0,), "v1", nbytes=100)
        cache.put(self.KEY, (1,), "v2", nbytes=300)
        assert cache.stats()["bytes"] == 300
        assert cache.get(self.KEY, (1,)) == "v2"

    def test_clear(self):
        cache = MergeCache(budget_bytes=1024)
        cache.put(self.KEY, (0,), "v", nbytes=100)
        cache.clear()
        assert len(cache) == 0 and cache.stats()["bytes"] == 0


class TestFlushEpochs:
    def test_token_stable_per_object(self):
        EPOCHS.reset()
        cube = fresh_cube()
        other = fresh_cube()
        assert EPOCHS.token(cube) == EPOCHS.token(cube)
        assert EPOCHS.token(cube) != EPOCHS.token(other)

    def test_bump_advances_only_its_engine(self):
        EPOCHS.reset()
        cube = fresh_cube()
        other = fresh_cube()
        assert EPOCHS.epoch(cube) == 0
        EPOCHS.bump(cube)
        assert EPOCHS.epoch(cube) == 1
        assert EPOCHS.epoch(other) == 0

    def test_shard_epochs_are_independent(self):
        EPOCHS.reset()
        cube = fresh_cube()
        EPOCHS.bump_shards(cube, [3, 5])
        EPOCHS.bump_shards(cube, [5])
        assert EPOCHS.epoch_vector(cube, [2, 3, 5]) == (0, 1, 2)
        assert EPOCHS.shard_epoch(cube, 5) == 2
        # The whole-engine counter is a separate clock.
        assert EPOCHS.epoch(cube) == 0

    def test_counters_released_when_engine_is_collected(self):
        EPOCHS.reset()

        class Engine:
            pass

        engine = Engine()
        token = EPOCHS.token(engine)
        EPOCHS.bump(engine)
        EPOCHS.bump_shards(engine, [1])
        del engine
        gc.collect()
        assert token not in EPOCHS._epochs
        assert not EPOCHS._tokens
        assert not EPOCHS._shard_epochs


class TestResponseAndPartialTiers:
    def test_repeat_query_served_from_response_cache_bit_exact(self):
        optimized, _, mirror, _, optimizer = make_pair()
        cold = optimized.execute(FULL)
        expected = mirror.execute(FULL)
        assert_same_payload(cold, expected)
        hit = optimized.execute(FULL)
        assert hit.timings.solve_route == "cached"
        assert hit.shared_scan is True
        assert_same_payload(hit, expected)
        assert optimizer.cache.stats()["hits"] >= 1

    def test_different_quantiles_share_the_scan(self):
        optimized, _, mirror, _, _ = make_pair()
        optimized.execute(FULL)
        other = optimized.execute(OTHER_Q)
        # Same scan signature, different quantiles: the cached scan's
        # summary still holds the fit the first query made, so neither
        # the merge nor the fit runs again.
        assert other.timings.solve_route == "cached"
        assert other.shared_scan is True
        assert other.timings.merge_seconds == 0.0
        assert_same_payload(other, mirror.execute(OTHER_Q))

    def test_batch_report_counts_cross_batch_cache_hits(self):
        optimized, _, _, _, _ = make_pair()
        specs = [FULL, OTHER_Q]
        optimized.execute_batch(specs)
        first = optimized.last_batch_report
        optimized.execute_batch(specs)
        second = optimized.last_batch_report
        assert first.cache_hits == 0
        assert second.cache_hits == len(specs)

    def test_unknown_backend_name_raises_query_error(self):
        optimized, _, _, _, _ = make_pair()
        with pytest.raises(QueryError):
            optimized.backend("mongodb")


class TestEpochInvalidation:
    def test_interleaved_flushes_stay_bit_exact(self):
        optimized, session_a, mirror, session_b, _ = make_pair()
        previous_count = None
        for round_index in range(3):
            expected = mirror.execute(FULL)
            response = optimized.execute(FULL)
            assert_same_payload(response, expected)
            if previous_count is not None:
                # The post-flush answer reflects the new rows — the
                # stale cached payload was dropped, not served.
                assert response.count > previous_count
            previous_count = response.count
            again = optimized.execute(FULL)
            assert again.timings.solve_route == "cached"
            assert_same_payload(again, expected)
            values, cells = batch(100 + round_index)
            for session in (session_a, session_b):
                session.append_columns(values, dims=[cells])
                session.flush()
        assert_same_payload(optimized.execute(FULL), mirror.execute(FULL))

    def test_filtered_and_group_scans_invalidate_too(self):
        optimized, session_a, mirror, session_b, _ = make_pair()
        point = QuerySpec(kind="quantile", quantiles=(0.5,),
                          filters={"cell": 3}, report_moments=True)
        for spec in (point, GROUP):
            optimized.execute(spec)
            optimized.execute(spec)
        values, cells = batch(200)
        for session in (session_a, session_b):
            session.append_columns(values, dims=[cells])
            session.flush()
        for spec in (point, GROUP):
            assert_same_payload(optimized.execute(spec),
                                mirror.execute(spec))


GROUP_THRESHOLD = QuerySpec(kind="threshold_count", quantiles=(0.9,),
                            thresholds=(4.0, 9.0), group_dimension="cell")
MAXENT = QuerySpec(kind="quantile", quantiles=(0.25, 0.75),
                   estimator="maxent", report_moments=True)

QUERY_POOL = (
    FULL,
    OTHER_Q,
    QuerySpec(kind="quantile", quantiles=(0.5,), filters={"cell": 1},
              report_moments=True),
    GROUP,
    QuerySpec(kind="top_n", quantiles=(0.9,), group_dimension="cell", n=3),
    QuerySpec(kind="cdf", thresholds=(2.0, 8.0)),
    GROUP_THRESHOLD,
    MAXENT,
)


class TestPayloadInvarianceProperties:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16),
           ops=st.lists(st.integers(0, len(QUERY_POOL)),
                        min_size=4, max_size=14))
    def test_cache_state_never_changes_any_payload(self, seed, ops):
        """Random query/ingest interleavings: optimizer == mirror, always.

        Op ``len(QUERY_POOL)`` is an ingest flush; every other op indexes
        the query pool.  Whatever hit/miss/eviction/invalidation sequence
        the draw produces, each response must equal the uncached mirror's
        answer against the identical engine state.
        """
        optimized, session_a, mirror, session_b, _ = make_pair(seed=seed)
        flushes = 0
        for op in ops:
            if op == len(QUERY_POOL):
                flushes += 1
                values, cells = batch(seed + flushes, rows=150)
                for session in (session_a, session_b):
                    session.append_columns(values, dims=[cells])
                    session.flush()
                continue
            spec = QUERY_POOL[op]
            assert_same_payload(optimized.execute(spec),
                                mirror.execute(spec))


class TestClusterPerShardInvalidation:
    NODES = ["n0", "n1", "n2"]

    @pytest.fixture()
    def cluster(self):
        coordinator = ClusterCoordinator(
            dimensions=("cell",),
            aggregators={"m": MomentsSketchAggregator(k=K)},
            num_shards=16, replication=2, granularity=1.0,
            nodes=list(self.NODES))
        values, cells = batch(5, ROWS)
        session = IngestSession(coordinator, auto_flush=False)
        session.append_columns(values, dims=[cells],
                               timestamps=np.zeros(values.size))
        session.flush()
        return coordinator, session

    @staticmethod
    def _two_cells_on_distinct_shards(coordinator):
        base = coordinator.shard_of_key((0,))
        for value in range(1, CELLS):
            if coordinator.shard_of_key((value,)) != base:
                return 0, value
        raise AssertionError("all cells hash to one shard")

    def test_writes_invalidate_only_their_shard(self, cluster):
        coordinator, session = cluster
        optimized = QueryService(cluster=coordinator, optimizer=Optimizer())
        mirror = QueryService(cluster=coordinator)
        cell_a, cell_b = self._two_cells_on_distinct_shards(coordinator)
        point = QuerySpec(kind="quantile", quantiles=(0.5,),
                          filters={"cell": cell_a}, report_moments=True)
        optimized.execute(point)
        assert optimized.execute(point).timings.solve_route == "cached"

        # A write that only lands on cell_b's shard leaves cell_a's
        # point query cached.
        rows = np.full(64, float(cell_b))
        session.append_columns(np.abs(rows) + 1.0,
                               dims=[np.full(64, cell_b, dtype=np.int64)],
                               timestamps=np.zeros(64))
        session.flush()
        kept = optimized.execute(point)
        assert kept.timings.solve_route == "cached"
        assert_same_payload(kept, mirror.execute(point))

        # A write to cell_a's own shard invalidates it; the fresh answer
        # matches the uncached mirror (and sees the new rows).
        session.append_columns(np.full(64, 2.5),
                               dims=[np.full(64, cell_a, dtype=np.int64)],
                               timestamps=np.zeros(64))
        session.flush()
        fresh = optimized.execute(point)
        assert fresh.timings.solve_route != "cached"
        assert fresh.count == kept.count + 64
        assert_same_payload(fresh, mirror.execute(point))

    def test_failover_keeps_the_cache_and_the_payload(self, cluster):
        coordinator, _ = cluster
        optimized = QueryService(cluster=coordinator, optimizer=Optimizer())
        mirror = QueryService(cluster=coordinator)
        before = optimized.execute(FULL)
        coordinator.fail_node(self.NODES[-1], repair=True)
        after = optimized.execute(FULL)
        # Repair moves bit-exact replicas, not new data: no epoch bump,
        # the cached payload stays valid and identical.
        assert after.timings.solve_route == "cached"
        assert_same_payload(after, before)
        assert_same_payload(after, mirror.execute(FULL))


class TestScanTierReusesFits:
    @staticmethod
    def count_newton(monkeypatch) -> list:
        """Record every Newton solve, one-row and stacked alike."""
        from repro.core import batch_solver, solver

        calls: list = []
        original = solver._newton

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "_newton", counting)
        monkeypatch.setattr(batch_solver, "_newton", counting)
        return calls

    def test_repeated_group_by_runs_no_fit(self, monkeypatch):
        optimized, _, mirror, _, _ = make_pair()
        calls = self.count_newton(monkeypatch)
        cold = optimized.execute(GROUP)
        assert calls and cold.timings.solve_route == "batched"
        calls.clear()
        hit = optimized.execute(GROUP)
        assert not calls
        assert hit.timings.solve_route == "cached"
        assert hit.timings.solve_calls == 0
        assert hit.timings.merge_seconds == 0.0
        assert_same_payload(hit, mirror.execute(GROUP))
        # top_n ranks through the same fits the group_by seeded.
        calls.clear()
        top = QuerySpec(kind="top_n", quantiles=(0.9,),
                        group_dimension="cell", n=3)
        ranked = optimized.execute(top)
        assert not calls
        assert ranked.top == mirror.execute(top).top

    def test_bounds_and_maxent_hits_still_compute(self):
        optimized, _, mirror, _, _ = make_pair()
        for spec in (GROUP_THRESHOLD, MAXENT):
            optimized.execute(spec)
            hit = optimized.execute(spec)
            assert hit.shared_scan is True
            assert hit.timings.merge_seconds == 0.0
            assert hit.timings.solve_route != "cached"
            assert_same_payload(hit, mirror.execute(spec))

    def test_stats_snapshot_is_json_safe(self):
        optimized, _, _, _, optimizer = make_pair()
        optimized.execute(GROUP)
        optimized.execute(GROUP)
        payload = json.loads(json.dumps(optimizer.stats()))
        assert payload["cache"]["hits"] == 1
        assert payload["cache"]["entries"] == 1


class TestOfflineAdvice:
    METRICS = {"counters": [
        {"name": "scan_signature_hits_total",
         "labels": {"backend": "cube", "route": "response"}, "value": 7},
        {"name": "scan_signature_misses_total",
         "labels": {"backend": "cube", "route": "cold"}, "value": 3},
    ]}

    def test_rank_metrics_reads_scan_signature_counters(self):
        advice = rank_metrics(self.METRICS)
        assert advice[0]["backend"] == "cube"
        assert advice[0]["hit_rate"] == pytest.approx(0.7)
        assert "enable the optimizer" in advice[0]["action"]

    def test_cli_advise_and_stats(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(self.METRICS), encoding="utf-8")
        assert main(["optimizer", "advise", str(metrics)]) == 0
        advice = json.loads(capsys.readouterr().out)
        assert advice["advice"][0]["backend"] == "cube"
        assert advice["advice"][0]["shared_or_cached"] == 7

        optimized, _, _, _, optimizer = make_pair()
        optimized.execute(GROUP)
        optimized.execute(GROUP)
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(optimizer.stats(), default=float),
                         encoding="utf-8")
        assert main(["optimizer", "stats", str(stats)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["optimizer"]["cache"]["hits"] >= 1

        # Each command refuses the other's document.
        assert main(["optimizer", "advise", str(stats)]) == 1
        assert main(["optimizer", "stats", str(metrics)]) == 1
        capsys.readouterr()
