"""Tests for the Druid-like engine and its aggregator plug-ins."""

import numpy as np
import pytest

from repro.api import QueryService, QuerySpec, qkey
from repro.core.errors import QueryError
from repro.druid import (
    DoubleSumAggregator,
    DruidEngine,
    MomentsSketchAggregator,
    StreamingHistogramAggregator,
    registry,
)


def query(engine, measure, q=0.5, filters=None, interval=None):
    """One ``quantile`` query over ``measure`` (``sum`` ignores ``q``)."""
    return QueryService(druid=engine).execute(QuerySpec(
        kind="quantile", quantiles=(q,), measure=measure,
        filters=filters or {}, interval=interval))


def group_by(engine, measure, dimension, q=0.5):
    """Finalized ``measure`` per value of ``dimension`` (Druid groupBy)."""
    response = QueryService(druid=engine).execute(QuerySpec(
        kind="group_by", quantiles=(q,), measure=measure,
        group_dimension=dimension))
    return {value: payload[qkey(q)]
            for value, payload in response.groups.items()}


@pytest.fixture(scope="module")
def engine():
    rng = np.random.default_rng(0)
    n = 30_000
    engine = DruidEngine(
        dimensions=("grid", "country"),
        aggregators=registry(moment_orders=(10,), histogram_bins=(100,)),
        granularity=3600.0,
        processing_threads=2,
    )
    timestamps = rng.uniform(0, 48 * 3600, n)
    grid = rng.integers(0, 25, n)
    country = rng.choice(["US", "CA", "MX"], n)
    values = rng.lognormal(1.0, 1.0, n)
    engine.ingest(timestamps, [grid, country], values)
    engine._test_data = (timestamps, grid, country, values)  # type: ignore[attr-defined]
    return engine


class TestIngestion:
    def test_rollup_by_hour_and_dimensions(self, engine):
        timestamps, grid, country, values = engine._test_data
        hours = np.floor(timestamps / 3600).astype(int)
        expected = len({(h, g, c) for h, g, c in zip(hours, grid, country)})
        assert engine.num_cells == expected

    def test_segments_partition_by_chunk(self, engine):
        assert len(engine.segments) <= 48
        for chunk, segment in engine.segments.items():
            assert segment.chunk == chunk


class TestQueries:
    def test_sum_query_exact(self, engine):
        *_, values = engine._test_data
        result = query(engine, "sum")
        assert result.value == pytest.approx(values.sum(), rel=1e-9)
        assert result.cells_scanned == engine.num_cells

    def test_quantile_query_accuracy(self, engine):
        *_, values = engine._test_data
        result = query(engine, "momentsSketch@10", q=0.99)
        truth = np.quantile(values, 0.99)
        assert result.value == pytest.approx(truth, rel=0.1)

    def test_histogram_aggregator_answers(self, engine):
        *_, values = engine._test_data
        result = query(engine, "S-Hist@100", q=0.5)
        assert result.value == pytest.approx(np.quantile(values, 0.5), rel=0.2)

    def test_filtered_query(self, engine):
        timestamps, grid, country, values = engine._test_data
        result = query(engine, "sum", filters={"country": "US"})
        assert result.value == pytest.approx(values[country == "US"].sum(), rel=1e-9)

    def test_interval_query(self, engine):
        timestamps, grid, country, values = engine._test_data
        result = query(engine, "sum", interval=(0.0, 6 * 3600 - 1e-6))
        mask = timestamps < 6 * 3600
        assert result.value == pytest.approx(values[mask].sum(), rel=1e-9)

    def test_unknown_aggregator_rejected(self, engine):
        with pytest.raises(QueryError):
            query(engine, "hyperloglog")

    def test_unknown_dimension_rejected(self, engine):
        with pytest.raises(QueryError):
            query(engine, "sum", filters={"planet": "earth"})

    def test_no_matching_cells_rejected(self, engine):
        with pytest.raises(QueryError):
            query(engine, "sum", filters={"country": "ZZ"})

    def test_group_by(self, engine):
        timestamps, grid, country, values = engine._test_data
        groups = group_by(engine, "sum", "country")
        for name in np.unique(country):
            assert groups[name] == pytest.approx(values[country == name].sum(),
                                                 rel=1e-9)

    def test_single_thread_matches_threaded(self, engine):
        threaded = query(engine, "momentsSketch@10", q=0.9)
        engine.processing_threads = 1
        try:
            single = query(engine, "momentsSketch@10", q=0.9)
        finally:
            engine.processing_threads = 2
        assert single.value == pytest.approx(threaded.value, rel=1e-6)


class TestAggregatorPlugins:
    def test_registry_names(self):
        factories = registry(moment_orders=(10,), histogram_bins=(10, 100))
        assert set(factories) == {"sum", "momentsSketch@10", "S-Hist@10", "S-Hist@100"}

    def test_sum_state_merge_type_check(self):
        sum_state = DoubleSumAggregator().create()
        sketch_state = MomentsSketchAggregator(k=4).create()
        with pytest.raises(QueryError):
            sum_state.merge(sketch_state)

    def test_state_copy_isolated(self):
        state = StreamingHistogramAggregator(max_bins=10).create()
        state.aggregate(np.asarray([1.0, 2.0]))
        clone = state.copy()
        clone.aggregate(np.asarray([100.0]))
        assert state.summary.count == 2
        assert clone.summary.count == 3


class TestPackedMoments:
    @pytest.fixture(scope="class")
    def engine_pair(self):
        rng = np.random.default_rng(3)
        n = 20_000
        timestamps = rng.uniform(0, 12 * 3600, n)
        grid = rng.integers(0, 10, n)
        country = rng.choice(["US", "CA"], n)
        values = rng.lognormal(1.0, 1.0, n)
        engines = []
        for packed in (True, False):
            engine = DruidEngine(
                dimensions=("grid", "country"),
                aggregators=registry(moment_orders=(8,), histogram_bins=()),
                granularity=3600.0,
                processing_threads=1,
                packed_moments=packed,
            )
            engine.ingest(timestamps, [grid, country], values)
            engines.append(engine)
        return engines

    def test_segments_hold_packed_stores(self, engine_pair):
        packed, plain = engine_pair
        assert packed.packed_moments and not plain.packed_moments
        for segment in packed.segments.values():
            store = segment.packed["momentsSketch@8"]
            assert len(store) == segment.num_cells
            assert "momentsSketch@8" not in next(iter(segment.cells.values()))
        for segment in plain.segments.values():
            assert not segment.packed
            assert "momentsSketch@8" in next(iter(segment.cells.values()))

    def test_num_cells_agree(self, engine_pair):
        packed, plain = engine_pair
        assert packed.num_cells == plain.num_cells

    def test_query_matches_object_layout(self, engine_pair):
        packed, plain = engine_pair
        for kwargs in ({}, {"filters": {"country": "US"}},
                       {"interval": (0.0, 4 * 3600 - 1e-6)}):
            a = query(packed, "momentsSketch@8", q=0.95, **kwargs)
            b = query(plain, "momentsSketch@8", q=0.95, **kwargs)
            assert a.cells_scanned == b.cells_scanned
            assert a.value == pytest.approx(b.value, rel=1e-9)

    def test_group_by_matches_object_layout(self, engine_pair):
        packed, plain = engine_pair
        a = group_by(packed, "momentsSketch@8", "country", q=0.9)
        b = group_by(plain, "momentsSketch@8", "country", q=0.9)
        assert set(a) == set(b)
        for key in a:
            assert a[key] == pytest.approx(b[key], rel=1e-9)

    def test_packed_group_states_expose_summaries(self, engine_pair):
        packed, _ = engine_pair
        states = packed.group_states("momentsSketch@8", "country")
        for state in states.values():
            assert state.summary.sketch.count > 0

    def test_packed_query_no_match_rejected(self, engine_pair):
        packed, _ = engine_pair
        with pytest.raises(QueryError):
            query(packed, "momentsSketch@8", filters={"country": "ZZ"})

    def test_sum_path_unaffected_by_packing(self, engine_pair):
        packed, plain = engine_pair
        assert query(packed, "sum").value == pytest.approx(
            query(plain, "sum").value, rel=1e-12)
