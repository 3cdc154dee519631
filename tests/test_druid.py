"""Tests for the Druid-like engine and its aggregator plug-ins."""

import numpy as np
import pytest

from repro.api import QueryService, QuerySpec, qkey
from repro.core.errors import QueryError
from repro.core.grouping import filter_positions, lexsort_groups
from repro.druid import (
    DoubleSumAggregator,
    DruidEngine,
    MomentsSketchAggregator,
    StreamingHistogramAggregator,
    registry,
)
from repro.druid.engine import Segment
from repro.store import PackedSketchStore


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


def reference_rollup(engine, aggregator, filters=None, interval=None):
    """The two-step packed fold ``DruidEngine.packed_rollup`` replaced,
    kept as its reference: per scanned segment (insertion order) a key
    scan for the matching rows and one ``batch_merge`` over them, then
    the per-segment sketches merged left to right.  Returns ``(sketch,
    cells_scanned, segments)``, or ``None`` when no cell matches."""
    positions = filter_positions(engine.dimensions, filters)
    refs = []
    for segment in engine._scanned_segments(interval):
        store = segment.packed.get(aggregator)
        if store is None:
            continue
        matching = np.fromiter(
            (row for key, row in segment.packed_rows[aggregator].items()
             if all(key[pos] == value for pos, value in positions.items())),
            dtype=np.intp)
        if matching.size:
            refs.append((store, matching))
    if not refs:
        return None
    sketch = refs[0][0].batch_merge(refs[0][1])
    for store, rows in refs[1:]:
        sketch.merge(store.batch_merge(rows))
    return sketch, sum(rows.size for _, rows in refs), len(refs)


def reference_states(engine, aggregator, filters=None, interval=None):
    """The object route's key scan: matching states in scan order."""
    positions = filter_positions(engine.dimensions, filters)
    return [cell[aggregator]
            for segment in engine._scanned_segments(interval)
            for key, cell in segment.cells.items()
            if all(key[pos] == value for pos, value in positions.items())]


def reference_write(engine, timestamps, dims, values):
    """The per-cell write loop the keyed accumulate replaced, kept as its
    reference: per ``(chunk, key)`` group, the object states aggregate
    and each packed store gets one ``accumulate_row`` on the cell's
    row."""
    values = np.asarray(values, dtype=float)
    chunks = np.floor(np.asarray(timestamps, dtype=float)
                      / engine.granularity).astype(int)
    order, columns, chunks, starts, ends = lexsort_groups(dims,
                                                          primary=chunks)
    values = values[order]
    for start, end in zip(starts, ends):
        chunk = int(chunks[start])
        key = tuple(col[start] for col in columns)
        segment = engine.segments.setdefault(chunk, Segment(chunk=chunk))
        cell = segment.cells.get(key)
        if cell is None:
            cell = {name: factory.create()
                    for name, factory in engine.aggregators.items()
                    if name not in engine._packed_names}
            segment.cells[key] = cell
        batch = values[start:end]
        for state in cell.values():
            state.aggregate(batch)
        for name in engine._packed_names:
            store = segment.packed.get(name)
            if store is None:
                store = PackedSketchStore(k=engine.aggregators[name].k)
                segment.packed[name] = store
                segment.packed_rows[name] = {}
            rows = segment.packed_rows[name]
            row = rows.get(key)
            if row is None:
                row = store.new_row()
                rows[key] = row
            store.accumulate_row(row, batch)


def moments_payload(sketch):
    return {"count": sketch.count, "min": sketch.min, "max": sketch.max,
            "power_sums": [float(v) for v in sketch.power_sums],
            "log_sums": [float(v) for v in sketch.log_sums],
            "log_valid": bool(sketch.log_valid)}


#: Granularity 10 s.  The first write fills chunks 4..11, a later one
#: creates the older chunks 0..3, so segment insertion order is
#: 4..11, 0..3 and differs from chunk order.
ROLLUP_WRITES = ((40.0, 120.0), (0.0, 40.0))

ROLLUP_FILTERS = ({}, {"grid": 1}, {"country": "US"},
                  {"grid": 1, "country": "US"},
                  {"grid": 2, "country": "CA"},
                  {"grid": 7, "country": "US"})

#: None, partial, on chunk edges (hi on a chunk's first instant scans
#: that chunk), across the insertion-order wrap, and past every chunk.
ROLLUP_INTERVALS = (None, (45.0, 95.0), (40.0, 80.0), (40.0, 79.999),
                    (0.0, 59.0), (25.0, 115.0), (500.0, 600.0))

#: (chunk, value) of one non-positive value written into cell (1, "US"):
#: none, then in the first (4), a middle (9) and the last (3) segment
#: of a full scan.
NON_POSITIVE = (None, (4, -1.0), (9, 0.0), (3, -2.5))


def write_rollup_rows(write, rng, non_positive):
    """Feed ROLLUP_WRITES (and a non-positive value) to ``write(ts,
    dims, values)``."""
    for lo, hi in ROLLUP_WRITES:
        n = 2_000
        write(rng.uniform(lo, hi, n),
              [rng.integers(0, 3, n), rng.choice(["US", "CA"], n)],
              rng.lognormal(1.0, 1.0, n))
    if non_positive is not None:
        chunk, value = non_positive
        write(np.array([chunk * 10.0 + 5.0]),
              [np.array([1]), np.array(["US"])], np.array([value]))


class TestPackedRollupReference:
    """``packed_rollup`` is byte-identical to the two-step fold."""

    @pytest.fixture(scope="class",
                    params=[(k, bad) for k in (6, 16) for bad in NON_POSITIVE],
                    ids=lambda p: f"k{p[0]}-{p[1]}")
    def rollup_engine(self, request):
        k, bad = request.param
        engine = DruidEngine(
            dimensions=("grid", "country"),
            aggregators={"m": MomentsSketchAggregator(k=k),
                         "sum": DoubleSumAggregator()},
            granularity=10.0)
        write_rollup_rows(engine.ingest, np.random.default_rng(k), bad)
        assert list(engine.segments) == [4, 5, 6, 7, 8, 9, 10, 11,
                                         0, 1, 2, 3]
        return engine

    @pytest.mark.parametrize("filters", ROLLUP_FILTERS)
    def test_bytes_and_counts_match_reference(self, rollup_engine, filters):
        for interval in ROLLUP_INTERVALS:
            expected = reference_rollup(rollup_engine, "m", filters,
                                        interval)
            got = rollup_engine.packed_rollup("m", filters, interval)
            if expected is None:
                assert got is None
                continue
            sketch, scanned, segments = expected
            assert got.state.summary.sketch.to_bytes() == sketch.to_bytes()
            assert (got.cells_scanned, got.segments) == (scanned, segments)

    @pytest.mark.parametrize("filters", ROLLUP_FILTERS)
    def test_response_matches_reference(self, rollup_engine, filters):
        service = QueryService(druid=rollup_engine)
        for interval in ROLLUP_INTERVALS:
            spec = QuerySpec(kind="quantile", quantiles=(0.5,), measure="m",
                             filters=filters, interval=interval,
                             report_moments=True)
            expected = reference_rollup(rollup_engine, "m", filters,
                                        interval)
            if expected is None:
                with pytest.raises(QueryError, match="matched no cells"):
                    service.execute(spec)
                continue
            sketch, scanned, segments = expected
            response = service.execute(spec)
            assert response.moments == moments_payload(sketch)
            assert (response.cells_scanned, response.merges) == \
                (scanned, segments)

    def test_invalid_result_keeps_prefix_log_sums(self, rollup_engine):
        """Once a partial is log-invalid, later log sums stop adding."""
        sketch = rollup_engine.packed_rollup(
            "m", {"grid": 1, "country": "US"}, None).state.summary.sketch
        rows = [(segment.packed["m"], segment.packed_rows["m"].get((1, "US")))
                for segment in rollup_engine.segments.values()]
        valid = [bool(store.log_valid[row]) for store, row in rows
                 if row is not None]
        prefix = valid.index(False) if False in valid else len(valid)
        expected = np.zeros(sketch.k + 1)
        for store, row in [pair for pair in rows if pair[1] is not None][:prefix]:
            expected = expected + store.log_sums[row]
        assert sketch.log_valid == (prefix == len(valid))
        assert np.array_equal(sketch.log_sums, expected)

    @pytest.mark.parametrize("filters", ROLLUP_FILTERS)
    def test_object_route_keeps_state_order(self, rollup_engine, filters):
        for interval in ROLLUP_INTERVALS:
            got = rollup_engine._matching_states("sum", filters, interval)
            expected = reference_states(rollup_engine, "sum", filters,
                                        interval)
            assert [id(state) for state in got] == \
                [id(state) for state in expected]


@pytest.mark.parametrize("values", [
    ((1.0, 0.0), (2.0, -0.0), (3.0, 0.0)),
    ((1.0, -0.0), (2.0, 0.0), (3.0, -0.0)),
    ((-1.0, 0.0), (-2.0, -0.0), (-3.0, 0.0)),
    ((-1.0, -0.0), (-2.0, 0.0), (-3.0, -0.0)),
])
def test_signed_zero_extremes_match_reference(values):
    """A zero min or max keeps the sign the per-segment fold gives it."""
    engine = DruidEngine(dimensions=("cell",),
                         aggregators={"m": MomentsSketchAggregator(k=6)},
                         granularity=1.0)
    for chunk, chunk_values in enumerate(values):
        for cell in (0, 1):
            engine.ingest(np.full(2, chunk + 0.5), [np.full(2, cell)],
                          np.array(chunk_values))
    for filters in ({}, {"cell": 1}):
        sketch = engine.packed_rollup("m", filters, None).state.summary.sketch
        assert sketch.to_bytes() == \
            reference_rollup(engine, "m", filters)[0].to_bytes()


@pytest.mark.parametrize("bad", NON_POSITIVE)
def test_shard_partials_match_reference(bad):
    from repro.cluster.node import DataNode

    node = DataNode("n0", dimensions=("grid", "country"),
                    aggregators={"m": MomentsSketchAggregator(k=10)},
                    granularity=10.0)
    rng = np.random.default_rng(5)
    for shard in (0, 1):
        write_rollup_rows(
            lambda ts, dims, values, shard=shard:
                node.ingest_shard(shard, ts, dims, values),
            rng, bad)
    for filters in ROLLUP_FILTERS:
        for interval in ROLLUP_INTERVALS:
            partials = {partial.shard: partial for partial in
                        node.shard_partials("m", [0, 1], filters, interval)}
            for shard in (0, 1):
                expected = reference_rollup(node.shards[shard], "m",
                                            filters, interval)
                if expected is None:
                    assert shard not in partials
                    continue
                partial = partials[shard]
                assert partial.state.summary.sketch.to_bytes() == \
                    expected[0].to_bytes()
                assert partial.cells_scanned == expected[1]


@pytest.mark.parametrize("bad", NON_POSITIVE)
def test_keyed_write_matches_reference(bad):
    """Each chunk store's keyed accumulate lands the per-cell loop's
    bytes and row maps, over out-of-order chunks and several flushes."""
    engines = [DruidEngine(dimensions=("grid", "country"),
                           aggregators={"m": MomentsSketchAggregator(k=8),
                                        "n": MomentsSketchAggregator(k=4),
                                        "sum": DoubleSumAggregator()},
                           granularity=10.0)
               for _ in range(2)]
    for engine, write in ((engines[0], engines[0].ingest),
                          (engines[1], lambda ts, dims, values:
                           reference_write(engines[1], ts, dims, values))):
        rng = np.random.default_rng(11)
        for _ in range(3):
            write_rollup_rows(write, rng, bad)
    got, expected = engines
    assert list(got.segments) == list(expected.segments)
    for chunk, segment in got.segments.items():
        reference = expected.segments[chunk]
        assert list(segment.cells) == list(reference.cells)
        for key, cell in segment.cells.items():
            assert cell["sum"].total == reference.cells[key]["sum"].total
        for name in ("m", "n"):
            assert list(segment.packed_rows[name].items()) == \
                list(reference.packed_rows[name].items())
            assert segment.packed[name].to_bytes() == \
                reference.packed[name].to_bytes()
