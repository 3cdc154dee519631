"""The shared cell-key kernels: one filter locate and one keyed accumulate
serve the cube, Druid, the keyed packed-store session and the tiered
store."""

import numpy as np
import pytest

from repro.api import QueryService, QuerySpec
from repro.core import grouping
from repro.core.errors import QueryError
from repro.datacube import CubeSchema, DataCube
from repro.druid import DoubleSumAggregator, DruidEngine, \
    MomentsSketchAggregator
from repro.ingest import IngestSession, IngestSpec
from repro.storage import TieredStore
from repro.storage.backends import TieredBackend
from repro.store import PackedSketchStore
from repro.summaries import MomentsSummary

DIMENSIONS = ("grid", "country")

#: Full key, partial, none, a full key and a partial value that match
#: nothing.
FILTERS = ({"grid": 2, "country": "CA"}, {"country": "US"}, {"grid": 0},
           {}, {"grid": 9, "country": "US"}, {"country": "ZZ"})


def key_scan(table, filters):
    """The reference locate: every ``(key, value)`` whose key passes."""
    positions = {DIMENSIONS.index(dim): value
                 for dim, value in filters.items()}
    return [(key, value) for key, value in table.items()
            if all(key[pos] == want for pos, want in positions.items())]


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(7)
    n = 3_000
    return (rng.uniform(0.0, 40.0, n),
            [rng.integers(0, 4, n), rng.choice(["US", "CA", "MX"], n)],
            rng.lognormal(1.0, 1.0, n))


@pytest.fixture(scope="module")
def layouts(columns, tmp_path_factory):
    """Each layout, loaded with the same rows."""
    timestamps, dims, values = columns
    cube = DataCube(CubeSchema(DIMENSIONS), lambda: MomentsSummary(k=6))
    cube.ingest(dims, values)

    store = PackedSketchStore(k=6)
    session = IngestSession(store, IngestSpec(dimensions=DIMENSIONS))
    session.append_columns(values, dims=dims)
    session.flush()
    packed = session.backend.read_target()

    tiered_store = TieredStore(tmp_path_factory.mktemp("tiered"), k=6,
                               dimensions=DIMENSIONS)
    tiered_store.ingest_columns(dims, values)
    tiered = TieredBackend(tiered_store)

    druid = DruidEngine(DIMENSIONS, {"m": MomentsSketchAggregator(k=6),
                                     "sum": DoubleSumAggregator()},
                        granularity=10.0)
    druid.ingest(timestamps, dims, values)
    return {"cube": cube, "packed": packed, "tiered": tiered, "druid": druid}


@pytest.mark.parametrize("filters", FILTERS)
def test_locate_matches_key_scan(layouts, filters):
    cube = layouts["cube"]
    assert [row for _, row in cube._matching(filters)] == \
        [row for _, row in key_scan(cube._rows, filters)]

    for name in ("packed", "tiered"):
        backend = layouts[name]
        if name == "tiered":
            backend = backend._delegate()
        table = {key: row for row, key in enumerate(backend.keys)}
        assert backend._matching(filters)[0].tolist() == \
            [row for _, row in key_scan(table, filters)]

    druid = layouts["druid"]
    states = druid._matching_states("sum", filters, None)
    expected = [cell["sum"] for segment in druid.segments.values()
                for _, cell in key_scan(segment.cells, filters)]
    assert [id(state) for state in states] == \
        [id(state) for state in expected]
    rollup = druid.packed_rollup("m", filters, None)
    rows = [row for segment in druid.segments.values()
            for _, row in key_scan(segment.packed_rows["m"], filters)]
    assert (rollup.cells_scanned if rollup else 0) == len(rows)


@pytest.mark.parametrize("name", ["cube", "packed", "tiered", "druid"])
def test_unknown_dimension_and_no_match_raise(layouts, name):
    service = QueryService(target=layouts[name])
    measure = {"measure": "m"} if name == "druid" else {}
    for filters in ({"planet": "earth"}, {"grid": 1, "planet": "earth"},
                    {"grid": 9, "country": "US"}, {"country": "ZZ"}):
        with pytest.raises(QueryError):
            service.execute(QuerySpec(kind="quantile", quantiles=(0.5,),
                                      filters=filters, **measure))


def test_full_key_locate_is_one_lookup():
    class NoScan(dict):
        def items(self):
            raise AssertionError("a full-key filter scanned the table")

    table = NoScan({(1, "US"): 0, (2, "CA"): 1})
    assert grouping.matching_items(table, {0: 2, 1: "CA"}, 2) == \
        [((2, "CA"), 1)]
    assert grouping.matching_items(table, {0: 3, 1: "CA"}, 2) == []


def test_filter_positions_in_key_order():
    assert list(grouping.filter_positions(
        DIMENSIONS, {"country": "US", "grid": 1}).items()) == \
        [(0, 1), (1, "US")]
    with pytest.raises(QueryError, match="unknown dimension 'planet'"):
        grouping.filter_positions(DIMENSIONS, {"planet": "earth"})


def test_slabbed_accumulate_matches_one_call(columns, monkeypatch):
    """A batch larger than the slab lands the bits of one unslabbed
    ``batch_accumulate``, group for group."""
    _, dims, values = columns
    reference = PackedSketchStore(k=8)
    rows: dict = {}
    row_of = grouping.first_seen_rows(reference, rows)
    order, sorted_columns, _, starts, ends = grouping.lexsort_groups(dims)
    keys = grouping.group_keys(sorted_columns, starts)
    group_rows = [row_of(key) for key in keys]
    reference.batch_accumulate(np.repeat(group_rows, ends - starts),
                               values[order])

    calls = []

    class CountingStore(PackedSketchStore):
        def batch_accumulate(self, rows, values):
            calls.append(len(values))
            super().batch_accumulate(rows, values)

    store = CountingStore(k=8)
    monkeypatch.setattr(grouping, "SLAB_VALUES", 500)
    slab_rows: dict = {}
    cells = grouping.accumulate_columns(
        store, grouping.first_seen_rows(store, slab_rows), dims, values)
    assert cells == len(keys)
    assert len(calls) > 1 and sum(calls) == values.size
    assert list(slab_rows.items()) == list(rows.items())
    assert store.to_bytes() == reference.to_bytes()
