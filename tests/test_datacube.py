"""Tests for the data-cube layer (ingestion, roll-up, group-by)."""

import numpy as np
import pytest

from repro.api import CubeBackend, QueryService, QuerySpec
from repro.core.errors import QueryError
from repro.datacube import CubeSchema, DataCube
from repro.summaries import ExactSummary, MomentsSummary


def group_by(cube, dimension, filters=None):
    """Merged summary per value of ``dimension`` (the cube's group scan)."""
    spec = QuerySpec(kind="group_by", group_dimension=dimension,
                     filters=filters or {})
    return CubeBackend(cube).group_rollup(spec).groups


@pytest.fixture()
def populated_cube():
    rng = np.random.default_rng(0)
    n = 20_000
    country = rng.choice(["US", "CA"], n)
    version = rng.integers(7, 9, n)
    values = rng.lognormal(1.0, 1.0, n)
    cube = DataCube(CubeSchema(("country", "version")),
                    lambda: MomentsSummary(k=8))
    cube.ingest([country, version], values)
    return cube, country, version, values


class TestSchema:
    def test_duplicate_dimensions_rejected(self):
        with pytest.raises(QueryError):
            CubeSchema(("a", "a"))

    def test_empty_dimensions_rejected(self):
        with pytest.raises(QueryError):
            CubeSchema(())

    def test_unknown_dimension_lookup(self):
        schema = CubeSchema(("a", "b"))
        with pytest.raises(QueryError):
            schema.index_of("c")


class TestIngestion:
    def test_one_cell_per_dimension_tuple(self, populated_cube):
        cube, country, version, _ = populated_cube
        expected = len({(c, v) for c, v in zip(country, version)})
        assert cube.num_cells == expected

    def test_counts_partition_the_data(self, populated_cube):
        cube, *_, values = populated_cube
        total = sum(cell.count for cell in cube.cells.values())
        assert total == values.size

    def test_column_length_mismatch_rejected(self):
        cube = DataCube(CubeSchema(("d",)), ExactSummary)
        with pytest.raises(QueryError):
            cube.ingest([np.asarray([1, 2])], np.asarray([1.0]))

    def test_wrong_column_arity_rejected(self):
        cube = DataCube(CubeSchema(("d",)), ExactSummary)
        with pytest.raises(QueryError):
            cube.ingest([np.asarray([1]), np.asarray([1])], np.asarray([1.0]))

    def test_insert_cell_merges_existing(self):
        cube = DataCube(CubeSchema(("d",)), ExactSummary)
        cube.insert_cell(("x",), ExactSummary.from_data([1.0, 2.0]))
        cube.insert_cell(("x",), ExactSummary.from_data([3.0]))
        assert cube.num_cells == 1
        assert cube.cells[("x",)].count == 3


class TestRollup:
    def test_full_rollup_matches_exact(self):
        rng = np.random.default_rng(1)
        n = 5_000
        dim = rng.integers(0, 20, n)
        values = rng.normal(0, 1, n)
        cube = DataCube(CubeSchema(("d",)), ExactSummary)
        cube.ingest([dim], values)
        rolled, profile = cube.rollup_profiled()
        assert rolled.quantile(0.5) == pytest.approx(np.quantile(values, 0.5), abs=1e-3)
        assert profile["cells_scanned"] == cube.num_cells

    def test_filtered_rollup(self, populated_cube):
        cube, country, version, values = populated_cube
        us = cube.rollup({"country": "US"})
        assert us.count == int(np.sum(country == "US"))

    def test_rollup_does_not_mutate_cells(self, populated_cube):
        cube, *_ = populated_cube
        counts_before = {k: cell.count for k, cell in cube.cells.items()}
        cube.rollup()
        assert {k: cell.count for k, cell in cube.cells.items()} == counts_before

    @pytest.mark.parametrize("backend", ["packed", "dict"])
    def test_infinite_values_rejected_cells_stay_queryable(self, backend):
        from repro.core.errors import SketchError
        cube = DataCube(CubeSchema(("d",)), lambda: MomentsSummary(k=6),
                        backend=backend)
        cube.ingest([np.array(["a", "a", "b"])], np.array([1.0, 2.0, 3.0]))
        with pytest.raises(SketchError):
            cube.ingest([np.array(["a"])], np.array([np.inf]))
        assert cube.rollup().count == 3
        assert np.isfinite(cube.rollup().quantile(0.5))

    def test_empty_filter_result_rejected(self, populated_cube):
        cube, *_ = populated_cube
        with pytest.raises(QueryError):
            cube.rollup({"country": "ZZ"})

    def test_quantile_convenience(self, populated_cube):
        cube, country, version, values = populated_cube
        estimate = QueryService(cube=cube).execute(QuerySpec(
            kind="quantile", quantiles=(0.99,),
            filters={"country": "CA"})).value
        truth = np.quantile(values[country == "CA"], 0.99)
        assert estimate == pytest.approx(truth, rel=0.15)


class TestGroupBy:
    def test_groups_cover_dimension_values(self, populated_cube):
        cube, country, version, _ = populated_cube
        groups = group_by(cube, "version")
        assert set(groups) == set(np.unique(version))

    def test_group_counts_partition(self, populated_cube):
        cube, country, version, values = populated_cube
        groups = group_by(cube, "country")
        assert sum(g.count for g in groups.values()) == values.size

    def test_group_by_with_filter(self, populated_cube):
        cube, country, version, values = populated_cube
        groups = group_by(cube, "version", {"country": "US"})
        mask = country == "US"
        for v, summary in groups.items():
            assert summary.count == int(np.sum(mask & (version == v)))


class TestPackedBackend:
    def test_auto_backend_selection(self):
        packed = DataCube(CubeSchema(("d",)), lambda: MomentsSummary(k=6))
        generic = DataCube(CubeSchema(("d",)), ExactSummary)
        assert packed.backend == "packed"
        assert generic.backend == "dict"
        assert packed.store is not None and generic.store is None

    def test_packed_backend_requires_moments(self):
        with pytest.raises(QueryError):
            DataCube(CubeSchema(("d",)), ExactSummary, backend="packed")
        with pytest.raises(QueryError):
            DataCube(CubeSchema(("d",)), ExactSummary, backend="columnar")

    def test_packed_rollup_matches_dict_backend_bitwise(self):
        rng = np.random.default_rng(5)
        n = 10_000
        country = rng.choice(["US", "CA", "MX"], n)
        version = rng.integers(0, 4, n)
        values = rng.lognormal(1.0, 1.0, n)
        factory = lambda: MomentsSummary(k=8)
        packed = DataCube(CubeSchema(("country", "version")), factory,
                          backend="packed")
        plain = DataCube(CubeSchema(("country", "version")), factory,
                         backend="dict")
        packed.ingest([country, version], values)
        plain.ingest([country, version], values)
        assert packed.num_cells == plain.num_cells
        for filters in (None, {"country": "US"},
                        {"country": "CA", "version": 2}):
            a, packed_profile = packed.rollup_profiled(filters)
            b, plain_profile = plain.rollup_profiled(filters)
            a, b = a.sketch, b.sketch
            assert a.count == b.count
            assert np.array_equal(a.power_sums, b.power_sums)
            assert np.array_equal(a.log_sums, b.log_sums)
            assert a.min == b.min and a.max == b.max
            assert packed_profile["cells_scanned"] \
                == plain_profile["cells_scanned"]

    def test_packed_group_by_matches_dict_backend(self):
        rng = np.random.default_rng(6)
        n = 5_000
        dim = rng.integers(0, 6, n)
        values = rng.lognormal(0.5, 1.0, n)
        factory = lambda: MomentsSummary(k=6)
        packed = DataCube(CubeSchema(("d",)), factory, backend="packed")
        plain = DataCube(CubeSchema(("d",)), factory, backend="dict")
        packed.ingest([dim], values)
        plain.ingest([dim], values)
        packed_groups = group_by(packed, "d")
        plain_groups = group_by(plain, "d")
        assert set(packed_groups) == set(plain_groups)
        for key in plain_groups:
            assert np.array_equal(packed_groups[key].sketch.power_sums,
                                  plain_groups[key].sketch.power_sums)

    def test_packed_insert_cell_merges_existing(self):
        cube = DataCube(CubeSchema(("d",)),
                        lambda: MomentsSummary(k=5), backend="packed")
        cube.insert_cell(("x",), MomentsSummary.from_data([1.0, 2.0], k=5))
        cube.insert_cell(("x",), MomentsSummary.from_data([3.0], k=5))
        assert cube.num_cells == 1
        assert cube.cells[("x",)].count == 3

    def test_packed_insert_cell_rejects_foreign_summary(self):
        cube = DataCube(CubeSchema(("d",)),
                        lambda: MomentsSummary(k=5), backend="packed")
        with pytest.raises(QueryError):
            cube.insert_cell(("x",), ExactSummary.from_data([1.0]))

    def test_packed_cells_view_is_read_consistent(self):
        rng = np.random.default_rng(7)
        cube = DataCube(CubeSchema(("d",)), lambda: MomentsSummary(k=5))
        cube.ingest([rng.integers(0, 3, 1000)], rng.lognormal(0, 1, 1000))
        total = sum(cell.count for cell in cube.cells.values())
        assert total == 1000
        cube.rollup()
        assert sum(cell.count for cell in cube.cells.values()) == total

    def test_packed_ingest_slabs_stay_bitwise_equal(self):
        # Many groups + a slab budget far below the batch size forces
        # multiple batch_accumulate slabs; results must stay bit-equal.
        rng = np.random.default_rng(8)
        n = 20_000
        dim = rng.integers(0, 50, n)
        values = rng.lognormal(0.5, 1.0, n)
        factory = lambda: MomentsSummary(k=6)
        packed = DataCube(CubeSchema(("d",)), factory, backend="packed")
        plain = DataCube(CubeSchema(("d",)), factory, backend="dict")
        packed.ingest([dim], values)
        plain.ingest([dim], values)
        for key, cell in plain.cells.items():
            assert np.array_equal(packed.cells[key].sketch.power_sums,
                                  cell.sketch.power_sums)

    def test_packed_cell_access_cannot_corrupt_store(self):
        cube = DataCube(CubeSchema(("d",)), lambda: MomentsSummary(k=5))
        cube.ingest([np.asarray([0, 0, 1])], np.asarray([1.0, 2.0, 3.0]))
        view = cube.cells[(0,)]
        view.accumulate([100.0])  # mutates the copy only
        assert cube.cells[(0,)].count == 2
        assert cube.rollup().count == 3
