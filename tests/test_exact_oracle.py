"""Exact-oracle differential suite: sketches vs ground truth, everywhere.

The sqlite oracle receives the identical rows every backend ingests and
answers with exact nearest-rank quantiles; every sketch estimate is then
graded by the paper's Eq. 1 rank error.  The suite cross-checks all five
aggregation systems — cube, Druid, packed store, window panes, cluster —
on a seeded synthetic dataset with Zipf-weighted (unequal) cell sizes
and on the production-shaped telemetry workload, including per-group
(grouped cells) estimates.
"""

import numpy as np
import pytest

from repro.api import PackedStoreBackend, QueryService, QuerySpec, qkey
from repro.cluster import ClusterCoordinator
from repro.datacube import CubeSchema, DataCube
from repro.datasets import load, production_columns
from repro.druid import DruidEngine, MomentsSketchAggregator
from repro.harness import ExactOracle
from repro.harness.traffic import assign_cells
from repro.ingest import IngestSession, IngestSpec
from repro.store import PackedSketchStore
from repro.summaries.moments_summary import MomentsSummary
from repro.window import build_panes

K = 10
#: Per-query rank-error contract for well-populated cells.
EPSILON = 0.05
QS = (0.1, 0.5, 0.9, 0.99)


def _ingest_all(cell_ids: np.ndarray, values: np.ndarray
                ) -> tuple[QueryService, ExactOracle, list[str]]:
    """The five backends plus the oracle, fed identical rows."""
    timestamps = cell_ids.astype(float)

    cube = DataCube(CubeSchema(("cell",)), lambda: MomentsSummary(k=K))
    cube.ingest([cell_ids], values)

    druid = DruidEngine(dimensions=("cell",),
                        aggregators={"m": MomentsSketchAggregator(k=K)},
                        granularity=1.0)
    druid.ingest(timestamps, [cell_ids], values)

    packed_store = PackedSketchStore(k=K)
    with IngestSession(packed_store,
                       IngestSpec(dimensions=("cell",),
                                  flush_rows=None)) as session:
        session.append_columns(values, dims=[cell_ids])
        session.flush()
        packed = session.backend.read_target()
    assert isinstance(packed, PackedStoreBackend)

    # The window "cells" are row-order panes over the same stream; only
    # the global roll-up is comparable (panes are not dimension cells).
    panes = build_panes(values, pane_size=max(values.size // 50, 1), k=K)

    cluster = ClusterCoordinator(
        dimensions=("cell",),
        aggregators={"m": MomentsSketchAggregator(k=K)},
        num_shards=16, replication=2, granularity=1.0,
        nodes=["n0", "n1", "n2"])
    cluster.ingest(timestamps, [cell_ids], values)

    oracle = ExactOracle("cell")
    oracle.insert(cell_ids, values)

    service = QueryService(cube=cube, druid=druid, packed=packed,
                           window=panes, cluster=cluster)
    return service, oracle, ["cube", "druid", "packed", "window", "cluster"]


@pytest.fixture(scope="module")
def synthetic():
    """Zipf-weighted cells over a continuous synthetic dataset."""
    values = np.array(load("milan", n=20_000, seed=5), dtype=float)
    cell_ids = assign_cells(values.size, 24, 1.2,
                            np.random.default_rng(11))
    return _ingest_all(cell_ids, values)


@pytest.fixture(scope="module")
def production():
    """Production-shaped workload: heavy-tailed cell sizes, integers."""
    cell_ids, values = production_columns(40, 25_000, seed=9)
    return _ingest_all(cell_ids, values)


class TestOracleExactness:
    """The oracle itself must be exact before it can grade anything."""

    def test_exact_quantile_matches_numpy_nearest_rank(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0.0, 1.0, 997)
        oracle = ExactOracle()
        oracle.insert(np.zeros(values.size, dtype=int), values)
        ordered = np.sort(values)
        for q in (0.01, 0.25, 0.5, 0.9, 0.999):
            assert oracle.exact_quantile(q) == ordered[int(q * values.size)]

    def test_rank_error_zero_at_exact_quantile(self):
        rng = np.random.default_rng(1)
        values = rng.exponential(1.0, 500)
        oracle = ExactOracle()
        oracle.insert(np.zeros(values.size, dtype=int), values)
        for q in QS:
            assert oracle.rank_error(oracle.exact_quantile(q), q) == 0.0

    def test_rank_error_zero_inside_tie_range(self):
        # 100 copies of 1.0 then 100 of 2.0: any q in (0, 0.5] has its
        # target rank inside 1.0's tie range.
        values = np.concatenate([np.ones(100), np.full(100, 2.0)])
        oracle = ExactOracle()
        oracle.insert(np.zeros(200, dtype=int), values)
        assert oracle.rank_error(1.0, 0.25) == 0.0
        assert oracle.rank_error(1.0, 0.5) == 0.0
        # ... and an estimate a whole tie-block away is maximally wrong.
        assert oracle.rank_error(2.0, 0.25) == pytest.approx(0.25)

    def test_per_cell_isolation(self):
        oracle = ExactOracle()
        oracle.insert([0] * 10 + [1] * 10,
                      list(range(10)) + list(range(100, 110)))
        assert oracle.count(0) == oracle.count(1) == 10
        assert oracle.count() == 20
        assert oracle.exact_quantile(0.5, cell=0) == 5
        assert oracle.exact_quantile(0.5, cell=1) == 105
        assert oracle.cells() == [0, 1]

    def test_threshold_margin_and_exceeds(self):
        oracle = ExactOracle()
        oracle.insert(np.zeros(100, dtype=int), np.arange(100.0))
        assert oracle.exceeds_threshold(t=50.0, q=0.9, cell=0)
        assert not oracle.exceeds_threshold(t=99.5, q=0.9, cell=0)
        # t at the exact q-rank has zero margin; far thresholds have a
        # large one.
        assert oracle.threshold_margin(90.0, 0.9, cell=0) == 0.0
        assert oracle.threshold_margin(10.0, 0.9, cell=0) > 0.5


class TestSyntheticDifferential:
    def test_global_quantiles_within_epsilon(self, synthetic):
        service, oracle, backends = synthetic
        spec = QuerySpec(kind="quantile", quantiles=QS)
        for name in backends:
            response = service.execute(spec, backend=name)
            for q in QS:
                error = oracle.rank_error(response.estimates[qkey(q)], q)
                assert error <= EPSILON, (name, q, error)

    def test_grouped_cells_within_epsilon(self, synthetic):
        service, oracle, backends = synthetic
        spec = QuerySpec(kind="group_by", quantiles=QS,
                         group_dimension="cell")
        for name in backends:
            if name == "window":  # panes are not dimension cells
                continue
            response = service.execute(spec, backend=name)
            assert len(response.groups) == 24
            for cell, estimates in response.groups.items():
                for q in QS:
                    error = oracle.rank_error(estimates[qkey(q)], q,
                                              cell=int(cell))
                    assert error <= EPSILON, (name, int(cell), q, error)

    def test_filtered_point_queries_within_epsilon(self, synthetic):
        service, oracle, backends = synthetic
        for cell in (0, 3, 23):  # hot, middling, coldest cell
            spec = QuerySpec(kind="quantile", quantiles=QS,
                             filters={"cell": cell})
            for name in backends:
                if name == "window":
                    continue
                response = service.execute(spec, backend=name)
                for q in QS:
                    error = oracle.rank_error(response.estimates[qkey(q)],
                                              q, cell=cell)
                    assert error <= EPSILON, (name, cell, q, error)

    def test_top_n_estimates_within_epsilon(self, synthetic):
        service, oracle, backends = synthetic
        spec = QuerySpec(kind="top_n", quantiles=(0.9,),
                         group_dimension="cell", n=5)
        for name in backends:
            if name == "window":
                continue
            response = service.execute(spec, backend=name)
            assert len(response.top) == 5
            for cell, estimate in response.top:
                error = oracle.rank_error(estimate, 0.9, cell=int(cell))
                assert error <= EPSILON, (name, int(cell), error)


class TestProductionDifferential:
    """Weighted (heavy-tailed) cells: the ε contract degrades gracefully.

    A cell with ``n`` rows has rank granularity ``1/n``, so tiny cells
    cannot be graded at a fixed ε; the contract checked here is
    ``rank_error <= max(EPSILON, 2/n)`` per cell — the fixed contract
    for populated cells, within two exact ranks for sparse ones.
    """

    def _cell_epsilon(self, oracle, cell) -> float:
        return max(EPSILON, 2.0 / oracle.count(int(cell)))

    def test_global_quantiles_within_epsilon(self, production):
        service, oracle, backends = production
        spec = QuerySpec(kind="quantile", quantiles=QS)
        for name in backends:
            response = service.execute(spec, backend=name)
            for q in QS:
                error = oracle.rank_error(response.estimates[qkey(q)], q)
                assert error <= EPSILON, (name, q, error)

    def test_grouped_heavy_tailed_cells(self, production):
        service, oracle, backends = production
        spec = QuerySpec(kind="group_by", quantiles=(0.5, 0.9),
                         group_dimension="cell")
        for name in backends:
            if name == "window":
                continue
            response = service.execute(spec, backend=name)
            assert len(response.groups) == 40
            for cell, estimates in response.groups.items():
                budget = self._cell_epsilon(oracle, cell)
                for q in (0.5, 0.9):
                    error = oracle.rank_error(estimates[qkey(q)], q,
                                              cell=int(cell))
                    assert error <= budget, (name, int(cell), q, error)

    def test_single_cell_answers_bit_exact_across_backends(self, production):
        # Bit-exactness holds wherever an answer is one cell's sketch
        # (the harness's query shapes): identical batches accumulate in
        # identical vectorized passes, so per-cell moments — and hence
        # estimates — match bit for bit.  Global multi-cell roll-ups
        # merge in backend-specific fold orders and only promise ε.
        service, oracle, backends = production
        for cell in (0, 7, 39):
            spec = QuerySpec(kind="quantile", quantiles=QS,
                             filters={"cell": cell}, report_moments=True)
            reference = service.execute(spec, backend="cube")
            for name in ("druid", "packed", "cluster"):
                response = service.execute(spec, backend=name)
                assert response.moments == reference.moments, (name, cell)
                assert response.estimates == reference.estimates, (name, cell)
