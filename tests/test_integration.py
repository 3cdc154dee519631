"""End-to-end integration tests across the full stack.

Each test wires together several subsystems the way the paper's Section 7
deployments do: raw rows -> cube/engine -> merged sketches -> estimates /
threshold answers, checked against exact computation on the raw rows.
"""

import numpy as np
import pytest

from repro.api import QueryService, QuerySpec
from repro.core import MomentsSketch
from repro.core.cascade import ThresholdCascade
from repro.datacube import CubeSchema, DataCube
from repro.datasets import generate_cells, load
from repro.druid import DruidEngine, registry
from repro.macrobase import MacroBaseEngine, MomentsCube
from repro.summaries import MomentsSummary, SUMMARY_REGISTRY
from repro.window import TurnstileWindowProcessor, build_panes, inject_spikes
from repro.workload import PHI_GRID, build_cells, merge_cells, quantile_errors


class TestCubeToEstimatePipeline:
    @pytest.mark.parametrize("dataset_name", ["milan", "hepmass", "power"])
    def test_cube_rollup_accuracy(self, dataset_name):
        """Ingest a real-shaped dataset into a cube, roll up a filtered
        slice, and check the estimate against the exact slice quantiles."""
        rng = np.random.default_rng(0)
        values = np.asarray(load(dataset_name, 40_000))
        country = rng.choice(["US", "CA"], values.size)
        version = rng.integers(0, 5, values.size)
        cube = DataCube(CubeSchema(("country", "version")),
                        lambda: MomentsSummary(k=10))
        cube.ingest([country, version], values)
        mask = country == "US"
        merged = cube.rollup({"country": "US"})
        errors = quantile_errors(np.sort(values[mask]),
                                 merged.quantiles(PHI_GRID), PHI_GRID)
        assert float(np.mean(errors)) < 0.015

    def test_all_summaries_work_in_cube(self):
        rng = np.random.default_rng(1)
        values = rng.lognormal(1.0, 1.0, 5_000)
        dim = rng.integers(0, 10, values.size)
        for name, cls in SUMMARY_REGISTRY.items():
            cube = DataCube(CubeSchema(("d",)), cls)
            cube.ingest([dim], values)
            rolled = cube.rollup()
            assert rolled.count == values.size, name


class TestDruidEndToEnd:
    def test_quantile_vs_sum_vs_histogram(self):
        """The Figure 11 setup end to end, checking answers not timing."""
        rng = np.random.default_rng(2)
        values = np.asarray(load("milan", 30_000))
        n = values.size
        engine = DruidEngine(("grid", "country"),
                             registry(histogram_bins=(100,)),
                             granularity=3600.0)
        engine.ingest(rng.uniform(0, 24 * 3600, n),
                      [rng.integers(0, 30, n), rng.choice(["US", "CA"], n)],
                      values)
        truth = float(np.quantile(values, 0.99))
        service = QueryService(druid=engine)
        moments, histogram = (
            service.execute(QuerySpec(kind="quantile", quantiles=(0.99,),
                                      measure=measure))
            for measure in ("momentsSketch@10", "S-Hist@100"))
        assert moments.value == pytest.approx(truth, rel=0.15)
        assert histogram.value == pytest.approx(truth, rel=0.5)
        # The Figure 11 claim is about *time*: merging thousands of
        # histogram cells costs far more than merging moments sketches.
        assert moments.timings.merge_seconds < histogram.timings.merge_seconds


class TestMacroBaseEndToEnd:
    def test_cube_engine_agrees_with_raw_scan(self):
        rng = np.random.default_rng(3)
        n = 30_000
        version = rng.choice(["a", "b", "c"], n, p=[0.49, 0.02, 0.49])
        hw = rng.integers(0, 4, n)
        values = rng.lognormal(1.0, 0.8, n)
        hot = version == "b"
        values[hot] = rng.lognormal(4.0, 0.8, int(hot.sum()))

        engine = MacroBaseEngine(MomentsCube.build([version, hw], values, k=10))
        report = engine.find_outlier_groups(outlier_phi=0.99, rate_multiplier=30.0)
        flagged = {(g.dimension, g.value) for g in report.groups}

        # Raw-scan ground truth.
        t99 = np.quantile(values, 0.99)
        expected = set()
        for dim, column in enumerate([version, hw]):
            for value in np.unique(column):
                mask = column == value
                if np.mean(values[mask] > t99) > 0.3:
                    expected.add((dim, value))
        assert (0, "b") in flagged
        assert flagged.symmetric_difference(expected) == set() or \
            len(flagged.symmetric_difference(expected)) <= 2


class TestSlidingWindowEndToEnd:
    def test_turnstile_alerts_match_exact_computation(self):
        rng = np.random.default_rng(4)
        values = rng.lognormal(1.0, 1.0, 24_000)
        pane_size = 400
        values = inject_spikes(values, pane_size, list(range(20, 32)),
                               spike_value=4000.0, spike_fraction=0.1)
        panes = build_panes(values, pane_size)
        w = 12
        threshold = 1000.0
        processor = TurnstileWindowProcessor(panes, window_panes=w)
        result = processor.query(threshold=threshold, q=0.99)
        got = {a.start_pane for a in result.alerts}
        expected = set()
        for start in range(len(panes) - w + 1):
            window_values = values[start * pane_size:(start + w) * pane_size]
            if np.quantile(window_values, 0.99) > threshold:
                expected.add(start)
        # Sketch estimates may flip borderline windows; require high overlap.
        union = got | expected
        assert union
        assert len(got & expected) / len(union) > 0.8


class TestProductionWorkloadEndToEnd:
    def test_variable_cells_merge_and_estimate(self):
        cells = generate_cells(num_cells=400, seed=0, mean_cell_size=120.0)
        sketches = [MomentsSketch.from_data(cell.values, k=10) for cell in cells]
        merged = sketches[0].copy()
        for sketch in sketches[1:]:
            merged.merge(sketch)
        everything = np.concatenate([cell.values for cell in cells])
        assert merged.count == everything.size
        summary = MomentsSummary(k=10)
        summary.sketch = merged
        estimates = summary.quantiles(PHI_GRID)
        # Integer data: round like the paper does for retail (Section 6.2.3).
        errors = quantile_errors(np.sort(everything), np.round(estimates), PHI_GRID)
        assert float(np.mean(errors)) < 0.02


class TestCascadeWithinEngine:
    def test_threshold_query_consistency_on_cube(self):
        rng = np.random.default_rng(5)
        values = np.asarray(load("power", 20_000))
        dim = rng.integers(0, 15, values.size)
        cube = MomentsCube.build([dim], values, k=10)
        cascade = ThresholdCascade()
        bare = ThresholdCascade(enabled_stages=())
        t = float(np.quantile(values, 0.95))
        for sketch in cube.cells.values():
            assert (cascade.threshold(sketch, t, 0.9)
                    == bare.threshold(sketch, t, 0.9))
