"""Tests for the MacroBase-style threshold-search engine."""

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.macrobase import (
    MacroBaseEngine,
    MomentsCube,
    merge12a_query,
    merge12b_query,
)


@pytest.fixture(scope="module")
def anomalous_workload():
    """Dimension value (0, 'v8') has a 20x latency tail: the planted anomaly
    every strategy must find.  The anomalous subgroup must hold well under
    1/30 of the rows — otherwise a 30x outlier-rate ratio is arithmetically
    impossible (rate * share cannot exceed the global 1%)."""
    rng = np.random.default_rng(0)
    n = 40_000
    version = rng.choice(["v7", "v8", "v9"], n, p=[0.49, 0.02, 0.49])
    hw = rng.integers(0, 8, n)
    values = rng.lognormal(1.0, 0.8, n)
    hot = version == "v8"
    values[hot] = rng.lognormal(4.0, 0.8, int(hot.sum()))
    return [version, hw], values


class TestMomentsCube:
    def test_cells_partition_rows(self, anomalous_workload):
        dims, values = anomalous_workload
        cube = MomentsCube.build(dims, values, k=10)
        assert sum(s.count for s in cube.cells.values()) == values.size
        assert cube.num_cells == len({(a, b) for a, b in zip(*dims)})


class TestMacroBaseQuery:
    def test_finds_planted_anomaly(self, anomalous_workload):
        dims, values = anomalous_workload
        engine = MacroBaseEngine(MomentsCube.build(dims, values, k=10))
        report = engine.find_outlier_groups(outlier_phi=0.99, rate_multiplier=30.0)
        flagged = {(g.dimension, g.value) for g in report.groups}
        assert (0, "v8") in flagged

    def test_does_not_flag_everything(self, anomalous_workload):
        dims, values = anomalous_workload
        engine = MacroBaseEngine(MomentsCube.build(dims, values, k=10))
        report = engine.find_outlier_groups()
        assert len(report.groups) < report.candidates_checked / 2

    def test_global_threshold_close_to_truth(self, anomalous_workload):
        dims, values = anomalous_workload
        engine = MacroBaseEngine(MomentsCube.build(dims, values, k=10))
        threshold, _, merged = engine.global_quantile(0.99)
        assert merged.count == values.size
        assert threshold == pytest.approx(np.quantile(values, 0.99), rel=0.25)

    def test_cascade_stats_populated(self, anomalous_workload):
        dims, values = anomalous_workload
        engine = MacroBaseEngine(MomentsCube.build(dims, values, k=10))
        report = engine.find_outlier_groups()
        assert report.cascade_stats is not None
        assert report.cascade_stats.queries == report.candidates_checked

    def test_invalid_rate_multiplier(self, anomalous_workload):
        dims, values = anomalous_workload
        engine = MacroBaseEngine(MomentsCube.build(dims, values, k=10))
        with pytest.raises(QueryError):
            engine.find_outlier_groups(outlier_phi=0.99, rate_multiplier=200.0)

    def test_cascade_lesion_same_answers(self, anomalous_workload):
        """Adding cascade stages must never change the reported groups."""
        dims, values = anomalous_workload
        cube = MomentsCube.build(dims, values, k=10)
        baseline = MacroBaseEngine(cube, cascade_stages=())
        full = MacroBaseEngine(cube, cascade_stages=("simple", "markov", "rtt"))
        groups_a = {(g.dimension, g.value)
                    for g in baseline.find_outlier_groups().groups}
        groups_b = {(g.dimension, g.value)
                    for g in full.find_outlier_groups().groups}
        assert groups_a == groups_b


class TestBaselines:
    def test_merge12a_finds_anomaly(self, anomalous_workload):
        dims, values = anomalous_workload
        report = merge12a_query(dims, values)
        assert (0, "v8") in {(g.dimension, g.value) for g in report.groups}

    def test_merge12b_finds_anomaly(self, anomalous_workload):
        dims, values = anomalous_workload
        report = merge12b_query(dims, values)
        assert (0, "v8") in {(g.dimension, g.value) for g in report.groups}

    def test_strategies_agree_on_flagged_set(self, anomalous_workload):
        dims, values = anomalous_workload
        engine = MacroBaseEngine(MomentsCube.build(dims, values, k=10))
        moments = {(g.dimension, g.value)
                   for g in engine.find_outlier_groups().groups}
        counts = {(g.dimension, g.value)
                  for g in merge12b_query(dims, values).groups}
        # The clearly-anomalous group agrees; borderline groups may differ
        # by estimator noise, so compare with slack.
        assert (0, "v8") in moments and (0, "v8") in counts
        assert len(moments.symmetric_difference(counts)) <= 3


def _merged_one_by_one(cube):
    """The roll-up as one copy/merge per (cell, dimension)."""
    groups = {}
    for key, sketch in cube.cells.items():
        for dim, value in enumerate(key):
            if (dim, value) in groups:
                groups[(dim, value)].merge(sketch)
            else:
                groups[(dim, value)] = sketch.copy()
    return groups


class TestDimensionGroups:
    def test_packed_rollup_equals_merging_one_by_one(self):
        # Figure 12's shape: a 500-value grid beside a 5-value country.
        rng = np.random.default_rng(3)
        n = 30_000
        dims = [rng.integers(0, 500, n),
                rng.choice(["IT", "FR", "DE", "AT", "CH"], n)]
        cube = MomentsCube.build(dims, rng.lognormal(1.0, 1.0, n), k=10)
        got = MacroBaseEngine(cube)._dimension_groups()
        want = _merged_one_by_one(cube)
        assert list(got) == list(want)  # first-seen order
        assert all(got[key].to_bytes() == want[key].to_bytes()
                   for key in want)

    def test_log_invalid_cells(self):
        """Non-positive data poisons a group's log moments either way;
        everything else is bit-identical."""
        rng = np.random.default_rng(4)
        n = 5_000
        dims = [rng.integers(0, 40, n), rng.integers(0, 3, n)]
        cube = MomentsCube.build(dims, rng.normal(3.0, 2.0, n), k=8)
        got = MacroBaseEngine(cube)._dimension_groups()
        want = _merged_one_by_one(cube)
        assert list(got) == list(want)
        assert any(not sketch.log_valid for sketch in want.values())
        for key, sketch in want.items():
            mine = got[key]
            assert (mine.count, mine.min, mine.max, mine.log_valid) \
                == (sketch.count, sketch.min, sketch.max, sketch.log_valid)
            assert np.array_equal(mine.power_sums, sketch.power_sums)
            if sketch.log_valid:
                assert np.array_equal(mine.log_sums, sketch.log_sums)
