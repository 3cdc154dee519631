"""Tests for the threshold-query cascade (Algorithm 2)."""

import numpy as np
import pytest

from repro.core import MomentsSketch, fit_estimators
from repro.core.cascade import STAGES, CascadeStats, ThresholdCascade
from repro.core.quantile import QuantileEstimator


@pytest.fixture(scope="module")
def sketch():
    rng = np.random.default_rng(0)
    return MomentsSketch.from_data(rng.lognormal(1.0, 1.0, 30_000), k=10)


class TestThresholdCorrectness:
    def test_consistent_with_direct_estimate(self, sketch):
        """Section 5.2's guarantee: the cascade answers exactly as the
        max-entropy estimate would, for every threshold position."""
        estimator = QuantileEstimator.fit(sketch)
        cascade = ThresholdCascade()
        phi = 0.9
        q = estimator.quantile(phi)
        for t in np.linspace(sketch.min - 1, sketch.max + 1, 60):
            expected = q > t
            assert cascade.threshold(sketch, float(t), phi) == expected, f"t={t}"

    def test_extreme_thresholds_short_circuit(self, sketch):
        cascade = ThresholdCascade()
        low = cascade.evaluate(sketch, sketch.min - 10.0, 0.5)
        assert low.result is True and low.stage == "simple"
        high = cascade.evaluate(sketch, sketch.max + 10.0, 0.5)
        assert high.result is False and high.stage == "simple"

    def test_threshold_at_max_is_false(self, sketch):
        # q_phi can never exceed the maximum.
        cascade = ThresholdCascade()
        outcome = cascade.evaluate(sketch, sketch.max, 0.99)
        assert outcome.result is False and outcome.stage == "simple"

    @pytest.mark.parametrize("phi", [0.5, 0.9, 0.99])
    def test_stage_subsets_agree(self, sketch, phi):
        """Disabling stages changes cost, never answers."""
        full = ThresholdCascade()
        markov_only = ThresholdCascade(enabled_stages=("simple", "markov"))
        bare = ThresholdCascade(enabled_stages=())
        for t in np.quantile(np.asarray([sketch.min, sketch.max]), [0.0, 1.0]).tolist() \
                + [sketch.min * 2, sketch.max / 4, sketch.max / 2]:
            answers = {full.threshold(sketch, float(t), phi),
                       markov_only.threshold(sketch, float(t), phi),
                       bare.threshold(sketch, float(t), phi)}
            assert len(answers) == 1, f"t={t}"


class TestStageProgression:
    def test_easy_query_resolved_before_maxent(self, sketch):
        cascade = ThresholdCascade()
        # Threshold near the median vs phi=0.99: bounds decide instantly.
        outcome = cascade.evaluate(sketch, float(np.exp(1.0)), 0.99)
        assert outcome.stage in ("markov", "rtt")

    def test_hard_query_reaches_maxent(self, sketch):
        cascade = ThresholdCascade()
        estimator = QuantileEstimator.fit(sketch)
        q99 = estimator.quantile(0.99)
        outcome = cascade.evaluate(sketch, q99 * 0.999, 0.99)
        assert outcome.stage == "maxent"

    @pytest.mark.parametrize("stages", [(), ("simple",),
                                        ("simple", "markov", "rtt")],
                             ids=["none", "simple", "full"])
    def test_nan_threshold_rejected_for_every_stage_set(self, sketch, stages):
        # With the bound stages off no bound kernel sees t, so the
        # cascade must check it rather than answer "does not exceed".
        from repro.core.errors import BoundError
        cascade = ThresholdCascade(enabled_stages=stages)
        with pytest.raises(BoundError):
            cascade.evaluate(sketch, float("nan"), 0.9)
        with pytest.raises(BoundError):
            cascade.evaluate_batch([sketch, sketch], float("nan"), 0.9)
        assert cascade.stats.queries == 0

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            ThresholdCascade(enabled_stages=("simple", "warp-drive"))


class TestStats:
    def test_stats_accumulate(self, sketch):
        cascade = ThresholdCascade()
        thresholds = np.linspace(sketch.min, sketch.max, 25)
        for t in thresholds:
            cascade.threshold(sketch, float(t), 0.9)
        stats = cascade.stats
        assert stats.queries == 25
        assert stats.stages["simple"].entered == 25
        # Later stages see monotonically fewer queries (Figure 13c).
        entered = [stats.stages[name].entered for name in STAGES]
        assert entered == sorted(entered, reverse=True)
        resolved_total = sum(stats.stages[name].resolved for name in STAGES)
        assert resolved_total == 25

    def test_fraction_and_throughput_api(self, sketch):
        cascade = ThresholdCascade()
        cascade.threshold(sketch, float(sketch.max / 2), 0.9)
        summary = cascade.stats.summary()
        assert set(summary) == set(STAGES)
        assert summary["simple"]["fraction_entered"] == 1.0
        assert summary["simple"]["throughput_qps"] > 0

    def test_empty_stats(self):
        stats = CascadeStats()
        assert stats.fraction_entered("simple") == 0.0


class TestDegradedPaths:
    def test_discrete_data_still_answers(self):
        # Two-point data: the max-entropy stage cannot converge; the
        # cascade must fall back to bound midpoints, not raise.
        sketch = MomentsSketch.from_data([0.0] * 900 + [10.0] * 100, k=10)
        cascade = ThresholdCascade()
        assert cascade.threshold(sketch, 5.0, 0.95) is True
        assert cascade.threshold(sketch, 5.0, 0.5) is False

    def test_mixed_block_matches_one_row_evaluate(self):
        # Two-point rows (no max-entropy fit) interleaved with lognormal
        # rows (fitted): the non-convergent rows share one bound call, and
        # every row's outcome and stage equal its one-row evaluate.
        rng = np.random.default_rng(3)
        two_point = [MomentsSketch.from_data([0.0] * low + [10.0] * (1000 - low),
                                             k=10) for low in (900, 500, 200)]
        lognormal = [MomentsSketch.from_data(rng.lognormal(1.0, 0.5, 4000),
                                             k=10) for _ in range(3)]
        block = [s for pair in zip(two_point, lognormal) for s in pair]
        fitted, _, _ = fit_estimators(block, ThresholdCascade().config)
        assert [e is None for e in fitted] == [True, False] * 3
        mixed_maxent = False
        for t in (3.0, 4.5, 5.0):
            for q in (0.5, 0.9, 0.95):
                outcomes = ThresholdCascade().evaluate_batch(block, t, q)
                alone = [ThresholdCascade().evaluate(s, t, q) for s in block]
                assert outcomes == alone, (t, q)
                maxent = {row for row, o in enumerate(outcomes)
                          if o.stage == "maxent"}
                mixed_maxent |= (len(maxent & {0, 2, 4}) >= 2
                                 and bool(maxent & {1, 3, 5}))
        assert mixed_maxent  # the fallback ran beside fitted rows
