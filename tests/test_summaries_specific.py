"""Per-summary behaviour tests beyond the common contract."""

import numpy as np
import pytest

from repro.core.errors import ConvergenceError
from repro.summaries import (
    EquiWidthHistogramSummary,
    ExactSummary,
    GKSummary,
    Merge12Summary,
    MomentsSummary,
    RandomSummary,
    SamplingSummary,
    StreamingHistogramSummary,
    TDigestSummary,
)


class TestGK:
    def test_epsilon_guarantee_pointwise(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, 30_000)
        gk = GKSummary.from_data(data, epsilon=1 / 100)
        sorted_data = np.sort(data)
        for phi in np.linspace(0.05, 0.95, 10):
            rank = np.searchsorted(sorted_data, gk.quantile(phi), side="left")
            assert abs(rank - phi * data.size) <= 2 * data.size / 100 + 1

    def test_size_grows_under_heterogeneous_merging(self):
        """The paper's point: GK is not strictly mergeable (App. D.4)."""
        rng = np.random.default_rng(1)
        solo = GKSummary.from_data(rng.normal(0, 1, 10_000), epsilon=1 / 50)
        parts = [GKSummary.from_data(rng.normal(loc, 1, 200), epsilon=1 / 50)
                 for loc in rng.uniform(-50, 50, 50)]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        assert merged.tuple_count > solo.tuple_count

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            GKSummary(epsilon=0.7)

    def test_invariant_holds_after_mixed_workload(self):
        rng = np.random.default_rng(2)
        gk = GKSummary(epsilon=1 / 40)
        for _ in range(5):
            gk.accumulate(rng.exponential(1, 1000))
            gk.merge(GKSummary.from_data(rng.exponential(2, 500), epsilon=1 / 40))
        gk._flush()
        budget = 2 * gk.epsilon * gk.count
        assert np.all(gk._g + gk._delta <= budget + 1e-6)
        assert gk._g.sum() == gk.count


class TestTDigest:
    def test_centroid_count_bounded_by_delta(self):
        rng = np.random.default_rng(3)
        digest = TDigestSummary.from_data(rng.normal(0, 1, 50_000), delta=100.0)
        assert digest.centroid_count <= 120  # delta plus buffering slack

    def test_tail_quantiles_high_resolution(self):
        rng = np.random.default_rng(4)
        data = rng.exponential(1, 100_000)
        digest = TDigestSummary.from_data(data, delta=100.0)
        sorted_data = np.sort(data)
        for phi in (0.99, 0.999):
            rank = np.searchsorted(sorted_data, digest.quantile(phi), side="left")
            assert abs(rank / data.size - phi) < 0.002

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            TDigestSummary(delta=0.5)

    def test_weights_conserved_through_merges(self):
        rng = np.random.default_rng(5)
        parts = [TDigestSummary.from_data(rng.normal(i, 1, 500), delta=50.0)
                 for i in range(10)]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        merged._flush()
        assert float(merged._weights.sum()) == pytest.approx(5000.0)


class TestMerge12:
    def test_total_weight_conserved(self):
        rng = np.random.default_rng(6)
        summary = Merge12Summary.from_data(rng.normal(0, 1, 12_345), k=16, seed=0)
        values, weights = summary._weighted_items()
        assert float(weights.sum()) == pytest.approx(12_345.0)

    def test_level_buffers_have_exact_size(self):
        rng = np.random.default_rng(7)
        summary = Merge12Summary.from_data(rng.normal(0, 1, 10_000), k=16, seed=0)
        for buffer in summary._levels:
            if buffer is not None:
                assert buffer.size == 16

    def test_merge_preserves_weight(self):
        rng = np.random.default_rng(8)
        a = Merge12Summary.from_data(rng.normal(0, 1, 3_000), k=8, seed=1)
        b = Merge12Summary.from_data(rng.normal(5, 1, 4_000), k=8, seed=2)
        a.merge(b)
        _, weights = a._weighted_items()
        assert float(weights.sum()) == pytest.approx(7_000.0)

    def test_mismatched_k_rejected(self):
        with pytest.raises(ValueError):
            Merge12Summary(k=8).merge(Merge12Summary(k=16))


class TestRandomW:
    def test_weight_approximately_conserved(self):
        # Randomized halving conserves weight in expectation; check 10%.
        rng = np.random.default_rng(9)
        parts = [RandomSummary.from_data(rng.normal(0, 1, 500),
                                         buffer_size=128, seed=i)
                 for i in range(40)]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        values, weights = merged._weighted_items()
        assert float(weights.sum()) == pytest.approx(20_000, rel=0.15)

    def test_bounded_storage_under_merging(self):
        rng = np.random.default_rng(10)
        merged = RandomSummary.from_data(rng.normal(0, 1, 500), buffer_size=64, seed=0)
        for i in range(100):
            merged.merge(RandomSummary.from_data(rng.normal(0, 1, 500),
                                                 buffer_size=64, seed=i + 1))
        stored = sum(buf.size for _, buf in merged._buffers) + len(merged._active)
        assert stored <= (merged.num_buffers + 1) * merged.buffer_size


class TestSampling:
    def test_reservoir_capacity_respected(self):
        rng = np.random.default_rng(11)
        sample = SamplingSummary.from_data(rng.normal(0, 1, 50_000), capacity=100, seed=0)
        assert sample._reservoir.size == 100
        assert sample.count == 50_000

    def test_reservoir_unbiased_mean(self):
        rng = np.random.default_rng(12)
        data = rng.uniform(0, 1, 20_000)
        means = []
        for seed in range(30):
            sample = SamplingSummary.from_data(data, capacity=500, seed=seed)
            means.append(float(sample._reservoir.mean()))
        assert np.mean(means) == pytest.approx(0.5, abs=0.01)

    def test_merge_weighting_by_count(self):
        rng = np.random.default_rng(13)
        big = SamplingSummary.from_data(np.zeros(90_000), capacity=1000, seed=0)
        small = SamplingSummary.from_data(np.ones(10_000), capacity=1000, seed=1)
        big.merge(small)
        fraction_ones = float(big._reservoir.mean())
        assert fraction_ones == pytest.approx(0.1, abs=0.05)


class TestStreamingHistogram:
    def test_bin_budget_enforced(self):
        rng = np.random.default_rng(14)
        hist = StreamingHistogramSummary.from_data(rng.normal(0, 1, 20_000),
                                                   max_bins=50)
        assert hist.bin_count <= 50

    def test_mass_conserved(self):
        rng = np.random.default_rng(15)
        hist = StreamingHistogramSummary.from_data(rng.normal(0, 1, 7_777),
                                                   max_bins=64)
        hist._flush()
        assert float(hist._masses.sum()) == pytest.approx(7_777.0)

    def test_duplicate_heavy_data(self):
        hist = StreamingHistogramSummary.from_data([5.0] * 1000 + [7.0] * 500,
                                                   max_bins=10)
        assert hist.bin_count == 2
        assert hist.quantile(0.3) == pytest.approx(5.0, abs=0.5)


class TestEWHist:
    def test_power_of_two_width(self):
        rng = np.random.default_rng(16)
        hist = EquiWidthHistogramSummary.from_data(rng.uniform(0, 100, 5_000),
                                                   max_bins=64)
        assert hist.width == 2.0 ** hist._exponent

    def test_counts_conserved_under_range_growth(self):
        hist = EquiWidthHistogramSummary(max_bins=16)
        hist.accumulate(np.linspace(0, 1, 1000))
        hist.accumulate(np.linspace(1000, 1001, 1000))  # forces coarsening
        assert float(hist._counts.sum()) == pytest.approx(2000.0)
        assert hist.bin_count <= 16

    def test_merge_is_exact_on_counts(self):
        rng = np.random.default_rng(17)
        data = rng.uniform(0, 50, 4_000)
        whole = EquiWidthHistogramSummary.from_data(data, max_bins=32)
        half_a = EquiWidthHistogramSummary.from_data(data[:2_000], max_bins=32)
        half_b = EquiWidthHistogramSummary.from_data(data[2_000:], max_bins=32)
        half_a.merge(half_b)
        assert float(half_a._counts.sum()) == pytest.approx(4000.0)
        assert half_a.count == whole.count

    def test_uniform_data_accurate(self):
        rng = np.random.default_rng(18)
        data = rng.uniform(0, 1, 50_000)
        hist = EquiWidthHistogramSummary.from_data(data, max_bins=100)
        assert hist.quantile(0.5) == pytest.approx(0.5, abs=0.02)


class TestExact:
    def test_exact_rank_semantics(self):
        data = np.arange(1000, dtype=float)
        exact = ExactSummary.from_data(data)
        assert exact.quantile(0.5) == 500.0
        assert exact.rank(500.0) == 500
        assert exact.quantile_error(504.0, 0.5) == pytest.approx(0.004)


class TestMomentsSummaryAdapter:
    def test_estimator_cache_invalidation(self):
        rng = np.random.default_rng(19)
        summary = MomentsSummary.from_data(rng.normal(0, 1, 5_000), k=8)
        first = summary.quantile(0.5)
        assert summary._estimator is not None
        summary.accumulate(np.full(5_000, 100.0))
        assert summary._estimator is None  # mutation dropped the cache
        second = summary.quantile(0.5)
        assert second != first

    def test_failed_fit_costs_one_fit(self, monkeypatch):
        """Two-point data (Figure 8): the first call runs one backoff
        ladder, later calls none, and the answers keep the bytes of the
        re-fitting fallback (``safe_estimate_quantiles``)."""
        from repro.core import solver
        from repro.core.quantile import (QuantileEstimator,
                                         safe_estimate_quantiles)

        data = np.asarray([0.0] * 700 + [1.0] * 300)
        phis = [0.1, 0.5, 0.9]
        summary = MomentsSummary.from_data(data, k=10)
        expected = safe_estimate_quantiles(summary.sketch, phis,
                                           summary.config)
        calls = []
        original = solver._newton

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "_newton", counting)
        with pytest.raises(ConvergenceError):
            QuantileEstimator.fit(summary.sketch, config=summary.config,
                                  allow_backoff=True)
        ladder = len(calls)
        assert ladder >= 1
        calls.clear()
        first = summary.quantiles(phis)
        assert len(calls) == ladder
        for _ in range(3):
            calls.clear()
            again = summary.quantiles(phis)
            assert summary.quantile(0.9) == expected[2]
            assert not calls
            assert again.tobytes() == expected.tobytes()
        assert first.tobytes() == expected.tobytes()
        # A mutation drops the cached failure along with the data.
        summary.accumulate(np.full(10, 0.5))
        assert not summary.has_fit

    def test_paper_headline_size(self):
        assert MomentsSummary(k=10).size_bytes() < 200

    def test_discrete_data_degrades_not_raises(self):
        summary = MomentsSummary.from_data([0.0] * 900 + [1.0] * 100, k=10)
        q = summary.quantile(0.95)
        assert q in (0.0, 1.0)
