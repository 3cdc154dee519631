"""Tests for end-to-end quantile estimation from sketches."""

import numpy as np
import pytest

from repro.core import (
    MomentsSketch,
    QuantileEstimator,
    SolverConfig,
    estimate_quantile,
    estimate_quantiles,
    safe_estimate_quantiles,
)
from repro.core.errors import EstimationError
from repro.workload.cells import PHI_GRID, quantile_errors


def eps_avg(data: np.ndarray, estimates: np.ndarray,
            phis: np.ndarray = PHI_GRID) -> float:
    return float(np.mean(quantile_errors(np.sort(data), estimates, phis)))


class TestAccuracy:
    """The paper's core claim: eps_avg <= 0.01 at k = 10 on real shapes."""

    @pytest.mark.parametrize("maker,label", [
        (lambda rng: rng.normal(0, 1, 60_000), "gaussian"),
        (lambda rng: rng.exponential(1, 60_000), "exponential"),
        (lambda rng: rng.lognormal(1, 1.5, 60_000), "lognormal"),
        (lambda rng: rng.uniform(5, 6, 60_000), "uniform"),
        (lambda rng: rng.gamma(0.5, 2.0, 60_000), "gamma"),
    ])
    def test_one_percent_error_at_k10(self, maker, label):
        rng = np.random.default_rng(hash(label) % 2 ** 31)
        data = maker(rng)
        sketch = MomentsSketch.from_data(data, k=10)
        estimates = estimate_quantiles(sketch, PHI_GRID)
        assert eps_avg(data, estimates) <= 0.01, label

    def test_more_moments_improve_accuracy(self):
        rng = np.random.default_rng(7)
        data = rng.gamma(2.0, 1.0, 60_000)
        sketch = MomentsSketch.from_data(data, k=12)
        coarse = estimate_quantiles(sketch, PHI_GRID, k1=2, k2=0)
        fine = estimate_quantiles(sketch, PHI_GRID, k1=10, k2=0)
        assert eps_avg(data, fine) < eps_avg(data, coarse)

    def test_quantiles_monotone_in_phi(self):
        rng = np.random.default_rng(8)
        sketch = MomentsSketch.from_data(rng.lognormal(0, 1, 20_000), k=10)
        qs = estimate_quantiles(sketch, np.linspace(0.01, 0.99, 33))
        assert np.all(np.diff(qs) >= -1e-9)

    def test_estimates_respect_support(self):
        rng = np.random.default_rng(9)
        data = rng.normal(50, 5, 20_000)
        sketch = MomentsSketch.from_data(data, k=8)
        qs = estimate_quantiles(sketch, [0.001, 0.5, 0.999])
        assert np.all(qs >= sketch.min) and np.all(qs <= sketch.max)


class TestEstimatorObject:
    def test_cdf_monotone_and_normalized(self):
        rng = np.random.default_rng(10)
        data = rng.exponential(1.0, 30_000)
        estimator = QuantileEstimator.fit(MomentsSketch.from_data(data, k=10))
        x = np.linspace(0.0, float(data.max()), 200)
        cdf = estimator.cdf(x)
        assert np.all(np.diff(cdf) >= -1e-9)
        assert cdf[0] == pytest.approx(0.0, abs=1e-6)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-6)

    def test_cdf_clamps_outside_support(self):
        estimator = QuantileEstimator.fit(
            MomentsSketch.from_data(np.linspace(1, 2, 5000), k=6))
        assert estimator.cdf(np.asarray(0.5)) == 0.0
        assert estimator.cdf(np.asarray(2.5)) == 1.0

    def test_quantile_and_cdf_are_inverse(self):
        rng = np.random.default_rng(11)
        estimator = QuantileEstimator.fit(
            MomentsSketch.from_data(rng.normal(0, 1, 30_000), k=10))
        for phi in (0.1, 0.5, 0.9, 0.99):
            q = estimator.quantile(phi)
            assert float(estimator.cdf(np.asarray(q))) == pytest.approx(phi, abs=1e-3)

    def test_table_and_brent_paths_agree(self):
        # quantile() tabulates the CDF; quantile_brent() is the paper's
        # literal Brent formulation.  They must agree to interpolation slop.
        rng = np.random.default_rng(12)
        data = rng.lognormal(0.5, 1.0, 30_000)
        estimator = QuantileEstimator.fit(MomentsSketch.from_data(data, k=10))
        for phi in (0.05, 0.25, 0.5, 0.75, 0.95, 0.99):
            fast = estimator.quantile(phi)
            exact = estimator.quantile_brent(phi)
            scale = data.max() - data.min()
            assert abs(fast - exact) / scale < 1e-4

    def test_invalid_phi_rejected(self):
        estimator = QuantileEstimator.fit(
            MomentsSketch.from_data(np.linspace(0, 1, 1000), k=4))
        with pytest.raises(EstimationError):
            estimator.quantile(1.5)
        with pytest.raises(EstimationError):
            estimator.quantiles(np.asarray([-0.1]))

    @pytest.mark.parametrize("phis", [[np.nan, 0.5], [0.5, np.nan], [np.nan]])
    def test_nan_fractions_rejected(self, phis):
        sketch = MomentsSketch.from_data(np.linspace(0, 1, 1000), k=4)
        estimator = QuantileEstimator.fit(sketch)
        with pytest.raises(EstimationError):
            estimator.quantiles(np.asarray(phis))
        with pytest.raises(EstimationError):
            estimate_quantiles(sketch, phis)
        point_mass = QuantileEstimator.fit(
            MomentsSketch.from_data(np.full(10, 2.0), k=4))
        with pytest.raises(EstimationError):
            point_mass.quantiles(np.asarray(phis))

    def test_nan_fraction_rejected_by_scalar_entry_points(self):
        sketch = MomentsSketch.from_data(np.linspace(0, 1, 1000), k=4)
        estimator = QuantileEstimator.fit(sketch)
        for call in (lambda: estimator.quantile(np.nan),
                     lambda: estimator.quantile_brent(np.nan),
                     lambda: estimate_quantile(sketch, np.nan)):
            with pytest.raises(EstimationError):
                call()

    def test_phi_endpoints_return_extrema(self):
        data = np.linspace(3.0, 9.0, 5000)
        estimator = QuantileEstimator.fit(MomentsSketch.from_data(data, k=6))
        assert estimator.quantile(0.0) == pytest.approx(3.0, abs=1e-6)
        assert estimator.quantile(1.0) == pytest.approx(9.0, abs=1e-6)


class TestDegenerateInputs:
    def test_point_mass_sketch(self):
        sketch = MomentsSketch.from_data(np.full(100, 7.5), k=6)
        estimator = QuantileEstimator.fit(sketch)
        assert estimator.is_point_mass
        assert estimator.quantile(0.5) == 7.5
        np.testing.assert_array_equal(estimator.quantiles(np.asarray([0.1, 0.9])),
                                      [7.5, 7.5])

    def test_single_value(self):
        assert estimate_quantile(MomentsSketch.from_data([42.0], k=4), 0.5) == 42.0

    def test_safe_estimation_on_two_point_data(self):
        # The raw solver cannot converge here; safe_* must still answer.
        data = np.asarray([0.0] * 700 + [1.0] * 300)
        sketch = MomentsSketch.from_data(data, k=10)
        qs = safe_estimate_quantiles(sketch, [0.5, 0.9])
        assert qs[0] == 0.0
        assert qs[1] == 1.0

    def test_override_moment_counts(self):
        rng = np.random.default_rng(13)
        sketch = MomentsSketch.from_data(rng.normal(0, 1, 10_000), k=10)
        estimator = QuantileEstimator.fit(sketch, k1=4, k2=0)
        assert estimator.basis.k1 == 4 and estimator.basis.k2 == 0


class TestSelectionIntegration:
    def test_long_tailed_data_uses_log_machinery(self):
        rng = np.random.default_rng(14)
        sketch = MomentsSketch.from_data(rng.lognormal(1, 1.5, 30_000), k=10)
        estimator = QuantileEstimator.fit(sketch)
        assert estimator.selection is not None
        assert estimator.selection.k2 > 0
        assert estimator.basis.domain == "log"

    def test_selection_respects_condition_budget(self):
        rng = np.random.default_rng(15)
        sketch = MomentsSketch.from_data(rng.normal(100, 1, 30_000), k=12)
        config = SolverConfig(max_condition_number=100.0)
        estimator = QuantileEstimator.fit(sketch, config=config)
        assert estimator.selection is not None
        assert estimator.selection.condition < 100.0
