"""Tests for Markov and RTT moment bounds (Section 5.1, Appendix E)."""

import numpy as np
import pytest

from repro.core import MomentsSketch
from repro.core.bounds import (
    RankBounds,
    markov_bound,
    quantile_error_bound,
    rtt_bound,
)
from repro.core.errors import BoundError


@pytest.fixture(scope="module", params=["gauss", "expon", "lognorm", "uniform"])
def dataset(request):
    rng = np.random.default_rng(hash(request.param) % 2 ** 31)
    data = {
        "gauss": lambda: rng.normal(0, 1, 20_000),
        "expon": lambda: rng.exponential(1, 20_000),
        "lognorm": lambda: rng.lognormal(0.5, 1.2, 20_000),
        "uniform": lambda: rng.uniform(-3, 3, 20_000),
    }[request.param]()
    return request.param, np.sort(data), MomentsSketch.from_data(data, k=10)


QUERY_PHIS = (0.05, 0.2, 0.5, 0.8, 0.95, 0.99)


class TestRankBounds:
    def test_fraction_and_width(self):
        bounds = RankBounds(lower=100.0, upper=300.0, count=1000.0)
        assert bounds.fraction() == (0.1, 0.3)
        assert bounds.width == 200.0

    def test_intersect_takes_tighter(self):
        a = RankBounds(100, 300, 1000)
        b = RankBounds(150, 400, 1000)
        merged = a.intersect(b)
        assert merged.lower == 150 and merged.upper == 300


class TestMarkovBound:
    def test_contains_true_rank(self, dataset):
        name, data_sorted, sketch = dataset
        n = data_sorted.size
        for phi in QUERY_PHIS:
            t = float(data_sorted[int(phi * n)])
            true_rank = np.searchsorted(data_sorted, t, side="left")
            bounds = markov_bound(sketch, t)
            assert bounds.lower - 1e-6 * n <= true_rank <= bounds.upper + 1e-6 * n, \
                f"{name} phi={phi}"

    def test_out_of_range_thresholds(self, dataset):
        _, data_sorted, sketch = dataset
        n = sketch.count
        below = markov_bound(sketch, float(data_sorted[0]) - 1.0)
        assert below.lower == 0.0 and below.upper == 0.0
        above = markov_bound(sketch, float(data_sorted[-1]) + 1.0)
        assert above.lower == n and above.upper == n
        assert markov_bound(sketch, -np.inf).upper == 0.0
        assert markov_bound(sketch, np.inf).lower == n

    def test_bounds_ordered_and_within_count(self, dataset):
        _, data_sorted, sketch = dataset
        t = float(np.median(data_sorted))
        bounds = markov_bound(sketch, t)
        assert 0.0 <= bounds.lower <= bounds.upper <= sketch.count

    def test_max_order_restriction_loosens_bound(self, dataset):
        _, data_sorted, sketch = dataset
        t = float(data_sorted[int(0.9 * data_sorted.size)])
        full = markov_bound(sketch, t)
        restricted = markov_bound(sketch, t, max_order=1)
        assert restricted.width >= full.width - 1e-9


class TestRTTBound:
    def test_contains_true_rank(self, dataset):
        name, data_sorted, sketch = dataset
        n = data_sorted.size
        for phi in QUERY_PHIS:
            t = float(data_sorted[int(phi * n)])
            true_rank = np.searchsorted(data_sorted, t, side="left")
            bounds = rtt_bound(sketch, t)
            assert bounds.lower - 1e-4 * n <= true_rank <= bounds.upper + 1e-4 * n, \
                f"{name} phi={phi}"

    def test_tighter_than_markov(self, dataset):
        # The reason the cascade orders RTT after Markov (Section 5.2).
        name, data_sorted, sketch = dataset
        t = float(np.median(data_sorted))
        assert rtt_bound(sketch, t).width <= markov_bound(sketch, t).width + 1e-9, name

    def test_out_of_range_thresholds(self, dataset):
        _, data_sorted, sketch = dataset
        assert rtt_bound(sketch, float(data_sorted[0]) - 1.0).upper == 0.0
        assert rtt_bound(sketch, float(data_sorted[-1]) + 1.0).lower == sketch.count
        assert rtt_bound(sketch, -np.inf).upper == 0.0
        assert rtt_bound(sketch, np.inf).lower == sketch.count

    def test_degenerate_data_falls_back_to_markov(self):
        # Two distinct values: the Hankel system is singular; the bound
        # must degrade gracefully rather than raise.
        sketch = MomentsSketch.from_data([0.0] * 50 + [1.0] * 50, k=8)
        bounds = rtt_bound(sketch, 0.5)
        assert 0.0 <= bounds.lower <= bounds.upper <= sketch.count


class TestErrorBound:
    def test_bounds_true_error(self, dataset):
        # Appendix E: the certified error must dominate the actual error.
        from repro.core import estimate_quantiles
        name, data_sorted, sketch = dataset
        n = data_sorted.size
        phis = np.asarray([0.1, 0.5, 0.9])
        estimates = estimate_quantiles(sketch, phis)
        for phi, q in zip(phis, estimates):
            certified = quantile_error_bound(sketch, float(q), float(phi))
            true_rank = np.searchsorted(data_sorted, q, side="left")
            actual = abs(true_rank - np.floor(phi * n)) / n
            assert actual <= certified + 1e-3, f"{name} phi={phi}"

    def test_invalid_phi_rejected(self, dataset):
        _, _, sketch = dataset
        with pytest.raises(BoundError):
            quantile_error_bound(sketch, 0.0, 1.5)


class TestNaNThresholds:
    """A NaN threshold has no rank: every bound entry point raises the
    typed error instead of LAPACK's, and the batch forms are the one
    place that checks."""

    SKETCH = MomentsSketch.from_data(
        np.random.default_rng(3).lognormal(0.0, 1.0, 2000), k=8)

    def test_scalar_and_batch_bounds_raise(self):
        from repro.core.bounds import markov_bound_batch, rtt_bound_batch
        from repro.core.sketch import ColumnarMoments
        block = ColumnarMoments.from_sketches([self.SKETCH, self.SKETCH])
        nan = float("nan")
        for call in (lambda: markov_bound(self.SKETCH, nan),
                     lambda: rtt_bound(self.SKETCH, nan),
                     lambda: quantile_error_bound(self.SKETCH, nan, 0.5),
                     lambda: markov_bound_batch(block, nan),
                     lambda: rtt_bound_batch(block, np.array([1.0, nan]))):
            with pytest.raises(BoundError, match="NaN"):
                call()

    def test_cascade_raises(self):
        from repro.core.cascade import ThresholdCascade
        cascade = ThresholdCascade()
        with pytest.raises(BoundError):
            cascade.evaluate(self.SKETCH, float("nan"), 0.9)
        with pytest.raises(BoundError):
            cascade.evaluate_batch([self.SKETCH], float("nan"), 0.9)
