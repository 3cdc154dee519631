"""Property-based tests (hypothesis) for core invariants.

These encode the paper's structural guarantees:
* merging is commutative/associative and equals pointwise accumulation
  (mergeability, Section 3.2);
* moment bounds contain the truth for *any* dataset (Section 5.1);
* the cascade agrees with the direct estimate for any threshold
  (Section 5.2);
* serialization and low-precision encoding round-trip;
* Chebyshev identities hold for arbitrary coefficient vectors.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import MomentsSketch, merge_all
from repro.core.bounds import markov_bound, rtt_bound
from repro.core.cascade import ThresholdCascade
from repro.core.chebyshev import (
    antiderivative_series,
    eval_chebyshev,
    eval_chebyshev_series,
    integrate_series,
    multiply_series,
)
from repro.core.encoding import LowPrecisionCodec
from repro.summaries import EquiWidthHistogramSummary
from repro.summaries.base import weighted_quantile

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
positive_floats = st.floats(min_value=1e-3, max_value=1e6,
                            allow_nan=False, allow_infinity=False)
datasets = st.lists(finite_floats, min_size=1, max_size=200)
positive_datasets = st.lists(positive_floats, min_size=1, max_size=200)


class TestSketchMergeProperties:
    @given(datasets, datasets)
    @settings(max_examples=50, deadline=None)
    def test_merge_commutative(self, a, b):
        left = MomentsSketch.from_data(a, k=6).merge(MomentsSketch.from_data(b, k=6))
        right = MomentsSketch.from_data(b, k=6).merge(MomentsSketch.from_data(a, k=6))
        assert left.count == right.count
        assert left.min == right.min and left.max == right.max
        np.testing.assert_allclose(left.power_sums, right.power_sums,
                                   rtol=1e-9, atol=1e-9)

    @given(datasets, datasets, datasets)
    @settings(max_examples=50, deadline=None)
    def test_merge_associative(self, a, b, c):
        sk = lambda d: MomentsSketch.from_data(d, k=5)
        left = sk(a).merge(sk(b)).merge(sk(c))
        right = sk(a).merge(sk(b).merge(sk(c)))
        np.testing.assert_allclose(left.power_sums, right.power_sums,
                                   rtol=1e-9, atol=1e-9)
        assert left.min == right.min and left.max == right.max

    @given(datasets, st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_accumulate(self, data, pieces):
        """The no-accuracy-cost-to-pre-aggregation property (Section 4.1)."""
        data = np.asarray(data)
        whole = MomentsSketch.from_data(data, k=6)
        chunks = np.array_split(data, pieces)
        merged = merge_all([MomentsSketch.from_data(c, k=6)
                            for c in chunks if c.size])
        assert merged.count == whole.count
        scale = np.maximum(np.abs(whole.power_sums), 1.0)
        np.testing.assert_allclose(merged.power_sums / scale,
                                   whole.power_sums / scale, atol=1e-9)

    @given(positive_datasets)
    @settings(max_examples=50, deadline=None)
    def test_serialization_roundtrip(self, data):
        sketch = MomentsSketch.from_data(data, k=7)
        restored = MomentsSketch.from_bytes(sketch.to_bytes())
        np.testing.assert_array_equal(restored.power_sums, sketch.power_sums)
        np.testing.assert_array_equal(restored.log_sums, sketch.log_sums)
        assert restored.min == sketch.min and restored.max == sketch.max

    @given(datasets, datasets)
    @settings(max_examples=50, deadline=None)
    def test_subtract_inverts_merge(self, base, extra):
        base = np.asarray(base)
        window = MomentsSketch.from_data(base, k=5)
        pane = MomentsSketch.from_data(extra, k=5)
        window.merge(pane)
        window.subtract(pane, new_min=float(base.min()), new_max=float(base.max()))
        reference = MomentsSketch.from_data(base, k=5)
        assert window.count == reference.count
        # Cancellation error scales with the magnitude of what transited
        # through the window (inherent to turnstile processing, not a bug):
        # normalize by the larger of the surviving and the removed sums.
        scale = np.maximum.reduce([np.abs(reference.power_sums),
                                   np.abs(pane.power_sums),
                                   np.ones_like(reference.power_sums)])
        np.testing.assert_allclose(window.power_sums / scale,
                                   reference.power_sums / scale, atol=1e-9)


class TestBoundProperties:
    @given(st.lists(finite_floats, min_size=3, max_size=300),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_markov_contains_truth(self, data, position):
        data = np.asarray(data)
        assume(data.max() > data.min())
        sketch = MomentsSketch.from_data(data, k=6)
        t = float(data.min() + position * (data.max() - data.min()))
        true_rank = int(np.sum(data < t))
        bounds = markov_bound(sketch, t)
        assert bounds.lower - 1e-6 * data.size <= true_rank
        assert true_rank <= bounds.upper + 1e-6 * data.size

    @given(st.lists(finite_floats, min_size=5, max_size=300),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_rtt_contains_truth(self, data, position):
        data = np.asarray(data)
        assume(data.max() > data.min())
        sketch = MomentsSketch.from_data(data, k=6)
        t = float(data.min() + position * (data.max() - data.min()))
        true_rank = int(np.sum(data < t))
        bounds = rtt_bound(sketch, t)
        # RTT tolerates small numeric slack from the Hankel/Vandermonde
        # solves; containment must hold to ~1e-3 of the population.
        assert bounds.lower - 1e-3 * data.size <= true_rank
        assert true_rank <= bounds.upper + 1e-3 * data.size

    @given(st.lists(positive_floats, min_size=10, max_size=200),
           st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=30, deadline=None)
    def test_rtt_never_wider_than_markov(self, data, position):
        data = np.asarray(data)
        assume(np.unique(data).size > 3)
        sketch = MomentsSketch.from_data(data, k=6)
        t = float(data.min() + position * (data.max() - data.min()))
        assert rtt_bound(sketch, t).width <= markov_bound(sketch, t).width + 1e-6


class TestCascadeProperties:
    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.05, max_value=0.99),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_cascade_agrees_with_maxent(self, position, q, seed):
        rng = np.random.default_rng(seed)
        data = rng.lognormal(0.0, 1.0, 2000)
        sketch = MomentsSketch.from_data(data, k=8)
        t = float(data.min() + position * (data.max() - data.min()))
        cascade = ThresholdCascade()
        bare = ThresholdCascade(enabled_stages=())
        assert cascade.threshold(sketch, t, q) == bare.threshold(sketch, t, q)


class TestEncodingProperties:
    @given(positive_datasets, st.integers(min_value=8, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_codec_roundtrip_relative_error(self, data, mantissa_bits):
        sketch = MomentsSketch.from_data(data, k=5)
        codec = LowPrecisionCodec(mantissa_bits=mantissa_bits,
                                  exponent_bits=11, seed=0)
        restored = codec.decode(codec.encode(sketch))
        assert restored.count == sketch.count
        nonzero = sketch.power_sums[1:] != 0
        np.testing.assert_allclose(restored.power_sums[1:][nonzero],
                                   sketch.power_sums[1:][nonzero],
                                   rtol=2.0 ** -(mantissa_bits - 1))


class TestChebyshevProperties:
    coeffs = st.lists(st.floats(min_value=-5, max_value=5,
                                allow_nan=False), min_size=1, max_size=10)

    @given(coeffs, coeffs)
    @settings(max_examples=60, deadline=None)
    def test_product_linearization(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        u = np.linspace(-1, 1, 33)
        product = multiply_series(a, b)
        np.testing.assert_allclose(
            eval_chebyshev_series(product, u),
            eval_chebyshev_series(a, u) * eval_chebyshev_series(b, u),
            atol=1e-9)

    @given(coeffs)
    @settings(max_examples=60, deadline=None)
    def test_antiderivative_fundamental_theorem(self, a):
        a = np.asarray(a)
        anti = antiderivative_series(a)
        span = (eval_chebyshev_series(anti, np.asarray(1.0))
                - eval_chebyshev_series(anti, np.asarray(-1.0)))
        assert span == pytest.approx(integrate_series(a), abs=1e-9)

    @given(st.integers(min_value=0, max_value=20),
           st.floats(min_value=-1, max_value=1, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_chebyshev_bounded_on_support(self, order, u):
        assert abs(eval_chebyshev(order, np.asarray(u))) <= 1.0 + 1e-9


class TestSummaryHelpers:
    @given(st.lists(finite_floats, min_size=1, max_size=100),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_weighted_quantile_unit_weights_matches_rank(self, data, phi):
        values = np.asarray(data)
        weights = np.ones_like(values)
        result = weighted_quantile(values, weights, phi)
        sorted_values = np.sort(values)
        rank = min(int(np.ceil(phi * values.size)), values.size) - 1
        assert result == sorted_values[max(rank, 0)]

    @given(st.lists(finite_floats, min_size=2, max_size=400),
           st.integers(min_value=2, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_ew_hist_counts_conserved(self, data, max_bins):
        data = np.asarray(data)
        assume(np.isfinite(data).all())
        hist = EquiWidthHistogramSummary.from_data(data, max_bins=max_bins)
        assert float(hist._counts.sum()) == pytest.approx(data.size)
        assert hist.bin_count <= max_bins

    @given(st.lists(finite_floats, min_size=2, max_size=200), st.data())
    @settings(max_examples=40, deadline=None)
    def test_ew_hist_merge_count_exact(self, data, splitter):
        data = np.asarray(data)
        split = splitter.draw(st.integers(min_value=1, max_value=data.size - 1))
        a = EquiWidthHistogramSummary.from_data(data[:split], max_bins=16)
        b = EquiWidthHistogramSummary.from_data(data[split:], max_bins=16)
        a.merge(b)
        assert float(a._counts.sum()) == pytest.approx(data.size)
        assert a.count == data.size
