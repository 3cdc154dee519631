"""Tests for sliding-window threshold queries (turnstile semantics)."""

import numpy as np
import pytest

from repro.core import MomentsSketch
from repro.summaries import Merge12Summary, MomentsSummary
from repro.window import (
    TurnstileWindowProcessor,
    build_panes,
    inject_spikes,
    pack_panes,
    remerge_windows,
    remerge_windows_packed,
)


@pytest.fixture(scope="module")
def spiked_stream():
    rng = np.random.default_rng(0)
    values = rng.lognormal(1.0, 1.0, 60_000)  # q99 around 60
    pane_size = 500
    spike_panes = list(range(40, 52)) + list(range(80, 92))
    values = inject_spikes(values, pane_size, spike_panes,
                           spike_value=5000.0, spike_fraction=0.1)
    return values, pane_size, spike_panes


class TestPanes:
    def test_pane_partition(self, spiked_stream):
        values, pane_size, _ = spiked_stream
        panes = build_panes(values, pane_size)
        assert len(panes) == values.size // pane_size
        assert sum(p.count for p in panes) == values.size

    def test_pane_extrema_exact(self, spiked_stream):
        values, pane_size, _ = spiked_stream
        panes = build_panes(values, pane_size)
        chunk = values[:pane_size]
        assert panes[0].min == chunk.min() and panes[0].max == chunk.max()


class TestTurnstile:
    def test_window_state_matches_fresh_merge(self, spiked_stream):
        """After many slides, the turnstile window must equal a from-scratch
        merge of the panes it covers (the subtract correctness property)."""
        values, pane_size, _ = spiked_stream
        panes = build_panes(values, pane_size)[:40]
        w = 24
        window = panes[0].sketch.copy()
        for pane in panes[1:w]:
            window.merge(pane.sketch)
        for position in range(len(panes) - w):
            window.merge(panes[position + w].sketch)
            surviving = panes[position + 1:position + w + 1]
            window.subtract(panes[position].sketch,
                            new_min=min(p.min for p in surviving),
                            new_max=max(p.max for p in surviving))
        reference = panes[len(panes) - w].sketch.copy()
        for pane in panes[len(panes) - w + 1:]:
            reference.merge(pane.sketch)
        assert window.count == reference.count
        np.testing.assert_allclose(window.power_sums, reference.power_sums,
                                   rtol=1e-6)
        assert window.min == reference.min and window.max == reference.max

    def test_detects_spike_windows(self, spiked_stream):
        values, pane_size, spike_panes = spiked_stream
        panes = build_panes(values, pane_size)
        processor = TurnstileWindowProcessor(panes, window_panes=24)
        result = processor.query(threshold=1500.0, q=0.99)
        assert result.alerts, "spikes must be detected"
        spike_set = set(spike_panes)
        for alert in result.alerts:
            covered = set(range(alert.start_pane, alert.end_pane + 1))
            assert covered & spike_set, f"false alarm at {alert}"

    def test_no_alerts_without_spikes(self):
        rng = np.random.default_rng(1)
        values = rng.lognormal(1.0, 1.0, 30_000)
        panes = build_panes(values, 500)
        processor = TurnstileWindowProcessor(panes, window_panes=24)
        result = processor.query(threshold=float(values.max()) * 2, q=0.99)
        assert not result.alerts

    def test_window_parameter_validation(self, spiked_stream):
        values, pane_size, _ = spiked_stream
        panes = build_panes(values, pane_size)
        with pytest.raises(ValueError):
            TurnstileWindowProcessor(panes, window_panes=0)
        with pytest.raises(ValueError):
            TurnstileWindowProcessor(panes[:3], window_panes=10)

    def test_nan_threshold_and_bad_q_rejected(self, spiked_stream):
        from repro.core.errors import BoundError, QueryError
        values, pane_size, _ = spiked_stream
        processor = TurnstileWindowProcessor(build_panes(values, pane_size),
                                             window_panes=4)
        with pytest.raises(BoundError):
            processor.query(threshold=float("nan"))
        with pytest.raises(QueryError):
            processor.query(threshold=1500.0, q=1.5)


class TestRemergeBaseline:
    def test_same_alerts_as_turnstile(self, spiked_stream):
        """Both strategies see the same data; alert sets should agree on
        clear spikes (estimators differ slightly on borderline windows)."""
        values, pane_size, spike_panes = spiked_stream
        panes = build_panes(values, pane_size)
        turnstile = TurnstileWindowProcessor(
            panes, window_panes=24).query(1500.0, 0.99)
        pane_summaries = [
            Merge12Summary.from_data(values[i * pane_size:(i + 1) * pane_size],
                                     k=32, seed=0)
            for i in range(len(panes))]
        remerge = remerge_windows(pane_summaries, 24, 1500.0, 0.99)
        set_a = {a.start_pane for a in turnstile.alerts}
        set_b = {a.start_pane for a in remerge.alerts}
        union = set_a | set_b
        assert union, "both must alert"
        overlap = len(set_a & set_b) / len(union)
        assert overlap > 0.5

    def test_windows_checked_count(self, spiked_stream):
        values, pane_size, _ = spiked_stream
        panes = build_panes(values, pane_size)
        processor = TurnstileWindowProcessor(panes, window_panes=24)
        result = processor.query(threshold=1e12, q=0.99)
        assert result.windows_checked == len(panes) - 24 + 1


class TestSpikeInjection:
    def test_spike_changes_only_selected_panes(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 1, 10_000)
        spiked = inject_spikes(values, 1000, [3], spike_value=99.0)
        for pane in range(10):
            chunk = spiked[pane * 1000:(pane + 1) * 1000]
            if pane == 3:
                assert np.any(chunk == 99.0)
            else:
                assert not np.any(chunk == 99.0)

    def test_out_of_range_pane_ignored(self):
        values = np.zeros(100)
        spiked = inject_spikes(values, 50, [10], spike_value=1.0)
        np.testing.assert_array_equal(spiked, values)


class TestPackedPaneRing:
    def test_pack_panes_roundtrip(self):
        rng = np.random.default_rng(0)
        panes = build_panes(rng.lognormal(1, 1, 5000), pane_size=250, k=6)
        store = pack_panes(panes)
        assert len(store) == len(panes)
        for i, pane in enumerate(panes):
            assert np.array_equal(store.power_sums[i], pane.sketch.power_sums)

    def test_rebuild_window_matches_sequential_merge(self):
        rng = np.random.default_rng(1)
        panes = build_panes(rng.lognormal(1, 1, 4000), pane_size=200, k=6)
        processor = TurnstileWindowProcessor(panes, window_panes=5)
        for position in (0, 3, len(panes) - 5):
            rebuilt = processor.rebuild_window(position)
            expected = panes[position].sketch.copy()
            for pane in panes[position + 1:position + 5]:
                expected.merge(pane.sketch)
            assert expected.count == rebuilt.count
            assert np.array_equal(expected.power_sums, rebuilt.power_sums)

    def test_packed_remerge_matches_loop_remerge(self):
        rng = np.random.default_rng(2)
        values = inject_spikes(rng.lognormal(1, 1, 8000), pane_size=200,
                               spike_panes=[12, 13, 14], spike_value=400.0)
        panes = build_panes(values, pane_size=200, k=8)
        summaries = []
        for pane in panes:
            summary = MomentsSummary(k=8)
            summary.sketch = pane.sketch.copy()
            summaries.append(summary)
        threshold = 100.0
        loop = remerge_windows(summaries, window_panes=6, threshold=threshold)
        packed = remerge_windows_packed(panes, window_panes=6,
                                        threshold=threshold)
        assert packed.windows_checked == loop.windows_checked
        assert ([(a.start_pane, a.end_pane) for a in packed.alerts]
                == [(a.start_pane, a.end_pane) for a in loop.alerts])
        assert packed.alerts  # the spike must actually fire

    def test_packed_remerge_agrees_with_turnstile(self):
        rng = np.random.default_rng(3)
        values = inject_spikes(rng.lognormal(1, 1, 6000), pane_size=200,
                               spike_panes=[20, 21], spike_value=500.0)
        panes = build_panes(values, pane_size=200, k=8)
        threshold = 120.0
        turnstile = TurnstileWindowProcessor(panes, window_panes=4).query(threshold)
        packed = remerge_windows_packed(panes, window_panes=4,
                                        threshold=threshold)
        assert ([(a.start_pane, a.end_pane) for a in packed.alerts]
                == [(a.start_pane, a.end_pane) for a in turnstile.alerts])

    def test_packed_remerge_validates_window(self):
        panes = build_panes(np.arange(1.0, 100.0), pane_size=10, k=4)
        with pytest.raises(ValueError):
            remerge_windows_packed(panes, window_panes=0, threshold=1.0)
        with pytest.raises(ValueError):
            remerge_windows_packed(panes, window_panes=len(panes) + 1,
                                   threshold=1.0)
