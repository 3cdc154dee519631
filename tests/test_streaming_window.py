"""Tests for the online streaming window monitor."""

import numpy as np
import pytest

from repro.window import TurnstileWindowProcessor, build_panes, inject_spikes
from repro.window.streaming import StreamingWindowMonitor


@pytest.fixture(scope="module")
def spiked_stream():
    rng = np.random.default_rng(0)
    values = rng.lognormal(1.0, 1.0, 30_000)
    values = inject_spikes(values, 500, list(range(20, 32)),
                           spike_value=5000.0, spike_fraction=0.1)
    return values


class TestIncrementalIngestion:
    def test_pane_boundaries_respected(self):
        monitor = StreamingWindowMonitor(pane_size=100, window_panes=3,
                                         threshold=1e9)
        monitor.ingest(np.ones(250))
        assert len(monitor.states) == 2          # two sealed panes
        assert len(monitor._open_values) == 50   # partial third pane

    def test_chunk_size_independence(self, spiked_stream):
        """Feeding one value at a time or in bulk yields identical panes."""
        bulk = StreamingWindowMonitor(pane_size=500, window_panes=4,
                                      threshold=1e9)
        bulk.ingest(spiked_stream[:5000])
        drip = StreamingWindowMonitor(pane_size=500, window_panes=4,
                                      threshold=1e9)
        for chunk in np.split(spiked_stream[:5000], 100):
            drip.ingest(chunk)
        assert len(bulk.states) == len(drip.states)
        np.testing.assert_allclose(bulk.current_window.power_sums,
                                   drip.current_window.power_sums, rtol=1e-9)

    def test_window_memory_bounded(self, spiked_stream):
        monitor = StreamingWindowMonitor(pane_size=500, window_panes=6,
                                         threshold=1e9)
        monitor.ingest(spiked_stream)
        assert len(monitor._panes) == 6
        assert monitor.current_window.count == 6 * 500

    def test_flush_partial_pane(self):
        monitor = StreamingWindowMonitor(pane_size=100, window_panes=2,
                                         threshold=1e9)
        monitor.ingest(np.ones(150))
        alert = monitor.flush()
        assert len(monitor.states) == 2
        assert monitor.current_window.count == 150
        assert alert is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StreamingWindowMonitor(pane_size=0, window_panes=2, threshold=1.0)
        with pytest.raises(ValueError):
            StreamingWindowMonitor(pane_size=10, window_panes=0, threshold=1.0)

    def test_phi_and_nan_threshold_rejected_up_front(self):
        from repro.core.errors import QueryError
        for phi in (0.0, 1.0, 1.5, float("nan")):
            with pytest.raises(QueryError):
                StreamingWindowMonitor(pane_size=10, window_panes=2,
                                       threshold=1.0, phi=phi)
        with pytest.raises(QueryError):
            StreamingWindowMonitor(pane_size=10, window_panes=2,
                                   threshold=float("nan"))


class TestAlerting:
    def test_matches_batch_processor(self, spiked_stream):
        """The live monitor must raise exactly the alerts the historical
        query over the same panes raises."""
        threshold, phi, w = 1500.0, 0.99, 12
        monitor = StreamingWindowMonitor(pane_size=500, window_panes=w,
                                         threshold=threshold, phi=phi)
        monitor.ingest(spiked_stream)
        batch = TurnstileWindowProcessor(
            build_panes(spiked_stream, 500), window_panes=w)
        batch_result = batch.query(threshold=threshold, q=phi)
        assert ({a.start_pane for a in monitor.alerts}
                == {a.start_pane for a in batch_result.alerts})
        assert monitor.alerts, "the spike must fire alerts"

    def test_callback_invoked(self, spiked_stream):
        fired = []
        monitor = StreamingWindowMonitor(pane_size=500, window_panes=12,
                                         threshold=1500.0, phi=0.99,
                                         on_alert=fired.append)
        monitor.ingest(spiked_stream)
        assert fired == monitor.alerts

    def test_no_alerts_before_full_window(self):
        monitor = StreamingWindowMonitor(pane_size=100, window_panes=10,
                                         threshold=0.0, phi=0.5)
        monitor.ingest(np.full(500, 10.0))  # five panes, window needs ten
        assert not monitor.alerts
        assert not monitor.window_ready


class TestPackedRing:
    def test_ring_slots_back_live_panes(self):
        rng = np.random.default_rng(0)
        monitor = StreamingWindowMonitor(pane_size=100, window_panes=4,
                                         threshold=1e12)
        monitor.ingest(rng.lognormal(1, 1, 1200))
        assert len(monitor._ring) == 5  # window_panes + 1 ring rows
        for pane in monitor._panes:
            slot = pane.index % 5
            assert np.shares_memory(pane.sketch.power_sums,
                                    monitor._ring.power_sums[slot])

    def test_recompute_window_matches_turnstile_state(self):
        rng = np.random.default_rng(1)
        monitor = StreamingWindowMonitor(pane_size=100, window_panes=4,
                                         threshold=1e12)
        monitor.ingest(rng.lognormal(1, 1, 2500))
        recomputed = monitor.recompute_window()
        live = monitor.current_window
        assert recomputed.count == live.count
        assert np.allclose(recomputed.power_sums, live.power_sums,
                           rtol=1e-9)

    def test_recompute_without_panes_rejected(self):
        monitor = StreamingWindowMonitor(pane_size=100, window_panes=4,
                                         threshold=1.0)
        with pytest.raises(ValueError):
            monitor.recompute_window()

    def test_resync_matches_default_alerts(self):
        rng = np.random.default_rng(2)
        values = inject_spikes(rng.lognormal(1, 1, 4000), pane_size=100,
                               spike_panes=[15, 16], spike_value=300.0)
        baseline = StreamingWindowMonitor(pane_size=100, window_panes=4,
                                          threshold=80.0)
        resynced = StreamingWindowMonitor(pane_size=100, window_panes=4,
                                          threshold=80.0, resync_every=3)
        baseline.ingest(values)
        resynced.ingest(values)
        assert ([(a.start_pane, a.end_pane) for a in resynced.alerts]
                == [(a.start_pane, a.end_pane) for a in baseline.alerts])
        assert resynced.alerts

    def test_resync_every_validates(self):
        with pytest.raises(ValueError):
            StreamingWindowMonitor(pane_size=10, window_panes=2,
                                   threshold=1.0, resync_every=-1)

    def test_flush_partial_pane_through_ring(self):
        rng = np.random.default_rng(3)
        monitor = StreamingWindowMonitor(pane_size=100, window_panes=3,
                                         threshold=1e12)
        monitor.ingest(rng.lognormal(1, 1, 450))
        monitor.flush()
        assert monitor._panes[-1].count == 50
        assert monitor.current_window.count == sum(
            p.count for p in monitor._panes)
