"""Online streaming window monitor (the operational form of Section 7.2.2).

:class:`TurnstileWindowProcessor` answers historical window queries over a
finished stream; this module provides the *live* counterpart an operations
team would actually deploy: values arrive incrementally, panes seal on a
row-count boundary, the active window slides with turnstile updates, and a
callback fires the moment a window's quantile estimate crosses the alert
threshold.

The monitor holds at most ``window_panes`` sealed pane sketches plus the
open pane buffer — O(window) memory regardless of stream length — and each
pane boundary costs one merge, one subtract, and one cascade evaluation.

The sealed panes live in a fixed-capacity
:class:`~repro.store.PackedSketchStore` ring (``window_panes + 1`` rows,
reused round-robin), so pane state is columnar: sealing writes into one
row, the per-pane :class:`Pane` records carry zero-copy view sketches,
and :meth:`StreamingWindowMonitor.recompute_window` can re-merge the
whole ring in a single vectorized reduction — used every
``resync_every`` panes to cancel the float drift that pure
subtract/merge turnstile updates accumulate on unbounded streams.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..core.cascade import ThresholdCascade
from ..core.errors import QueryError
from ..core.params import check_q
from ..core.sketch import MomentsSketch
from ..core.solver import SolverConfig
from ..store import PackedSketchStore
from .sliding import Pane, WindowAlert


@dataclass(frozen=True)
class MonitorState:
    """Snapshot of the monitor after a pane boundary."""

    pane_index: int
    window_count: float
    alert: WindowAlert | None


class StreamingWindowMonitor:
    """Incremental sliding-window threshold monitor over a value stream.

    Parameters
    ----------
    pane_size:
        Rows per pane (the paper's ten-minute granularity, by count).
    window_panes:
        Panes per query window (e.g. 24 for 4h windows of 10min panes).
    threshold, phi:
        Alert when ``quantile(phi) > threshold`` for the current window.
    on_alert:
        Optional callback invoked with each :class:`WindowAlert` as it
        fires (the "alerting" of Section 7.2.2).
    resync_every:
        Rebuild the window from the packed pane ring (one vectorized
        reduction) every this many sealed panes, cancelling turnstile
        float drift.  ``0`` (the default) disables periodic resync;
        :meth:`recompute_window` remains available for manual repair.
    """

    def __init__(self, pane_size: int, window_panes: int, threshold: float,
                 phi: float = 0.99, k: int = 10,
                 on_alert: Callable[[WindowAlert], None] | None = None,
                 config: SolverConfig | None = None,
                 resync_every: int = 0):
        if pane_size < 1:
            raise ValueError(f"pane_size must be positive, got {pane_size}")
        if window_panes < 1:
            raise ValueError(f"window_panes must be positive, got {window_panes}")
        if resync_every < 0:
            raise ValueError(f"resync_every must be >= 0, got {resync_every}")
        self.pane_size = int(pane_size)
        self.window_panes = int(window_panes)
        self.threshold = float(threshold)
        if np.isnan(self.threshold):
            raise QueryError("threshold must not be NaN")
        self.phi = check_q(phi)
        self.k = int(k)
        self.on_alert = on_alert
        self.config = config or SolverConfig()
        self.resync_every = int(resync_every)
        self.cascade = ThresholdCascade(config=self.config)

        # Pane ring: w+1 packed rows reused round-robin.  A sealing pane
        # claims slot index % (w+1); the slot it overwrites belonged to a
        # pane that slid out of the window one boundary earlier.
        self._ring = PackedSketchStore(k=self.k,
                                       capacity=self.window_panes + 1)
        for _ in range(self.window_panes + 1):
            self._ring.new_row()
        self._panes: deque[Pane] = deque()
        self._window: MomentsSketch | None = None
        self._open_values: list[float] = []
        self._pane_index = 0
        self.alerts: list[WindowAlert] = []
        self.states: list[MonitorState] = []

    # ------------------------------------------------------------------

    @property
    def window_ready(self) -> bool:
        """True once a full window of sealed panes exists."""
        return len(self._panes) == self.window_panes

    def ingest(self, values: Iterable[float]) -> list[WindowAlert]:
        """Feed stream values; returns any alerts raised by sealed panes.

        Thin shim over the unified ingestion API (:mod:`repro.ingest`):
        the batch is written through
        :class:`~repro.ingest.WindowWriteBackend` in a single flush
        (identical pane sealing, identical alerts).  Use an
        :class:`~repro.ingest.IngestSession` for buffered micro-batched
        writes and per-flush reports.
        """
        from ..ingest.backends import WindowWriteBackend
        from ..ingest.buffer import make_batch
        outcome = WindowWriteBackend(self).write(make_batch(values))
        return outcome.alerts or []

    def _ingest_values(self, values: Iterable[float]) -> list[WindowAlert]:
        """One-batch pane-sealing kernel behind :meth:`ingest`."""
        x = np.atleast_1d(np.asarray(values, dtype=float))
        new_alerts: list[WindowAlert] = []
        cursor = 0
        while cursor < x.size:
            room = self.pane_size - len(self._open_values)
            take = min(room, x.size - cursor)
            self._open_values.extend(x[cursor:cursor + take].tolist())
            cursor += take
            if len(self._open_values) == self.pane_size:
                alert = self._seal_pane()
                if alert is not None:
                    new_alerts.append(alert)
        return new_alerts

    def _seal_pane(self) -> WindowAlert | None:
        chunk = np.asarray(self._open_values)
        self._open_values = []
        slot = self._pane_index % (self.window_panes + 1)
        self._ring.clear_row(slot)
        self._ring.accumulate_row(slot, chunk)
        # The pane's sketch is a zero-copy view of its ring row; it stays
        # valid until the slot is reused, which happens only after the
        # pane has slid out of the window and been subtracted.
        pane = Pane(index=self._pane_index,
                    sketch=self._ring.sketch_at(slot, copy=False),
                    min=float(chunk.min()), max=float(chunk.max()),
                    count=float(chunk.size))
        self._pane_index += 1

        if self._window is None:
            self._window = pane.sketch.copy()
        else:
            self._window.merge(pane.sketch)
        self._panes.append(pane)
        if len(self._panes) > self.window_panes:
            outgoing = self._panes.popleft()
            self._window.subtract(
                outgoing.sketch,
                new_min=min(p.min for p in self._panes),
                new_max=max(p.max for p in self._panes))
            if self.resync_every and pane.index % self.resync_every == 0:
                self._window = self.recompute_window()

        alert = None
        if self.window_ready:
            outcome = self.cascade.evaluate(self._window, self.threshold, self.phi)
            if outcome.result:
                alert = WindowAlert(start_pane=self._panes[0].index,
                                    end_pane=self._panes[-1].index,
                                    stage=outcome.stage)
                self.alerts.append(alert)
                if self.on_alert is not None:
                    self.on_alert(alert)
        self.states.append(MonitorState(pane_index=pane.index,
                                        window_count=self._window.count,
                                        alert=alert))
        return alert

    def flush(self) -> WindowAlert | None:
        """Seal a partial open pane (end-of-stream); returns its alert."""
        if not self._open_values:
            return None
        # Pad semantics: a short final pane is sealed as-is.
        original_size = self.pane_size
        self.pane_size = len(self._open_values)
        try:
            return self._seal_pane()
        finally:
            self.pane_size = original_size

    @property
    def current_window(self) -> MomentsSketch | None:
        """The live window sketch (None before the first sealed pane)."""
        return self._window

    def recompute_window(self) -> MomentsSketch:
        """Re-merge the sealed pane ring in one vectorized reduction.

        Bit-for-bit identical to merging the live panes sequentially in
        pane order — i.e. a drift-free replacement for the turnstile
        window.  Raises if no pane has been sealed yet.
        """
        if not self._panes:
            raise ValueError("no sealed panes to merge")
        slots = np.asarray(
            [p.index % (self.window_panes + 1) for p in self._panes],
            dtype=np.intp)
        return self._ring.batch_merge(slots)
