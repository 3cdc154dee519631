"""Sliding-window threshold queries with turnstile semantics (Section 7.2.2).

The workload: data pre-aggregated into fixed-duration *panes* (the paper
uses 10 minutes); a query asks for every window of ``w`` consecutive panes
whose phi-quantile exceeds a threshold.

Two execution strategies, matching Figure 14:

* :class:`TurnstileWindowProcessor` — the moments sketch's power sums and
  counts subtract exactly, so sliding one pane costs one ``subtract`` plus
  one ``merge``.  The window's min/max are maintained from the per-pane
  extrema kept alongside each pane (min/max cannot be un-merged; the pane
  deque makes the recomputation exact).  Each slide's window is
  snapshotted, and one batched cascade pass
  (:meth:`~repro.core.cascade.ThresholdCascade.evaluate_batch`) then
  screens every window against the threshold.
* :func:`remerge_windows` — the strategy any non-subtractable summary is
  stuck with: re-merge all ``w`` panes at every slide (used for the
  Merge12 baseline bar).

Both strategies keep the pane ring as a
:class:`~repro.store.PackedSketchStore` (:func:`pack_panes`): the
turnstile processor builds its initial window with one vectorized
reduction, and :func:`remerge_windows_packed` turns every window
re-merge — the Merge12-style baseline cost — into a single
``batch_merge`` reduction instead of ``w`` Python-level merges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.cascade import ThresholdCascade
from ..core.params import check_q
from ..core.sketch import MomentsSketch
from ..core.solver import SolverConfig
from ..store import PackedSketchStore
from ..summaries.base import QuantileSummary
from ..summaries.moments_summary import MomentsSummary


@dataclass(frozen=True)
class Pane:
    """One pre-aggregated time pane: a sketch plus its exact extrema."""

    index: int
    sketch: MomentsSketch
    min: float
    max: float
    count: float


def build_panes(values: np.ndarray, pane_size: int, k: int = 10) -> list[Pane]:
    """Chunk a stream into panes of ``pane_size`` rows (time-ordered)."""
    values = np.asarray(values, dtype=float)
    panes = []
    for index, start in enumerate(range(0, values.size, pane_size)):
        chunk = values[start:start + pane_size]
        if chunk.size == 0:
            continue
        sketch = MomentsSketch.from_data(chunk, k=k)
        panes.append(Pane(index=index, sketch=sketch,
                          min=float(chunk.min()), max=float(chunk.max()),
                          count=float(chunk.size)))
    return panes


def pack_panes(panes: Sequence[Pane]) -> PackedSketchStore:
    """Pack pane sketches into one columnar store, row i = pane position i."""
    if not panes:
        raise ValueError("no panes to pack")
    first = panes[0].sketch
    store = PackedSketchStore(k=first.k, track_log=first.track_log,
                              capacity=len(panes))
    for pane in panes:
        store.append(pane.sketch)
    return store


@dataclass(frozen=True)
class WindowAlert:
    """A window whose quantile estimate exceeded the threshold."""

    start_pane: int
    end_pane: int
    stage: str


@dataclass(frozen=True)
class WindowQueryResult:
    alerts: list[WindowAlert]
    windows_checked: int
    merge_seconds: float
    estimation_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.merge_seconds + self.estimation_seconds


class TurnstileWindowProcessor:
    """Slides a moments-sketch window via subtract/merge (turnstile)."""

    def __init__(self, panes: Sequence[Pane], window_panes: int,
                 cascade_stages: tuple[str, ...] = ("simple", "markov", "rtt"),
                 config: SolverConfig | None = None):
        if window_panes < 1:
            raise ValueError("window must span at least one pane")
        if len(panes) < window_panes:
            raise ValueError("not enough panes for one window")
        self.panes = list(panes)
        self.window_panes = window_panes
        self.config = config or SolverConfig()
        self.cascade = ThresholdCascade(config=self.config,
                                        enabled_stages=cascade_stages)
        # Columnar pane ring: the initial window build (and any re-merge)
        # is one vectorized reduction instead of a merge loop.
        self.store = pack_panes(self.panes)

    def rebuild_window(self, position: int) -> MomentsSketch:
        """Re-merge the window starting at ``position`` in one reduction.

        Bit-for-bit identical to the sequential copy+merge fold over the
        same panes; useful to cancel subtract-induced float drift on very
        long streams and as the packed Merge12-style baseline step.
        """
        return self.store.batch_merge(
            np.arange(position, position + self.window_panes))

    def query(self, threshold: float, q: float = 0.99) -> WindowQueryResult:
        """Find all windows with ``quantile(q) > threshold``.

        Slides the window pane by pane (merge the incoming pane, subtract
        the outgoing one), snapshotting each step, then screens every
        snapshot with one batched cascade pass.
        """
        q = check_q(q)
        w = self.window_panes
        start = time.perf_counter()
        window = self.rebuild_window(0)
        windows = [window.copy()]
        for position in range(len(self.panes) - w):
            surviving = self.panes[position + 1:position + w + 1]
            window.merge(surviving[-1].sketch)
            window.subtract(self.panes[position].sketch,
                            new_min=min(p.min for p in surviving),
                            new_max=max(p.max for p in surviving))
            windows.append(window.copy())
        merge_seconds = time.perf_counter() - start

        start = time.perf_counter()
        outcomes = self.cascade.evaluate_batch(windows, threshold, q)
        estimation_seconds = time.perf_counter() - start
        alerts = [WindowAlert(start_pane=self.panes[position].index,
                              end_pane=self.panes[position + w - 1].index,
                              stage=outcome.stage)
                  for position, outcome in enumerate(outcomes)
                  if outcome.result]
        return WindowQueryResult(alerts=alerts, windows_checked=len(windows),
                                 merge_seconds=merge_seconds,
                                 estimation_seconds=estimation_seconds)


def remerge_windows(pane_summaries: Sequence[QuantileSummary], window_panes: int,
                    threshold: float, q: float = 0.99) -> WindowQueryResult:
    """Baseline for non-subtractable summaries: re-merge every window."""
    q = check_q(q)
    if len(pane_summaries) < window_panes:
        raise ValueError("not enough panes for one window")
    alerts: list[WindowAlert] = []
    merge_seconds = 0.0
    estimation_seconds = 0.0
    for position in range(len(pane_summaries) - window_panes + 1):
        start = time.perf_counter()
        window = pane_summaries[position].copy()
        for summary in pane_summaries[position + 1:position + window_panes]:
            window.merge(summary)
        merge_seconds += time.perf_counter() - start
        start = time.perf_counter()
        estimate = window.quantile(q)
        estimation_seconds += time.perf_counter() - start
        if estimate > threshold:
            alerts.append(WindowAlert(start_pane=position,
                                      end_pane=position + window_panes - 1,
                                      stage="estimate"))
    return WindowQueryResult(alerts=alerts,
                             windows_checked=len(pane_summaries) - window_panes + 1,
                             merge_seconds=merge_seconds,
                             estimation_seconds=estimation_seconds)


def remerge_windows_packed(panes: Sequence[Pane], window_panes: int,
                           threshold: float, q: float = 0.99,
                           config: SolverConfig | None = None
                           ) -> WindowQueryResult:
    """Re-merge strategy over a packed pane ring: one reduction per window.

    The same plan as :func:`remerge_windows` (re-merge all ``w`` panes at
    every slide — what a non-subtractable summary is forced to do), but
    with the pane ring packed columnar so each window's merge is a single
    ``batch_merge`` reduction.  Alerts match the loop-based re-merge
    exactly: the merged sketches are bit-for-bit identical.
    """
    q = check_q(q)
    if window_panes < 1:
        raise ValueError("window must span at least one pane")
    if len(panes) < window_panes:
        raise ValueError("not enough panes for one window")
    config = config or SolverConfig()
    store = pack_panes(panes)
    alerts: list[WindowAlert] = []
    merge_seconds = 0.0
    estimation_seconds = 0.0
    for position in range(len(panes) - window_panes + 1):
        start = time.perf_counter()
        merged = store.batch_merge(
            np.arange(position, position + window_panes))
        merge_seconds += time.perf_counter() - start
        start = time.perf_counter()
        summary = MomentsSummary(k=merged.k, track_log=merged.track_log,
                                 config=config)
        summary.sketch = merged
        estimate = summary.quantile(q)
        estimation_seconds += time.perf_counter() - start
        if estimate > threshold:
            alerts.append(WindowAlert(
                start_pane=panes[position].index,
                end_pane=panes[position + window_panes - 1].index,
                stage="estimate"))
    return WindowQueryResult(alerts=alerts,
                             windows_checked=len(panes) - window_panes + 1,
                             merge_seconds=merge_seconds,
                             estimation_seconds=estimation_seconds)


def inject_spikes(values: np.ndarray, pane_size: int, spike_panes: Sequence[int],
                  spike_value: float, spike_fraction: float = 0.1,
                  seed: int = 0) -> np.ndarray:
    """Add hypothetical anomaly spikes to a stream (the Section 7.2.2 setup:
    each spike contributes ``spike_fraction`` more data at ``spike_value``
    across the given panes)."""
    rng = np.random.default_rng(seed)
    values = np.asarray(values, dtype=float).copy()
    for pane in spike_panes:
        start = pane * pane_size
        end = min(start + pane_size, values.size)
        if start >= values.size:
            continue
        count = max(int((end - start) * spike_fraction), 1)
        positions = rng.integers(start, end, size=count)
        values[positions] = spike_value
    return values
