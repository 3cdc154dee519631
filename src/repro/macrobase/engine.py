"""Simplified MacroBase deployment (Section 7.2.1, Figures 12-13).

MacroBase [8] searches for dimension values whose outlier rate is unusually
high.  The paper's simplified deployment defines outliers as values above
the global 99th percentile ``t99`` and asks for subpopulations whose outlier
rate is at least ``r`` times the overall rate — equivalently, subpopulations
whose ``(1 - r * 0.01)``-quantile exceeds ``t99`` (with the paper's
``r = 30``: the 70th percentile).

Pipeline over a cube of pre-aggregated moments sketches:

1. merge everything and estimate ``t99`` (one max-entropy solve);
2. evaluate ``quantile(0.7) > t99`` for every candidate subgroup with one
   batched threshold-cascade pass over all groups — the Figure 12 lesion
   toggles cascade stages.

Two Merge12 baselines reproduce the comparison: ``merge12a`` runs the same
plan over a Merge12 cube; ``merge12b`` is the optimistic variant that
pre-computes per-cell counts above ``t99`` and just sums counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core.cascade import CascadeStats, ThresholdCascade
from ..core.errors import QueryError
from ..core.sketch import MomentsSketch, merge_all
from ..core.quantile import safe_estimate_quantiles
from ..core.solver import SolverConfig
from ..store import PackedSketchStore
from ..summaries import Merge12Summary


@dataclass(frozen=True)
class OutlierGroup:
    """One reported subgroup: which dimension value tripped the threshold."""

    dimension: int
    value: object
    stage: str


@dataclass
class MacroBaseReport:
    """Query output plus the timing decomposition of Figure 12."""

    threshold: float
    groups: list[OutlierGroup]
    merge_seconds: float
    estimation_seconds: float
    cascade_stats: CascadeStats | None = None
    candidates_checked: int = 0

    @property
    def total_seconds(self) -> float:
        return self.merge_seconds + self.estimation_seconds


@dataclass
class MomentsCube:
    """Cube cells: dimension tuple -> moments sketch (plus raw counts cache
    for the optimistic counter baseline)."""

    cells: dict[tuple, MomentsSketch] = field(default_factory=dict)

    @classmethod
    def build(cls, dimension_columns: Sequence[np.ndarray], values: np.ndarray,
              k: int = 10) -> "MomentsCube":
        cube = cls()
        keys = list(zip(*[np.asarray(c) for c in dimension_columns]))
        values = np.asarray(values, dtype=float)
        order = sorted(range(len(keys)), key=lambda i: keys[i])
        sorted_keys = [keys[i] for i in order]
        sorted_values = values[order]
        start = 0
        for i in range(1, len(sorted_keys) + 1):
            if i == len(sorted_keys) or sorted_keys[i] != sorted_keys[start]:
                sketch = MomentsSketch(k=k)
                sketch.accumulate(sorted_values[start:i])
                cube.cells[tuple(sorted_keys[start])] = sketch
                start = i
        return cube

    @property
    def num_cells(self) -> int:
        return len(self.cells)


class MacroBaseEngine:
    """Threshold-search engine over a moments-sketch cube."""

    def __init__(self, cube: MomentsCube,
                 cascade_stages: tuple[str, ...] = ("simple", "markov", "rtt"),
                 config: SolverConfig | None = None):
        self.cube = cube
        self.config = config or SolverConfig()
        self.cascade = ThresholdCascade(config=self.config,
                                        enabled_stages=cascade_stages)

    # ------------------------------------------------------------------

    def global_quantile(self, phi: float = 0.99) -> tuple[float, float, MomentsSketch]:
        """Merge every cell and estimate the global phi-quantile."""
        start = time.perf_counter()
        merged = merge_all(self.cube.cells.values())
        merge_seconds = time.perf_counter() - start
        threshold = float(safe_estimate_quantiles(merged, [phi], self.config)[0])
        return threshold, merge_seconds, merged

    def _dimension_groups(self) -> dict[tuple[int, object], MomentsSketch]:
        """Roll cells up to every (dimension index, value) subpopulation.

        The cells are packed once and every group is one reduction of
        its cells in cube order
        (:meth:`~repro.store.PackedSketchStore.batch_merge_by`), so each
        group equals merging its cells one by one; groups come in
        first-seen order.
        """
        cells = self.cube.cells
        if not cells:
            return {}
        store = PackedSketchStore.from_sketches(cells.values())
        rows = [row for row, key in enumerate(cells) for _ in key]
        keys = [group for key in cells for group in enumerate(key)]
        return store.batch_merge_by(rows, keys)

    def find_outlier_groups(self, outlier_phi: float = 0.99,
                            rate_multiplier: float = 30.0) -> MacroBaseReport:
        """The Section 7.2.1 query: subgroups with elevated outlier rates.

        With overall outlier rate ``1 - outlier_phi`` and multiplier ``r``,
        a subgroup qualifies when its outlier rate exceeds
        ``r * (1 - outlier_phi)`` — i.e. its ``1 - r (1 - outlier_phi)``
        quantile exceeds the global threshold.
        """
        group_phi = 1.0 - rate_multiplier * (1.0 - outlier_phi)
        if not 0.0 < group_phi < 1.0:
            raise QueryError(
                f"rate multiplier {rate_multiplier} out of range for "
                f"phi={outlier_phi}")
        threshold, global_merge_seconds, _ = self.global_quantile(outlier_phi)

        start = time.perf_counter()
        groups = self._dimension_groups()
        group_merge_seconds = time.perf_counter() - start

        start = time.perf_counter()
        outcomes = self.cascade.evaluate_batch(list(groups.values()),
                                               threshold, group_phi)
        found = [OutlierGroup(dimension=dim, value=value, stage=outcome.stage)
                 for (dim, value), outcome in zip(groups, outcomes)
                 if outcome.result]
        estimation_seconds = time.perf_counter() - start
        return MacroBaseReport(
            threshold=threshold,
            groups=found,
            merge_seconds=global_merge_seconds + group_merge_seconds,
            estimation_seconds=estimation_seconds,
            cascade_stats=self.cascade.stats,
            candidates_checked=len(groups),
        )


# ----------------------------------------------------------------------
# Merge12 baselines (Figure 12's comparison bars)
# ----------------------------------------------------------------------

def merge12a_query(dimension_columns: Sequence[np.ndarray], values: np.ndarray,
                   outlier_phi: float = 0.99, rate_multiplier: float = 30.0,
                   k: int = 32, seed: int = 0) -> MacroBaseReport:
    """Same plan with Merge12 sketches merged during execution."""
    group_phi = 1.0 - rate_multiplier * (1.0 - outlier_phi)
    values = np.asarray(values, dtype=float)
    keys = list(zip(*[np.asarray(c) for c in dimension_columns]))
    cells: dict[tuple, Merge12Summary] = {}
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    start_i = 0
    sorted_keys = [keys[i] for i in order]
    sorted_values = values[order]
    for i in range(1, len(sorted_keys) + 1):
        if i == len(sorted_keys) or sorted_keys[i] != sorted_keys[start_i]:
            summary = Merge12Summary(k=k, seed=seed)
            summary.accumulate(sorted_values[start_i:i])
            cells[tuple(sorted_keys[start_i])] = summary
            start_i = i

    start = time.perf_counter()
    everything: Merge12Summary | None = None
    groups: dict[tuple[int, object], Merge12Summary] = {}
    for key, summary in cells.items():
        everything = summary.copy() if everything is None else everything.merge(summary)
        for dim, value in enumerate(key):
            group_key = (dim, value)
            if group_key in groups:
                groups[group_key].merge(summary)
            else:
                groups[group_key] = summary.copy()
    assert everything is not None
    merge_seconds = time.perf_counter() - start

    start = time.perf_counter()
    threshold = everything.quantile(outlier_phi)
    found = [OutlierGroup(dimension=dim, value=value, stage="estimate")
             for (dim, value), summary in groups.items()
             if summary.quantile(group_phi) > threshold]
    estimation_seconds = time.perf_counter() - start
    return MacroBaseReport(threshold=threshold, groups=found,
                           merge_seconds=merge_seconds,
                           estimation_seconds=estimation_seconds,
                           candidates_checked=len(groups))


def merge12b_query(dimension_columns: Sequence[np.ndarray], values: np.ndarray,
                   outlier_phi: float = 0.99, rate_multiplier: float = 30.0,
                   k: int = 32, seed: int = 0) -> MacroBaseReport:
    """Optimistic counter baseline: pre-computed counts above the threshold.

    Computes the global threshold from a Merge12 sketch of everything, then
    counts values above it per subgroup *directly from the raw rows* — a
    best case that is "not always a feasible substitute for merging
    summaries" (the threshold must be known before pre-aggregation).
    """
    values = np.asarray(values, dtype=float)
    summary = Merge12Summary(k=k, seed=seed)
    start = time.perf_counter()
    summary.accumulate(values)
    threshold = summary.quantile(outlier_phi)
    outlier_mask = values > threshold
    target_rate = rate_multiplier * (1.0 - outlier_phi)
    found: list[OutlierGroup] = []
    candidates = 0
    for dim, column in enumerate(dimension_columns):
        column = np.asarray(column)
        for value in np.unique(column):
            mask = column == value
            candidates += 1
            rate = float(outlier_mask[mask].mean()) if mask.any() else 0.0
            if rate > target_rate:
                found.append(OutlierGroup(dimension=dim, value=value, stage="counts"))
    total = time.perf_counter() - start
    return MacroBaseReport(threshold=threshold, groups=found,
                           merge_seconds=total, estimation_seconds=0.0,
                           candidates_checked=candidates)
