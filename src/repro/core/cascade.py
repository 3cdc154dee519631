"""Threshold-query cascade (Section 5.2, Algorithm 2).

Threshold queries ("HAVING p99 > 100") over many subgroups would pay the
~millisecond max-entropy solve per group.  The cascade sequences
progressively tighter, progressively more expensive checks:

1. **simple** — range filter against [xmin, xmax],
2. **markov** — Markov-inequality rank bounds,
3. **rtt** — RTT canonical-representation rank bounds,
4. **maxent** — the full quantile estimate.

Each stage either resolves the predicate or falls through.  Because stages
2-3 bound the rank for *every* distribution matching the moments, the
cascade returns exactly the same answer the max-entropy estimate alone
would — no false negatives or positives relative to the baseline
(Section 5.2).  Per-stage hit counts and timings are collected for the
Figure 13 analysis.

:meth:`ThresholdCascade.evaluate_batch` is the one implementation: it
runs the cascade over a whole cell set at once, each bound stage filters
every undecided cell with one vectorized kernel of
:mod:`repro.core.bounds`, and the surviving cells share one batched
max-entropy solve (:func:`repro.core.batch_solver.fit_estimators`).
:meth:`~ThresholdCascade.evaluate` is its one-row case, so a cell's
decision and stage are the same alone or in any batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import _rtt_bound_rows, markov_bound_batch, rtt_bound_batch
from .errors import BoundError, EmptySketchError
from .params import check_q
from .sketch import ColumnarMoments, MomentsSketch
from .solver import SolverConfig

#: Cascade stage names, cheapest first.
STAGES = ("simple", "markov", "rtt", "maxent")


@dataclass
class StageStats:
    """Hits and cumulative time for one cascade stage."""

    entered: int = 0
    resolved: int = 0
    seconds: float = 0.0


@dataclass
class CascadeStats:
    """Aggregated per-stage statistics across many threshold evaluations."""

    stages: dict[str, StageStats] = field(
        default_factory=lambda: {name: StageStats() for name in STAGES})
    queries: int = 0

    def fraction_entered(self, stage: str) -> float:
        """Fraction of all queries that reached ``stage`` (Figure 13c)."""
        if self.queries == 0:
            return 0.0
        return self.stages[stage].entered / self.queries

    def stage_throughput(self, stage: str) -> float:
        """Evaluations per second for ``stage`` in isolation (Figure 13b)."""
        stats = self.stages[stage]
        if stats.seconds <= 0:
            return float("inf")
        return stats.entered / stats.seconds

    def summary(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "entered": self.stages[name].entered,
                "resolved": self.stages[name].resolved,
                "fraction_entered": self.fraction_entered(name),
                "throughput_qps": self.stage_throughput(name),
            }
            for name in STAGES
        }


@dataclass(frozen=True)
class ThresholdOutcome:
    """Result of one threshold evaluation: the answer and which stage won."""

    result: bool
    stage: str


class ThresholdCascade:
    """Evaluates ``quantile(q) > t`` predicates over moments sketches.

    ``enabled_stages`` restricts which filters run (the Figure 12/13 lesion
    adds them one at a time); the max-entropy fallback always runs last.
    """

    def __init__(self, config: SolverConfig | None = None,
                 enabled_stages: tuple[str, ...] = ("simple", "markov", "rtt")):
        unknown = set(enabled_stages) - set(STAGES)
        if unknown:
            raise ValueError(f"unknown cascade stages: {sorted(unknown)}")
        self.config = config or SolverConfig()
        self.enabled_stages = tuple(s for s in STAGES[:3] if s in enabled_stages)
        self.stats = CascadeStats()

    # ------------------------------------------------------------------

    def threshold(self, sketch: MomentsSketch, t: float, q: float) -> bool:
        """Algorithm 2: is the q-quantile estimate greater than ``t``?"""
        return self.evaluate(sketch, t, q).result

    def evaluate(self, sketch: MomentsSketch, t: float,
                 q: float) -> ThresholdOutcome:
        """Like :meth:`threshold` but reports which stage decided."""
        return self.evaluate_batch([sketch], t, q)[0]

    def evaluate_batch(self, sketches, t: float,
                       q: float) -> list[ThresholdOutcome]:
        """Run the cascade over a whole cell set with batched stages.

        ``sketches`` is a sequence of :class:`MomentsSketch` or a
        :class:`~repro.core.sketch.ColumnarMoments` block (e.g. from
        :meth:`repro.store.PackedSketchStore.moment_columns`).  Each
        filter stage evaluates its bound for every still-undecided cell
        with one vectorized kernel; cells that survive all bounds share
        one batched max-entropy solve.  The bound kernels and the fit are
        row-wise, so a cell's decision and stage do not depend on which
        other cells share the batch.  A NaN ``t`` raises
        :class:`BoundError` whichever stages are enabled.  Per-stage stats
        record the batched timings (one span per stage, not one per cell).
        """
        q = check_q(q)
        if np.isnan(t):
            raise BoundError("thresholds must not be NaN")
        if isinstance(sketches, ColumnarMoments):
            moments = sketches
            cells: list[MomentsSketch | None] = [None] * len(moments)
        else:
            cells = list(sketches)
            moments = ColumnarMoments.from_sketches(cells)
        if np.any(moments.counts <= 0):
            raise EmptySketchError("sketch holds no data")
        size = len(moments)
        self.stats.queries += size
        target_ranks = moments.counts * q
        results = np.zeros(size, dtype=bool)
        stages = [""] * size
        undecided = np.arange(size)

        def record(local_decided: np.ndarray, values: np.ndarray,
                   stage: str) -> np.ndarray:
            rows = undecided[local_decided]
            results[rows] = values[local_decided]
            for row in rows:
                stages[row] = stage
            return undecided[~local_decided]

        if "simple" in self.enabled_stages and undecided.size:
            stats = self.stats.stages["simple"]
            stats.entered += undecided.size
            start = time.perf_counter()
            mins = moments.mins[undecided]
            maxs = moments.maxs[undecided]
            decided = (t >= maxs) | (t < mins)
            undecided = record(decided, t < mins, "simple")
            stats.seconds += time.perf_counter() - start
            stats.resolved += int(decided.sum())
        markov = None
        for name in ("markov", "rtt"):
            if name not in self.enabled_stages or not undecided.size:
                continue
            stats = self.stats.stages[name]
            stats.entered += undecided.size
            start = time.perf_counter()
            block = moments.take(undecided)
            if name == "markov":
                bounds = markov_bound_batch(block, t)
            elif markov is None:
                bounds = rtt_bound_batch(block, t)
            else:
                bounds = _rtt_bound_rows(block, t, markov)
            exceeds = bounds.upper < target_ranks[undecided]
            misses = bounds.lower > target_ranks[undecided]
            decided = exceeds | misses
            undecided = record(decided, exceeds, name)
            if name == "markov":
                # RTT intersects with these rows' Markov bounds: hand
                # them to its core rather than recompute them (row-wise,
                # so the values are the same).
                markov = bounds.take(~decided)
            stats.seconds += time.perf_counter() - start
            stats.resolved += int(decided.sum())
        if undecided.size:
            stats = self.stats.stages["maxent"]
            stats.entered += undecided.size
            start = time.perf_counter()
            survivors = [cells[row] if cells[row] is not None
                         else moments.sketch_at(row) for row in undecided]
            from .batch_solver import fit_estimators
            estimators, _, _ = fit_estimators(survivors, self.config)
            for row, estimator in zip(undecided, estimators):
                stages[row] = "maxent"
                if estimator is not None:
                    results[row] = estimator.quantile(q) > t
            failed = undecided[[e is None for e in estimators]]
            if failed.size:
                # Non-convergent (near-discrete) cells: the only sound
                # degradation available is the CDF midpoint of the RTT
                # bounds, one row-wise bound call for all of them.
                lo, hi = rtt_bound_batch(moments.take(failed), t).fractions()
                results[failed] = 0.5 * (lo + hi) < q
            stats.seconds += time.perf_counter() - start
            stats.resolved += int(undecided.size)
        return [ThresholdOutcome(bool(results[row]), stages[row])
                for row in range(size)]
