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

:meth:`ThresholdCascade.evaluate_batch` runs the cascade over a whole
cell set at once: the cheap stages filter with the vectorized bound
kernels of :mod:`repro.core.bounds` (element-wise equal to their scalar
counterparts, so stage decisions are bit-identical), and the surviving
cells share one batched max-entropy solve
(:func:`repro.core.batch_solver.fit_estimators`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import (markov_bound, markov_bound_batch, rtt_bound,
                     rtt_bound_batch)
from .errors import ConvergenceError, EmptySketchError
from .params import check_q
from .quantile import QuantileEstimator
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

    @property
    def hit_fraction_of(self) -> float:  # pragma: no cover - convenience
        return self.resolved / self.entered if self.entered else 0.0


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
        q = check_q(q)
        sketch.require_nonempty()
        self.stats.queries += 1
        target_rank = sketch.count * q

        if "simple" in self.enabled_stages:
            outcome = self._timed("simple", self._simple, sketch, t)
            if outcome is not None:
                return ThresholdOutcome(outcome, "simple")
        if "markov" in self.enabled_stages:
            outcome = self._timed("markov", self._markov, sketch, t, target_rank)
            if outcome is not None:
                return ThresholdOutcome(outcome, "markov")
        if "rtt" in self.enabled_stages:
            outcome = self._timed("rtt", self._rtt, sketch, t, target_rank)
            if outcome is not None:
                return ThresholdOutcome(outcome, "rtt")
        result = self._timed("maxent", self._maxent, sketch, t, q)
        return ThresholdOutcome(bool(result), "maxent")

    def evaluate_batch(self, sketches, t: float,
                       q: float) -> list[ThresholdOutcome]:
        """Run the cascade over a whole cell set with batched stages.

        ``sketches`` is a sequence of :class:`MomentsSketch` or a
        :class:`~repro.core.sketch.ColumnarMoments` block (e.g. from
        :meth:`repro.store.PackedSketchStore.moment_columns`).  Each
        filter stage evaluates its bound for every still-undecided cell
        with one vectorized kernel; cells that survive all bounds share
        one batched max-entropy solve.  The vectorized bounds are
        element-wise equal to their scalar counterparts, so every
        bound-stage decision is exactly the one :meth:`evaluate` makes;
        maxent-stage decisions compare the batched estimate (which
        agrees with the scalar estimate to ~1e-13 relative) against
        ``t``, so they can only differ for a cell whose estimate sits
        within that slack of the threshold — never observed in practice
        and gated in CI.  Per-stage stats record the batched timings
        (one span per stage, not one per cell).
        """
        q = check_q(q)
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
        for name, bound_batch in (("markov", markov_bound_batch),
                                  ("rtt", rtt_bound_batch)):
            if name not in self.enabled_stages or not undecided.size:
                continue
            stats = self.stats.stages[name]
            stats.entered += undecided.size
            start = time.perf_counter()
            bounds = bound_batch(moments.take(undecided), t)
            exceeds = bounds.upper < target_ranks[undecided]
            misses = bounds.lower > target_ranks[undecided]
            decided = exceeds | misses
            undecided = record(decided, exceeds, name)
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
            for position, row in enumerate(undecided):
                estimator = estimators[position]
                if estimator is None:
                    # Non-convergent (near-discrete) cell: same sound
                    # degradation as the scalar maxent stage — the CDF
                    # midpoint of the RTT bounds.
                    bounds = rtt_bound(survivors[position], t)
                    lo, hi = bounds.fraction()
                    results[row] = 0.5 * (lo + hi) < q
                else:
                    results[row] = estimator.quantile(q) > t
                stages[row] = "maxent"
            stats.seconds += time.perf_counter() - start
            stats.resolved += int(undecided.size)
        return [ThresholdOutcome(bool(results[row]), stages[row])
                for row in range(size)]

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def _timed(self, name: str, fn, *args):
        stats = self.stats.stages[name]
        stats.entered += 1
        start = time.perf_counter()
        outcome = fn(*args)
        stats.seconds += time.perf_counter() - start
        if outcome is not None:
            stats.resolved += 1
        return outcome

    @staticmethod
    def _simple(sketch: MomentsSketch, t: float) -> bool | None:
        """Range filter: t outside [xmin, xmax] decides immediately."""
        if t >= sketch.max:
            return False
        if t < sketch.min:
            return True
        return None

    @staticmethod
    def _check_rank_bounds(lower: float, upper: float, target_rank: float) -> bool | None:
        """Resolve the predicate from rank bounds when they clear the target.

        rank(t) < n*phi for every matching dataset implies the quantile
        estimate exceeds t; rank(t) > n*phi implies it does not.  (This is
        Algorithm 2's CheckBound with the rank convention "elements below
        t" spelled out.)
        """
        if upper < target_rank:
            return True
        if lower > target_rank:
            return False
        return None

    def _markov(self, sketch: MomentsSketch, t: float, target_rank: float) -> bool | None:
        bounds = markov_bound(sketch, t)
        return self._check_rank_bounds(bounds.lower, bounds.upper, target_rank)

    def _rtt(self, sketch: MomentsSketch, t: float, target_rank: float) -> bool | None:
        bounds = rtt_bound(sketch, t)
        return self._check_rank_bounds(bounds.lower, bounds.upper, target_rank)

    def _maxent(self, sketch: MomentsSketch, t: float, q: float) -> bool:
        """Final stage: full estimate.  Convergence failures use the CDF
        midpoint of the RTT bounds, the only sound degradation available."""
        try:
            estimator = QuantileEstimator.fit(sketch, config=self.config)
        except ConvergenceError:
            bounds = rtt_bound(sketch, t)
            lo, hi = bounds.fraction()
            return 0.5 * (lo + hi) < q
        return estimator.quantile(q) > t
