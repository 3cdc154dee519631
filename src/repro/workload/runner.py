"""Query-time measurement harness (Sections 6.2.1-6.2.2).

Implements the paper's cost model ``t_query = t_merge * n_merge + t_est``
(Eq. 2) as direct measurements: given a pre-aggregated cell set, time the
merge fold and the final quantile estimation separately, so the Figure 4 /
Figure 5 / Figure 6 decompositions fall out of one runner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..summaries.base import QuantileSummary
from .cells import PHI_GRID, CellSet, PackedCellSet, quantile_errors


def _api_query(backend, phis: np.ndarray):
    """Run one fused multi-quantile spec; return (estimates, rollup, timings).

    The shared execution path behind :func:`run_query` and
    :func:`run_packed_query`: both delegate to the unified query API so
    the measured merge/solve decomposition is exactly what
    :class:`~repro.api.QueryService` reports for any other client.
    """
    from ..api import QuerySpec, QueryService, qkey

    service = QueryService(cells=backend)
    spec = QuerySpec(kind="quantile",
                     quantiles=tuple(float(p) for p in np.asarray(phis)))
    response = service.execute(spec)
    estimates = np.asarray([response.estimates[qkey(p)] for p in phis])
    return estimates, service.last_rollup, response.timings


@dataclass(frozen=True)
class QueryTiming:
    """Measured decomposition of one aggregation query."""

    summary_name: str
    num_merges: int
    merge_seconds: float
    estimate_seconds: float
    mean_error: float
    size_bytes: int

    @property
    def total_seconds(self) -> float:
        return self.merge_seconds + self.estimate_seconds

    @property
    def merge_seconds_each(self) -> float:
        return self.merge_seconds / self.num_merges if self.num_merges else 0.0


def run_query(cells: CellSet, phis: np.ndarray = PHI_GRID,
              num_cells: int | None = None) -> QueryTiming:
    """Merge the cell summaries, estimate quantiles, time both phases.

    ``num_cells`` limits the merge fold (Figure 6's x-axis); ground-truth
    error is computed against exactly the data covered by the merged cells.
    """
    summaries: Sequence[QuantileSummary] = cells.summaries
    if num_cells is not None:
        summaries = summaries[:num_cells]
    if not summaries:
        raise ValueError("no cells to query")

    from ..api import SummariesBackend
    estimates, rollup, timings = _api_query(SummariesBackend(summaries), phis)
    aggregate = rollup.summary

    covered = cells.data[: len(summaries) * cells.cell_size]
    errors = quantile_errors(np.sort(covered), estimates, phis)
    return QueryTiming(
        summary_name=aggregate.name,
        num_merges=len(summaries) - 1,
        merge_seconds=timings.merge_seconds,
        estimate_seconds=timings.solve_seconds,
        mean_error=float(np.mean(errors)),
        size_bytes=aggregate.size_bytes(),
    )


def run_packed_query(cells: PackedCellSet, phis: np.ndarray = PHI_GRID,
                     num_cells: int | None = None) -> QueryTiming:
    """Packed counterpart of :func:`run_query`: one reduction, then estimate.

    The merge fold over ``n`` cells collapses into a single
    ``batch_merge`` reduction over the packed store's first ``n`` rows —
    the Eq. 2 merge term at hardware speed.  The merged sketch is
    bit-for-bit identical to :func:`run_query`'s sequential fold, so the
    reported error is directly comparable.
    """
    n = cells.num_cells if num_cells is None else min(num_cells, cells.num_cells)
    if n == 0:
        raise ValueError("no cells to query")

    from ..api import PackedStoreBackend
    backend = PackedStoreBackend(cells.store, config=cells.config,
                                 rows=np.arange(n))
    estimates, rollup, timings = _api_query(backend, phis)
    aggregate = rollup.summary

    covered = cells.data[: n * cells.cell_size]
    errors = quantile_errors(np.sort(covered), estimates, phis)
    return QueryTiming(
        summary_name=f"{aggregate.name} (packed)",
        num_merges=n - 1,
        merge_seconds=timings.merge_seconds,
        estimate_seconds=timings.solve_seconds,
        mean_error=float(np.mean(errors)),
        size_bytes=aggregate.size_bytes(),
    )


def time_merges(cells: CellSet, repeats: int = 1) -> float:
    """Average seconds per merge over the cell set (Figure 4's metric)."""
    total = 0.0
    merges = 0
    for _ in range(repeats):
        aggregate = cells.summaries[0].copy()
        start = time.perf_counter()
        for summary in cells.summaries[1:]:
            aggregate.merge(summary)
        total += time.perf_counter() - start
        merges += len(cells.summaries) - 1
    return total / merges if merges else 0.0


def time_estimation(summary: QuantileSummary, phis: np.ndarray = PHI_GRID,
                    repeats: int = 3) -> float:
    """Average seconds for one full quantile-estimation pass (Figure 5).

    Each repeat works on a fresh copy so estimator caches (the moments
    sketch memoizes its solve) do not hide the real cost.
    """
    total = 0.0
    for _ in range(repeats):
        fresh = summary.copy()
        start = time.perf_counter()
        fresh.quantiles(phis)
        total += time.perf_counter() - start
    return total / repeats
