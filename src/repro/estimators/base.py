"""Shared scaffolding for the lesion-study quantile estimators (Section 6.3).

Every estimator consumes the same inputs — the moments recorded in a
:class:`~repro.core.sketch.MomentsSketch` — and produces quantile estimates,
so Figure 10 isolates the estimation *method* while holding the summary
fixed.  Following the paper's protocol, the milan comparison feeds only the
log moments and the hepmass comparison only the standard moments; the
``use_log`` switch selects which family an estimator sees.

Estimators operating on a discretized support (svd, cvx-min, cvx-maxent)
share the grid helpers here; estimators solving the max-entropy dual
(newton, bfgs, opt) share the basis construction in :mod:`repro.core.solver`.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

import numpy as np

from ..core.errors import EstimationError
from ..core.moments import ScaledSupport, raw_moments, shifted_scaled_moments
from ..core.sketch import MomentsSketch


@dataclass(frozen=True)
class MomentProblem:
    """Moments of data scaled onto [-1, 1], ready for any estimator.

    ``moments[i] = E[u**i]`` with u the scaled data (or scaled log-data when
    ``use_log``); ``support`` maps back to data units.
    """

    moments: np.ndarray
    support: ScaledSupport
    use_log: bool
    count: float

    def to_data_units(self, u: np.ndarray) -> np.ndarray:
        x = self.support.unscale(np.asarray(u, dtype=float))
        return np.exp(x) if self.use_log else x


def build_problem(sketch: MomentsSketch, k: int | None = None,
                  use_log: bool = False) -> MomentProblem:
    """Extract a scaled moment problem from a sketch.

    ``use_log=True`` uses the log-moment family (requires positive data);
    the support then covers ``[log xmin, log xmax]``.
    """
    sketch.require_nonempty()
    if k is None:
        k = sketch.k
    if k > sketch.k:
        raise EstimationError(f"sketch only holds {sketch.k} moments, asked for {k}")
    if use_log:
        if not sketch.has_log_moments:
            raise EstimationError("log moments unavailable for this sketch")
        support = ScaledSupport(float(np.log(sketch.min)), float(np.log(sketch.max)))
        mu = raw_moments(sketch.log_sums[: k + 1], sketch.count)
    else:
        support = ScaledSupport(sketch.min, sketch.max)
        mu = raw_moments(sketch.power_sums[: k + 1], sketch.count)
    scaled = shifted_scaled_moments(mu, support)
    return MomentProblem(moments=scaled, support=support, use_log=use_log,
                         count=sketch.count)


class MomentEstimator(abc.ABC):
    """A quantile estimator driven purely by sketch moments."""

    #: Display name matching Figure 10's x-axis.
    name: str = "abstract"

    @abc.abstractmethod
    def quantiles(self, problem: MomentProblem, phis: np.ndarray) -> np.ndarray:
        """Quantile estimates (data units) for each phi."""

    def timed(self, problem: MomentProblem, phis: np.ndarray
              ) -> tuple[np.ndarray, float]:
        """(estimates, seconds) — the two axes of Figure 10."""
        start = time.perf_counter()
        estimates = self.quantiles(problem, np.asarray(phis, dtype=float))
        return estimates, time.perf_counter() - start


# ----------------------------------------------------------------------
# Discretized-support helpers
# ----------------------------------------------------------------------

def support_grid(num_points: int = 1000) -> np.ndarray:
    """Uniform discretization of [-1, 1] (the paper uses 1000 points)."""
    return np.linspace(-1.0, 1.0, num_points)


def grid_moment_matrix(grid: np.ndarray, order: int) -> np.ndarray:
    """Vandermonde ``V[i, j] = grid[j]**i`` for the discrete moment
    constraints ``V p = moments``."""
    return np.vander(grid, order + 1, increasing=True).T


def quantiles_from_pmf(grid: np.ndarray, pmf: np.ndarray,
                       problem: MomentProblem, phis: np.ndarray) -> np.ndarray:
    """Invert the CDF of a discrete density on the grid."""
    pmf = np.clip(np.asarray(pmf, dtype=float), 0.0, None)
    total = pmf.sum()
    if total <= 0:
        raise EstimationError("estimated density has no mass")
    cdf = np.cumsum(pmf) / total
    u = np.interp(phis, cdf, grid)
    return problem.to_data_units(u)
