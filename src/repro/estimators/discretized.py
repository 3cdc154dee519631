"""Discretized-support estimators: ``svd``, ``cvx-min``, ``cvx-maxent``.

Each discretizes the scaled support into ``num_points`` cells (the paper
uses 1000 uniformly spaced points) and solves for a discrete density
matching the moment constraints:

* ``svd`` — the minimum-norm solution of the underdetermined linear system
  ``V p = moments`` via SVD pseudo-inverse, clipped to be non-negative.
* ``cvx-min`` — minimize the maximum density subject to the constraints: a
  linear program (variables p plus the bound t), solved with HiGHS.
* ``cvx-maxent`` — maximize entropy subject to the constraints, "as
  described in Chapter 7 of Boyd & Vandenberghe".  The paper solved the
  primal with the ECOS SOCP solver (unavailable offline); we solve the
  identical discretized program through its smooth dual with a generic
  first-order scipy optimizer, which preserves the comparison's point —
  a generic-solver formulation is orders of magnitude slower than the
  specialized Newton solver of Section 4.3.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog, minimize

from ..core.errors import EstimationError
from .base import (
    MomentEstimator,
    MomentProblem,
    grid_moment_matrix,
    quantiles_from_pmf,
    support_grid,
)


class SvdEstimator(MomentEstimator):
    """Minimum-norm discrete density via SVD pseudo-inverse."""

    name = "svd"

    def __init__(self, num_points: int = 1000):
        self.num_points = num_points

    def quantiles(self, problem: MomentProblem, phis: np.ndarray) -> np.ndarray:
        grid = support_grid(self.num_points)
        vander = grid_moment_matrix(grid, problem.moments.size - 1)
        pmf, *_ = np.linalg.lstsq(vander, problem.moments, rcond=None)
        return quantiles_from_pmf(grid, pmf, problem, phis)


class CvxMinEstimator(MomentEstimator):
    """Minimal-maximum-density discrete distribution (linear program)."""

    name = "cvx-min"

    def __init__(self, num_points: int = 1000):
        self.num_points = num_points

    def quantiles(self, problem: MomentProblem, phis: np.ndarray) -> np.ndarray:
        grid = support_grid(self.num_points)
        order = problem.moments.size - 1
        vander = grid_moment_matrix(grid, order)
        n = grid.size
        # Variables: p_0..p_{n-1}, t.  Minimize t with p_i <= t, V p = m.
        cost = np.zeros(n + 1)
        cost[-1] = 1.0
        a_ub = np.hstack([np.eye(n), -np.ones((n, 1))])
        b_ub = np.zeros(n)
        a_eq = np.hstack([vander, np.zeros((order + 1, 1))])
        result = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq,
                         b_eq=problem.moments,
                         bounds=[(0, None)] * n + [(0, None)],
                         method="highs")
        if not result.success:
            raise EstimationError(f"cvx-min LP failed: {result.message}")
        return quantiles_from_pmf(grid, result.x[:n], problem, phis)


class CvxMaxEntEstimator(MomentEstimator):
    """Discretized maximum entropy via a generic scipy solver.

    Solves the dual ``min_theta  log-sum-exp(V^T theta) - theta . m`` (the
    discrete analogue of Eq. 5) with BFGS *as a black box* — no Chebyshev
    conditioning, no closed-form Hessian — then recovers the primal
    density ``p propto exp(V^T theta)``.
    """

    name = "cvx-maxent"

    def __init__(self, num_points: int = 1000):
        self.num_points = num_points

    def quantiles(self, problem: MomentProblem, phis: np.ndarray) -> np.ndarray:
        grid = support_grid(self.num_points)
        order = problem.moments.size - 1
        vander = grid_moment_matrix(grid, order)
        target = problem.moments

        def dual(theta: np.ndarray) -> float:
            logits = theta @ vander
            peak = logits.max()
            return peak + float(np.log(np.exp(logits - peak).sum())) - float(theta @ target)

        result = minimize(dual, np.zeros(order + 1), method="BFGS",
                          options={"maxiter": 2000, "gtol": 1e-10})
        logits = result.x @ vander
        pmf = np.exp(logits - logits.max())
        return quantiles_from_pmf(grid, pmf, problem, phis)
