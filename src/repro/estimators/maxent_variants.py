"""Maximum-entropy solver variants for the lesion study: ``newton``,
``bfgs``, and ``opt`` (Section 6.3, Figure 10).

All three solve the same continuous dual problem over the same Chebyshev
basis; they differ only in the machinery, isolating the contribution of
each Section 4.3 optimization:

* ``newton`` — Newton's method, but every gradient/Hessian entry is an
  independent adaptive quadrature (scipy's Gauss-Kronrod, standing in for
  the paper's adaptive Romberg).  This is the "no efficient integration"
  lesion: O(k^2) slow integrals per iteration.
* ``bfgs`` — first-order L-BFGS on the dual with fast grid integration for
  the gradient: cheap steps, but many more of them, and no reuse of the
  (nearly free) Hessian.
* ``opt`` — the full Section 4.3 solver (:mod:`repro.core.solver`).
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad_vec
from scipy.optimize import minimize

from ..core.errors import ConvergenceError, EstimationError
from ..core.quantile import QuantileEstimator, _cdf_tables
from ..core.sketch import MomentsSketch
from ..core.solver import SolverConfig, _basis_matrix_on, build_basis
from .base import MomentEstimator, MomentProblem


def _sketch_from_problem(problem: MomentProblem, sketch: MomentsSketch) -> tuple[int, int]:
    """Moment counts (k1, k2) realizing the lesion protocol on a sketch.

    The lesion feeds either only standard moments or only log moments;
    translate that into the (k1, k2) arguments of the core solver.
    """
    k = problem.moments.size - 1
    return (0, k) if problem.use_log else (k, 0)


class OptEstimator(MomentEstimator):
    """``opt``: the production solver of Section 4.3 (reference point)."""

    name = "opt"

    def __init__(self, config: SolverConfig | None = None):
        self.config = config or SolverConfig()
        self._sketch: MomentsSketch | None = None

    def bind(self, sketch: MomentsSketch) -> "OptEstimator":
        """Attach the source sketch (the core solver needs full state)."""
        self._sketch = sketch
        return self

    def quantiles(self, problem: MomentProblem, phis: np.ndarray) -> np.ndarray:
        if self._sketch is None:
            raise EstimationError("OptEstimator.bind(sketch) must be called first")
        k1, k2 = _sketch_from_problem(problem, self._sketch)
        estimator = QuantileEstimator.fit(self._sketch, config=self.config,
                                          k1=max(k1, 0), k2=k2)
        return estimator.quantiles(phis)


class _DualSolverEstimator(MomentEstimator):
    """Shared basis/CDF plumbing for the newton and bfgs variants."""

    def __init__(self, config: SolverConfig | None = None):
        self.config = config or SolverConfig()
        self._sketch: MomentsSketch | None = None

    def bind(self, sketch: MomentsSketch) -> "_DualSolverEstimator":
        self._sketch = sketch
        return self

    def _build(self, problem: MomentProblem):
        if self._sketch is None:
            raise EstimationError("bind(sketch) must be called first")
        k1, k2 = _sketch_from_problem(problem, self._sketch)
        domain = "log" if problem.use_log else "linear"
        return build_basis(self._sketch, k1, k2, self.config, domain=domain)

    def _quantiles_from_theta(self, basis, theta: np.ndarray,
                              problem: MomentProblem, phis: np.ndarray) -> np.ndarray:
        (cdf,) = _cdf_tables([basis], [theta], self.config)
        if cdf is None:
            raise EstimationError("solved density integrates to zero")
        *_, grid, table = cdf
        return problem.to_data_units(np.interp(phis, table, grid))


class NaiveNewtonEstimator(_DualSolverEstimator):
    """``newton``: second-order solve with per-entry adaptive quadrature."""

    name = "newton"

    def __init__(self, config: SolverConfig | None = None, quad_limit: int = 50):
        super().__init__(config)
        self.quad_limit = quad_limit

    def quantiles(self, problem: MomentProblem, phis: np.ndarray) -> np.ndarray:
        basis = self._build(problem)
        m = basis.size
        d = basis.targets

        def integrands(u: float, theta: np.ndarray) -> np.ndarray:
            """All gradient + Hessian integrands at one point.

            Adaptive quadrature re-evaluates the basis functions and the
            exponential from scratch at every point — no interpolant reuse,
            which is exactly the cost the Section 4.3.1 optimization
            removes.
            """
            rows = _basis_matrix_on(basis, np.asarray([u]))[:, 0]
            f = float(np.exp(theta @ rows))
            outer = np.outer(rows, rows) * f
            return np.concatenate([rows * f, outer.ravel()])

        theta = np.zeros(m)
        theta[0] = np.log(0.5)
        for _ in range(self.config.max_iterations):
            values, _ = quad_vec(lambda u: integrands(u, theta), -1.0, 1.0,
                                 epsabs=1e-10, epsrel=1e-10, limit=self.quad_limit)
            grad = values[:m] - d
            hessian = values[m:].reshape(m, m)
            if float(np.max(np.abs(grad))) < 1e-8:
                return self._quantiles_from_theta(basis, theta, problem, phis)
            try:
                step = np.linalg.solve(hessian, grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
            theta = theta - step
        raise ConvergenceError("naive Newton failed to converge",
                               iterations=self.config.max_iterations)


class BfgsEstimator(_DualSolverEstimator):
    """``bfgs``: first-order L-BFGS-B on the dual (grad via grid quadrature)."""

    name = "bfgs"

    def quantiles(self, problem: MomentProblem, phis: np.ndarray) -> np.ndarray:
        basis = self._build(problem)
        B = basis.matrix
        w = basis.weights
        d = basis.targets

        def dual_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
            f = np.exp(theta @ B)
            wf = w * f
            return float(wf.sum() - theta @ d), B @ wf - d

        theta0 = np.zeros(basis.size)
        theta0[0] = np.log(0.5)
        result = minimize(dual_and_grad, theta0, jac=True, method="L-BFGS-B",
                          options={"maxiter": 5000, "ftol": 1e-16, "gtol": 1e-9})
        return self._quantiles_from_theta(basis, result.x, problem, phis)
