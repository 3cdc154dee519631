"""Maximum-entropy solver for the moments sketch (Sections 4.2-4.3, App. A).

Given the Chebyshev moments derived from a sketch, we solve the dual of the
constrained entropy-maximization problem (Problem 4 in the paper):

    minimize  L(theta) = integral exp(sum_i theta_i m~_i(u)) du - theta . d

over ``theta`` in R^(1 + k1 + k2), where ``m~_i`` are Chebyshev-conditioned
basis functions and ``d`` the observed Chebyshev moments (d_0 = 1 is the
normalization constraint).  The minimizer yields the max-entropy pdf
``f(u; theta) = exp(theta . m~(u))`` whose quantiles estimate the dataset's.

Implementation choices mirroring Section 4.3:

* **Chebyshev basis** for conditioning (kappa ~ 10 instead of ~1e31).
* **Clenshaw-Curtis quadrature on a fixed cosine grid** for every integral.
  Evaluating basis functions once on the grid makes each Newton step two
  numpy matmuls: ``grad = B (w * f) - d`` and ``H = B diag(w * f) B^T``.
  This is the practical equivalent of the paper's Chebyshev polynomial
  approximation of the integrands (CC quadrature integrates the Chebyshev
  interpolant exactly), with the same cost profile: one cosine-transform-
  sized evaluation per iteration rather than O(k^2) adaptive integrals.
* **Damped Newton with backtracking line search** and a ridge fallback when
  the Hessian solve fails, matching the reference solver's safeguards.  A
  step must pass the Armijo test *and* strictly lower the dual potential.
  Near the optimum the Armijo slack falls below the potential's rounding,
  and a shortened step that merely ties the potential barely moves theta;
  accepting such ties lets a problem whose gradient sits just above the
  tolerance ride the iteration cap at ~28 probes per iteration.  The one
  tie accepted is the full Newton step, which near the optimum is the
  quadratically convergent step the potential can no longer resolve.  A
  search that finds no acceptable step is a stall, settled by the relaxed
  tolerance or a :class:`ConvergenceError`.
* **Integration domain selection**: for long-tailed positive data the solver
  integrates in the scaled-log domain (the ``h(x) = e^x`` variant of
  Appendix A) so every basis function stays smooth; otherwise in the scaled
  linear domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chebyshev import chebyshev_nodes, clenshaw_curtis_weights
from .errors import ConvergenceError, SketchError
from .moments import ScaledSupport, chebyshev_moment_rows
from .sketch import MomentsSketch

#: Ratio max/min beyond which positive data is considered long-tailed and
#: the solver integrates in the log domain.
LOG_DOMAIN_SPREAD = 100.0


@dataclass(frozen=True)
class SolverConfig:
    """Tunables for the maximum entropy solve.

    Defaults follow the paper's evaluation setup: moments matched to within
    ``delta = 1e-9`` and condition number threshold ``kappa_max = 1e4``
    (Section 6.1).
    """

    grid_size: int = 128
    gradient_tol: float = 1e-9
    #: When Newton stalls (line search exhausted or iteration cap) with the
    #: gradient below this looser tolerance, the solution is accepted.  This
    #: happens when the recorded moments are only approximately consistent —
    #: e.g. after low-precision storage (Appendix C) — so no density can
    #: match them beyond their own noise floor.
    relaxed_gradient_tol: float = 1e-4
    max_iterations: int = 200
    max_condition_number: float = 1e4
    max_line_search_steps: int = 40
    ridge: float = 1e-12
    #: Grid size used when extracting the CDF for quantile queries.
    cdf_grid_size: int = 512
    #: Accepted moment mismatch when the converged solution is re-checked
    #: on a twice-finer grid.  Catches aliased "solutions" on near-discrete
    #: data, which must surface as convergence failures (Figure 8): true
    #: aliasing deviates by ~0.1+, while mildly discretized real data
    #: (retail) sits near 1e-5, so 1e-3 separates them with wide margin.
    verification_tol: float = 1e-3


@dataclass
class MaxEntBasis:
    """Basis functions and target moments for one solve.

    ``matrix`` holds the basis functions evaluated on the quadrature grid
    (row 0 is the constant function); ``targets`` the matching Chebyshev
    moments with ``targets[0] == 1``.  ``domain`` records the integration
    variable: "linear" (u = scaled x) or "log" (u = scaled log x).
    """

    k1: int
    k2: int
    domain: str
    support: ScaledSupport
    log_support: ScaledSupport | None
    nodes: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    targets: np.ndarray
    std_moments: np.ndarray = field(default_factory=lambda: np.zeros(0))
    log_moments: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def size(self) -> int:
        return 1 + self.k1 + self.k2

    def node_values(self) -> np.ndarray:
        """Grid positions expressed in data units (x)."""
        if self.domain == "log":
            assert self.log_support is not None
            return np.exp(self.log_support.unscale(self.nodes))
        return self.support.unscale(self.nodes)


@dataclass
class MaxEntResult:
    """Converged solver state: the max-entropy density and diagnostics."""

    basis: MaxEntBasis
    theta: np.ndarray
    iterations: int
    gradient_norm: float
    converged: bool

    def density_on(self, u: np.ndarray, matrix: np.ndarray | None = None) -> np.ndarray:
        """Evaluate ``f(u; theta)`` on grid points ``u`` (domain units)."""
        if matrix is None:
            matrix = _basis_matrix_on(self.basis, u)
        return np.exp(self.theta @ matrix)


def choose_domain(sketch: MomentsSketch, k2: int) -> str:
    """Pick the integration variable (Section 4.3 / Appendix A Eq. 8).

    Log-domain integration requires usable log moments; it is chosen when
    the data spans more than :data:`LOG_DOMAIN_SPREAD` multiplicatively,
    which is when the linear-domain log-basis functions oscillate too fast
    near the lower support edge for stable Chebyshev interpolation.
    """
    if k2 <= 0 or not sketch.has_log_moments:
        return "linear"
    if sketch.min <= 0:
        return "linear"
    if sketch.max / sketch.min > LOG_DOMAIN_SPREAD:
        return "log"
    return "linear"


def build_basis(sketch: MomentsSketch, k1: int, k2: int,
                config: SolverConfig | None = None,
                domain: str | None = None) -> MaxEntBasis:
    """Assemble the quadrature grid, basis matrix, and target moments.

    ``k1`` standard and ``k2`` log moments are used (Section 4.2's
    "Optimization" paragraph); ``k2`` is forced to zero when the sketch has
    no usable log moments.  ``domain`` overrides the automatic integration
    variable choice, which the lesion-study estimators use.  The one-sketch
    case of :func:`build_bases_batch`.
    """
    return build_bases_batch([sketch], [k1], [k2], config, domain=domain)[0]


def build_bases_batch(sketches, k1s, k2s, config: SolverConfig | None = None,
                      domain: str | None = None) -> list[MaxEntBasis]:
    """:func:`build_basis` for many sketches, stacked.

    Validation and domain choice run per sketch; the target moments run
    once per moment family and order, and the basis-function evaluation
    once per distinct ``(k1, k2, domain)`` shape, each over stacked rows,
    so a basis does not depend on its batch-mates.
    """
    config = config or SolverConfig()
    sketches = list(sketches)
    nodes = chebyshev_nodes(config.grid_size)
    weights = clenshaw_curtis_weights(config.grid_size)
    bases: list[MaxEntBasis] = []
    shapes: dict[tuple, list[int]] = {}
    # (family, order) -> rows; family 0 standard, 1 log.
    moment_rows: dict[tuple[int, int], list[int]] = {}
    for index, (sketch, k1, k2) in enumerate(zip(sketches, k1s, k2s)):
        sketch.require_nonempty()
        if k2 > 0 and not sketch.has_log_moments:
            k2 = 0
        if k1 < 0 or k2 < 0 or k1 + k2 == 0:
            raise SketchError(f"invalid moment counts k1={k1}, k2={k2}")
        if max(k1, k2) > sketch.k:
            raise SketchError(f"requested order exceeds sketch order {sketch.k}")
        support = ScaledSupport(sketch.min, sketch.max)
        log_support = None
        if sketch.has_log_moments:
            log_support = ScaledSupport(float(np.log(sketch.min)),
                                        float(np.log(sketch.max)))
        chosen = domain or choose_domain(sketch, k2)
        if chosen == "log" and log_support is None:
            raise SketchError("log-domain integration requires positive data")
        bases.append(MaxEntBasis(
            k1=k1, k2=k2, domain=chosen, support=support,
            log_support=log_support, nodes=nodes, weights=weights,
            matrix=np.zeros((0, 0)), targets=np.zeros(0)))
        shapes.setdefault((k1, k2, chosen), []).append(index)
        for family, order in ((0, k1), (1, k2)):
            if order > 0:
                moment_rows.setdefault((family, order), []).append(index)
    # Target Chebyshev moments (domain independent: expectations over x).
    for (family, order), members in moment_rows.items():
        supports = [bases[i].log_support if family else bases[i].support
                    for i in members]
        moments = chebyshev_moment_rows(
            np.stack([(sketches[i].log_sums if family
                       else sketches[i].power_sums)[:order + 1]
                      for i in members]),
            np.array([sketches[i].count for i in members]),
            np.array([s.lo for s in supports]),
            np.array([s.hi for s in supports]))
        for i, row in zip(members, moments):
            if family:
                bases[i].log_moments = row
            else:
                bases[i].std_moments = row
    for basis in bases:
        basis.targets = np.concatenate(
            [[1.0], basis.std_moments[1:], basis.log_moments[1:]])
    for indices in shapes.values():
        stacked = _basis_matrices_stacked([bases[i] for i in indices], nodes)
        for position, index in enumerate(indices):
            bases[index].matrix = stacked[position]
    return bases


def _basis_matrices_stacked(bases: list, u: np.ndarray) -> np.ndarray:
    """Basis matrices of same-shape bases on grid ``u``, stacked ``(P, m, G)``.

    All bases must share ``(k1, k2, domain)``.  In the linear domain the
    standard basis is ``T_i(u)`` and the log basis
    ``T_j(s2(log(s1^{-1}(u))))``; in the log domain the roles swap.  Both
    mixed-basis arguments are clipped to [-1, 1]: the analytic map lands
    inside by construction and only float slop can poke outside (and the
    linear-domain ``x`` is clamped to the support edge, because
    ``unscale(-1)`` can round below it).  Every operation is element-wise
    over the stacked rows, so a row does not depend on its batch-mates.
    """
    first = bases[0]
    k1, k2, domain = first.k1, first.k2, first.domain
    u = np.asarray(u, dtype=float)
    count = len(bases)
    out = np.empty((count, 1 + k1 + k2, u.size))
    out[:, 0, :] = 1.0
    if domain == "linear":
        std_arg: np.ndarray | None = np.broadcast_to(u, (count, u.size))
        log_arg = None
        if k2 > 0:
            centers = np.array([b.support.center for b in bases])
            halves = np.array([b.support.half_width for b in bases])
            los = np.array([b.support.lo for b in bases])
            x = np.maximum(centers[:, None] + halves[:, None] * u,
                           los[:, None])
            log_centers = np.array([b.log_support.center for b in bases])
            log_halves = np.array([b.log_support.half_width for b in bases])
            log_arg = np.clip(
                (np.log(x) - log_centers[:, None]) / log_halves[:, None],
                -1.0, 1.0)
    else:
        log_arg = np.broadcast_to(u, (count, u.size))
        std_arg = None
        if k1 > 0:
            log_centers = np.array([b.log_support.center for b in bases])
            log_halves = np.array([b.log_support.half_width for b in bases])
            x = np.exp(log_centers[:, None] + log_halves[:, None] * u)
            centers = np.array([b.support.center for b in bases])
            halves = np.array([b.support.half_width for b in bases])
            std_arg = np.clip((x - centers[:, None]) / halves[:, None],
                              -1.0, 1.0)
    # One chained recurrence per argument family: T_k = 2u T_{k-1} - T_{k-2}
    # yields every order in O(k) passes.
    _chebyshev_rows_into(out, std_arg, offset=0, orders=k1)
    _chebyshev_rows_into(out, log_arg, offset=k1, orders=k2)
    return out


def _chebyshev_rows_into(out: np.ndarray, arg: np.ndarray | None,
                         offset: int, orders: int) -> None:
    """Fill ``out[:, offset + 1 .. offset + orders]`` with ``T_i(arg)``."""
    if orders <= 0:
        return
    assert arg is not None
    rows = [out[:, 0, :]]  # T_0 of every family is the shared constant row
    rows.extend(out[:, offset + 1:offset + orders + 1, :].swapaxes(0, 1))
    rows[1][...] = arg
    twice = 2.0 * arg
    for order in range(2, orders + 1):
        np.multiply(twice, rows[order - 1], out=rows[order])
        rows[order] -= rows[order - 2]


def _basis_matrix_on(basis: MaxEntBasis, u: np.ndarray) -> np.ndarray:
    """Every basis function of ``basis`` at integration-domain positions ``u``."""
    return _basis_matrices_stacked([basis], u)[0]


def dual_potential(theta: np.ndarray, B: np.ndarray, w: np.ndarray,
                   d: np.ndarray) -> float:
    """The dual objective ``L(theta) = integral f - theta . d`` on the grid.

    Part of the Newton kernel shared with :mod:`repro.core.batch_solver`
    (whose stacked evaluation reproduces these operations row-wise).
    Overflow is expected when a line search probes a too-long step; the
    resulting ``inf`` is rejected by the Armijo test.
    """
    with np.errstate(over="ignore"):
        f = np.exp(theta @ B)
    return float(np.dot(w, f) - np.dot(theta, d))


def newton_system(B: np.ndarray, wf: np.ndarray, d: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the dual at the density with ``w*f = wf``.

    ``grad = B (w f) - d`` and ``H = B diag(w f) B^T`` — the two matmuls
    that make up one Newton step (Section 4.3).  Shared kernel: the
    batched solver evaluates the same contractions as stacked matmuls,
    which numpy performs slice-by-slice with the identical BLAS kernels.
    """
    grad = B @ wf - d
    hessian = (B * wf) @ B.T
    return grad, hessian


def solve(basis: MaxEntBasis, config: SolverConfig | None = None
          ) -> MaxEntResult:
    """Run damped Newton on the dual potential L(theta) (Appendix A.1).

    Raises :class:`ConvergenceError` when the iteration fails — the paper
    observes this on near-discrete data (Figure 8); callers may fall back to
    moment bounds.  :func:`repro.core.batch_solver.solve_batch` runs the
    same iteration for many bases at once.
    """
    config = config or SolverConfig()
    B = basis.matrix
    w = basis.weights
    d = basis.targets
    m = basis.size

    theta = np.zeros(m)
    theta[0] = np.log(0.5)  # uniform density integrating to 1 on [-1, 1]

    def potential(th: np.ndarray) -> float:
        return dual_potential(th, B, w, d)

    lvalue = potential(theta)
    grad_norm = np.inf
    for iteration in range(1, config.max_iterations + 1):
        with np.errstate(over="ignore"):
            f = np.exp(theta @ B)
        if not np.all(np.isfinite(f)):
            raise ConvergenceError(
                "density overflow during Newton iteration",
                iterations=iteration, grad_norm=grad_norm)
        wf = w * f
        grad, hessian = newton_system(B, wf, d)
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < config.gradient_tol:
            result = MaxEntResult(basis, theta, iteration - 1, grad_norm, True)
            _verify_solution(basis, result, config)
            return result
        step = _solve_newton_step(hessian, grad, config.ridge)
        # Backtracking line search (Armijo on the convex dual).
        slope = float(np.dot(grad, step))
        alpha = 1.0
        for _ in range(config.max_line_search_steps):
            candidate = theta - alpha * step
            cvalue = potential(candidate)
            lowers = cvalue < lvalue or (alpha == 1.0 and cvalue == lvalue)
            if (np.isfinite(cvalue) and lowers
                    and cvalue <= lvalue - 1e-4 * alpha * slope):
                theta = candidate
                lvalue = cvalue
                break
            alpha *= 0.5
        else:
            if grad_norm <= config.relaxed_gradient_tol:
                result = MaxEntResult(basis, theta, iteration, grad_norm, True)
                _verify_solution(basis, result, config)
                return result
            raise ConvergenceError(
                "line search failed to make progress",
                iterations=iteration, grad_norm=grad_norm)
    if grad_norm <= config.relaxed_gradient_tol:
        result = MaxEntResult(basis, theta, config.max_iterations, grad_norm, True)
        _verify_solution(basis, result, config)
        return result
    raise ConvergenceError(
        f"Newton did not reach tolerance {config.gradient_tol:g} in "
        f"{config.max_iterations} iterations (|grad| = {grad_norm:.3g})",
        iterations=config.max_iterations, grad_norm=grad_norm)


def _verify_solution(basis: MaxEntBasis, result: MaxEntResult,
                     config: SolverConfig) -> None:
    """Re-check the matched moments on a twice-finer quadrature grid.

    A density whose peaks are narrower than the solve grid can satisfy the
    grid-quadrature moment constraints while wildly violating the true
    integrals (grid aliasing).  This happens exactly on the near-discrete
    datasets for which the paper reports non-convergence (Figure 8), so the
    aliasing is surfaced as :class:`ConvergenceError` rather than as a
    silently wrong estimate.
    """
    fine_nodes = chebyshev_nodes(2 * config.grid_size)
    fine_weights = clenshaw_curtis_weights(2 * config.grid_size)
    fine_matrix = _basis_matrix_on(basis, fine_nodes)
    # Aliased solutions can overflow exp and propagate inf*0 -> nan through
    # the matmul; the non-finite deviation is exactly what the check below
    # rejects, so the intermediate warnings are expected.
    with np.errstate(all="ignore"):
        f = np.exp(result.theta @ fine_matrix)
        achieved = fine_matrix @ (fine_weights * f)
    deviation = float(np.max(np.abs(achieved - basis.targets)))
    # A relaxed-convergence solution cannot verify below its own gradient
    # floor; scale the budget accordingly while still catching aliasing
    # (whose deviations are orders of magnitude above any noise floor).
    tolerance = max(config.verification_tol, 100.0 * result.gradient_norm)
    if not np.isfinite(deviation) or deviation > tolerance:
        raise ConvergenceError(
            f"solution fails fine-grid verification (moment deviation "
            f"{deviation:.3g} > {tolerance:g}); the data is "
            "likely too discrete for a max-entropy density",
            iterations=result.iterations, grad_norm=deviation)


def _solve_newton_step(hessian: np.ndarray, grad: np.ndarray, ridge: float) -> np.ndarray:
    """Solve H step = grad with progressive ridge regularization."""
    damping = 0.0
    eye = np.eye(hessian.shape[0])
    for _ in range(8):
        try:
            return np.linalg.solve(hessian + damping * eye, grad)
        except np.linalg.LinAlgError:
            damping = max(ridge, damping * 100.0 if damping else ridge)
    # Last resort: gradient direction scaled to unit step.
    norm = np.linalg.norm(grad)
    return grad / norm if norm > 0 else grad


def uniform_hessian(basis: MaxEntBasis, indices: np.ndarray | None = None) -> np.ndarray:
    """Hessian of L at the uniform initial density, used by the selector.

    ``H_ij = 0.5 * integral m~_i m~_j du`` — the Gram matrix of the basis
    under the uniform measure.  ``indices`` restricts to a subset of basis
    rows (the greedy k1/k2 search evaluates many subsets).
    """
    B = basis.matrix if indices is None else basis.matrix[indices]
    return (B * (0.5 * basis.weights)) @ B.T


def condition_number(matrix: np.ndarray) -> float:
    """2-norm condition number, inf for singular matrices."""
    try:
        return float(np.linalg.cond(matrix))
    except np.linalg.LinAlgError:  # pragma: no cover - cond rarely raises
        return float("inf")
