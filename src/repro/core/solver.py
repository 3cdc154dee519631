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
* **One stacked kernel**: the iteration and its fine-grid verification run
  over a stack of same-shape problems (:func:`_newton`, built on numpy
  2.2's ``vecmat``/``matvec``/``vecdot``, which compute each row with the
  BLAS call a one-problem loop would).  :func:`solve` is its one-row case
  and :func:`repro.core.batch_solver.solve_batch` runs it once per basis
  shape.
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

#: Shortened line-search steps evaluated per stacked pass; bounds the
#: ``(rows, probes, grid)`` block a pass allocates.
_PROBE_BLOCK = 8


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


def solve(basis: MaxEntBasis, config: SolverConfig | None = None
          ) -> MaxEntResult:
    """Run damped Newton on the dual potential L(theta) (Appendix A.1).

    The one-row case of the stacked kernel :func:`_newton`, which
    :func:`repro.core.batch_solver.solve_batch` runs over many bases.
    Raises :class:`ConvergenceError` when the iteration fails — the paper
    observes this on near-discrete data (Figure 8); callers may fall back to
    moment bounds.
    """
    (result,), (error,) = _newton([basis], config or SolverConfig())
    if error is not None:
        raise error
    return result


def _newton(bases: list, config: SolverConfig) -> tuple[list, list]:
    """Damped Newton for same-shape bases, stacked, then fine-grid verified.

    Returns ``(results, errors)`` aligned with ``bases``: each row ends with
    either a verified :class:`MaxEntResult` or the :class:`ConvergenceError`
    that says why it failed — density overflow, a stalled line search or
    the iteration cap above the relaxed tolerance, or fine-grid
    verification.  Each iteration is one stacked matmul per contraction
    (``grad = B (w f) - d``, ``H = B diag(w f) B^T``, the dual potential)
    and one stacked LAPACK solve for the steps; the density ``f`` at the
    accepted point is the one its line-search probe computed.  A row that
    settles or fails is compacted out, only the rows whose full step fails
    probe shorter ones, and each takes its first acceptable probe, so every
    row moves exactly as it would alone: its trajectory does not depend on
    its batch-mates, and one row costs what a scalar loop would.
    """
    count = len(bases)
    w = bases[0].weights
    B = np.array([basis.matrix for basis in bases])
    d = np.array([basis.targets for basis in bases])
    theta = np.zeros(d.shape)
    theta[:, 0] = np.log(0.5)  # uniform density integrating to 1 on [-1, 1]
    rows = np.arange(count)  # working row -> index into ``bases``
    norm = np.full(count, np.inf)  # latest |grad| of each working row
    errors: list = [None] * count
    settled: dict[int, tuple[np.ndarray, int, float]] = {}
    probes = config.max_line_search_steps
    # Overflow is expected when a line search probes a too-long step; the
    # resulting inf (or the nan of inf * 0) fails the Armijo test.
    with np.errstate(over="ignore", invalid="ignore"):
        value, f = _potential(theta, B, w, d)
        for iteration in range(1, config.max_iterations + 1):
            wf = w * f
            grad = np.matvec(B, wf) - d
            previous, norm = norm, np.maximum.reduce(np.abs(grad), axis=1)
            # A non-finite density makes |grad| non-finite, so only a stack
            # with a small or non-finite |grad| needs the per-row checks.
            if not (np.minimum.reduce(norm) >= config.gradient_tol
                    and np.maximum.reduce(norm) < np.inf):
                finite = np.logical_and.reduce(np.isfinite(f), axis=1)
                done = ~finite | (norm < config.gradient_tol)
                for i in np.flatnonzero(done):
                    if finite[i]:
                        settled[rows[i]] = (theta[i], iteration - 1,
                                            float(norm[i]))
                    else:
                        errors[rows[i]] = ConvergenceError(
                            "density overflow during Newton iteration",
                            iterations=iteration,
                            grad_norm=float(previous[i]))
                keep = ~done
                rows, theta, value, norm, B, d, grad, wf = (
                    rows[keep], theta[keep], value[keep], norm[keep],
                    B[keep], d[keep], grad[keep], wf[keep])
                if not rows.size:
                    break
            hessian = np.matmul(B * wf[:, None, :], B.swapaxes(1, 2))
            try:
                step = np.linalg.solve(hessian, grad[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                # Some Hessian is singular: give each row the progressive
                # ridge treatment individually.
                step = np.array([_solve_newton_step(h, g, config.ridge)
                                 for h, g in zip(hessian, grad)])
            slope = np.vecdot(grad, step)
            # Backtracking line search (Armijo on the convex dual).  The
            # full step may tie the potential; a shortened one must lower it.
            trial = theta - step
            trial_value, f = _potential(trial, B, w, d)
            taken = (np.isfinite(trial_value) & (trial_value <= value)
                     & (trial_value <= value - 1e-4 * slope))
            if not probes:  # no probe allowed: every row stalls
                taken[:] = False
            if np.count_nonzero(taken) < rows.size:
                # Each row whose full step failed probes alpha = 2^-1,
                # 2^-2, ... (_PROBE_BLOCK at a time) and takes its first
                # acceptable point, as a one-probe-at-a-time search would.
                pending = np.flatnonzero(~taken)
                alphas = np.ldexp(1.0, -np.arange(1, probes))
                slacks = 1e-4 * alphas
                p_theta, p_step, p_B, p_d, p_value, p_slope = (
                    theta[pending, None], step[pending, None],
                    B[pending, None], d[pending, None],
                    value[pending, None], slope[pending, None])
                for first in range(0, probes - 1, _PROBE_BLOCK):
                    block = slice(first, first + _PROBE_BLOCK)
                    probe = p_theta - alphas[block, None] * p_step
                    probe_value, probe_f = _potential(probe, p_B, w, p_d)
                    ok = (np.isfinite(probe_value) & (probe_value < p_value)
                          & (probe_value <= p_value - slacks[block] * p_slope))
                    any_ok = ok.any(axis=1)
                    found = np.flatnonzero(any_ok)
                    if not found.size:
                        continue
                    best = ok[found].argmax(axis=1)
                    hit = pending[found]
                    trial[hit] = probe[found, best]
                    trial_value[hit] = probe_value[found, best]
                    f[hit] = probe_f[found, best]
                    taken[hit] = True
                    left = ~any_ok
                    pending, p_theta, p_step, p_B, p_d, p_value, p_slope = (
                        pending[left], p_theta[left], p_step[left],
                        p_B[left], p_d[left], p_value[left], p_slope[left])
                    if not pending.size:
                        break
                for i in np.flatnonzero(~taken):
                    if norm[i] <= config.relaxed_gradient_tol:
                        settled[rows[i]] = (theta[i], iteration,
                                            float(norm[i]))
                    else:
                        errors[rows[i]] = ConvergenceError(
                            "line search failed to make progress",
                            iterations=iteration, grad_norm=float(norm[i]))
                rows, trial, trial_value, f, norm, B, d = (
                    rows[taken], trial[taken], trial_value[taken],
                    f[taken], norm[taken], B[taken], d[taken])
                if not rows.size:
                    break
            theta, value = trial, trial_value
    for i, row in enumerate(rows):
        if norm[i] <= config.relaxed_gradient_tol:
            settled[row] = (theta[i], config.max_iterations, float(norm[i]))
        else:
            errors[row] = ConvergenceError(
                f"Newton did not reach tolerance {config.gradient_tol:g} in "
                f"{config.max_iterations} iterations (|grad| = {norm[i]:.3g})",
                iterations=config.max_iterations, grad_norm=float(norm[i]))
    results: list = [None] * count
    if settled:
        _verify(bases, settled, config, results, errors)
    return results, errors


def _verify(bases: list, settled: dict, config: SolverConfig,
            results: list, errors: list) -> None:
    """Re-check the matched moments on a twice-finer quadrature grid.

    A density whose peaks are narrower than the solve grid can satisfy the
    grid-quadrature moment constraints while wildly violating the true
    integrals (grid aliasing).  This happens exactly on the near-discrete
    datasets for which the paper reports non-convergence (Figure 8), so
    each settled row of :func:`_newton` becomes a result only if it passes,
    and a :class:`ConvergenceError` otherwise.
    """
    rows = list(settled)
    fine_nodes = chebyshev_nodes(2 * config.grid_size)
    fine_weights = clenshaw_curtis_weights(2 * config.grid_size)
    matrices = _basis_matrices_stacked([bases[row] for row in rows],
                                       fine_nodes)
    theta = np.array([settled[row][0] for row in rows])
    targets = np.array([bases[row].targets for row in rows])
    # Aliased solutions can overflow exp and propagate inf*0 -> nan through
    # the matmul; a non-finite deviation fails the test below.
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.exp(np.vecmat(theta, matrices))
        achieved = np.matvec(matrices, fine_weights * f)
    deviations = np.maximum.reduce(np.abs(achieved - targets), axis=1)
    for row, deviation in zip(rows, deviations.tolist()):
        row_theta, iterations, norm = settled[row]
        # A relaxed-convergence solution cannot verify below its own
        # gradient floor; scale the budget accordingly while still catching
        # aliasing (orders of magnitude above any noise floor).
        tolerance = max(config.verification_tol, 100.0 * norm)
        if deviation <= tolerance:
            results[row] = MaxEntResult(bases[row], row_theta.copy(),
                                        iterations, norm, True)
        else:
            errors[row] = ConvergenceError(
                f"solution fails fine-grid verification (moment deviation "
                f"{deviation:.3g} > {tolerance:g}); the data is "
                "likely too discrete for a max-entropy density",
                iterations=iterations, grad_norm=deviation)


def _potential(theta: np.ndarray, B: np.ndarray, w: np.ndarray,
               d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the dual ``L(theta) = integral f - theta . d`` and ``f``."""
    f = np.exp(np.vecmat(theta, B))
    return np.vecdot(f, w) - np.vecdot(theta, d), f


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
