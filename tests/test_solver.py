"""Tests for the maximum-entropy solver: convergence, moment matching,
conditioning, and domain selection."""

import numpy as np
import pytest

from repro.core import MomentsSketch, SolverConfig
from repro.core import solver as solver_module
from repro.core.chebyshev import chebyshev_nodes, clenshaw_curtis_weights
from repro.core.encoding import LowPrecisionCodec
from repro.core.errors import ConvergenceError, SketchError
from repro.core.selector import select_moments
from repro.core.solver import (
    MaxEntResult,
    _basis_matrix_on,
    _solve_newton_step,
    build_basis,
    choose_domain,
    condition_number,
    solve,
    uniform_hessian,
)


@pytest.fixture(scope="module")
def gaussian_sketch():
    rng = np.random.default_rng(0)
    return MomentsSketch.from_data(rng.normal(0, 1, 30_000), k=10)


@pytest.fixture(scope="module")
def lognormal_sketch():
    rng = np.random.default_rng(1)
    return MomentsSketch.from_data(rng.lognormal(1.0, 1.5, 30_000), k=10)


class TestBuildBasis:
    def test_row_zero_is_constant(self, gaussian_sketch):
        basis = build_basis(gaussian_sketch, 6, 0)
        np.testing.assert_array_equal(basis.matrix[0], np.ones(basis.nodes.size))

    def test_targets_start_with_one(self, gaussian_sketch):
        basis = build_basis(gaussian_sketch, 6, 0)
        assert basis.targets[0] == 1.0
        assert basis.targets.size == 7

    def test_basis_rows_bounded_by_one(self, lognormal_sketch):
        basis = build_basis(lognormal_sketch, 5, 5)
        assert np.max(np.abs(basis.matrix)) <= 1.0 + 1e-9

    def test_log_moments_dropped_for_nonpositive_data(self):
        sketch = MomentsSketch.from_data([-1.0, 0.5, 2.0], k=4)
        basis = build_basis(sketch, 3, 3)
        assert basis.k2 == 0

    def test_invalid_counts_rejected(self, gaussian_sketch):
        with pytest.raises(SketchError):
            build_basis(gaussian_sketch, 0, 0)
        with pytest.raises(SketchError):
            build_basis(gaussian_sketch, 11, 0)

    def test_log_domain_node_values_positive(self, lognormal_sketch):
        basis = build_basis(lognormal_sketch, 2, 5, domain="log")
        x = basis.node_values()
        assert np.all(x > 0)
        assert x.min() == pytest.approx(lognormal_sketch.min, rel=1e-9)
        assert x.max() == pytest.approx(lognormal_sketch.max, rel=1e-9)


class TestChooseDomain:
    def test_linear_without_log_moments(self, gaussian_sketch):
        assert choose_domain(gaussian_sketch, 5) == "linear"

    def test_log_for_wide_positive_spread(self, lognormal_sketch):
        assert lognormal_sketch.max / lognormal_sketch.min > 100
        assert choose_domain(lognormal_sketch, 5) == "log"

    def test_linear_for_narrow_positive_spread(self):
        rng = np.random.default_rng(2)
        sketch = MomentsSketch.from_data(rng.uniform(10, 20, 1000), k=6)
        assert choose_domain(sketch, 4) == "linear"

    def test_k2_zero_forces_linear(self, lognormal_sketch):
        assert choose_domain(lognormal_sketch, 0) == "linear"


class TestSolve:
    def test_moments_match_after_convergence(self, gaussian_sketch):
        config = SolverConfig()
        basis = build_basis(gaussian_sketch, 8, 0, config)
        result = solve(basis, config)
        assert result.converged
        # Post-condition: solved density reproduces every target moment
        # to within the gradient tolerance (Section 4.4's premise).
        f = result.density_on(basis.nodes, matrix=basis.matrix)
        achieved = basis.matrix @ (basis.weights * f)
        np.testing.assert_allclose(achieved, basis.targets, atol=1e-8)

    def test_density_integrates_to_one(self, lognormal_sketch):
        config = SolverConfig()
        basis = build_basis(lognormal_sketch, 2, 6, config)
        result = solve(basis, config)
        f = result.density_on(basis.nodes, matrix=basis.matrix)
        assert float(np.dot(basis.weights, f)) == pytest.approx(1.0, abs=1e-8)

    def test_uniform_data_converges_immediately(self):
        rng = np.random.default_rng(3)
        sketch = MomentsSketch.from_data(rng.uniform(-1, 1, 50_000), k=4)
        basis = build_basis(sketch, 4, 0)
        result = solve(basis)
        assert result.converged
        # Max-entropy fit of near-uniform moments is near-uniform density.
        f = result.density_on(np.linspace(-0.9, 0.9, 5))
        np.testing.assert_allclose(f, 0.5, atol=0.05)

    def test_two_point_mass_raises_convergence_error(self):
        # Fewer distinct values than moment constraints (Figure 8 regime).
        data = np.asarray([0.0, 1.0] * 500)
        sketch = MomentsSketch.from_data(data, k=8)
        basis = build_basis(sketch, 8, 0)
        with pytest.raises(ConvergenceError):
            solve(basis, SolverConfig(max_iterations=60))

    def test_default_start_point(self, gaussian_sketch):
        basis = build_basis(gaussian_sketch, 4, 0)
        result = solve(basis)
        assert result.converged


class TestConditioning:
    def test_chebyshev_basis_conditioning(self, gaussian_sketch):
        # The raison d'etre of the basis change: the uniform Hessian in the
        # Chebyshev basis is far from singular even at order 8+8.
        basis = build_basis(gaussian_sketch, 8, 0)
        kappa = condition_number(uniform_hessian(basis))
        assert kappa < 1e3

    def test_power_basis_would_be_singular(self, gaussian_sketch):
        # Reproduce the Section 4.3.1 anecdote: the same Gram matrix in the
        # raw power basis has condition number orders of magnitude larger.
        basis = build_basis(gaussian_sketch, 8, 0)
        powers = np.vstack([basis.nodes ** i for i in range(9)])
        gram = (powers * (0.5 * basis.weights)) @ powers.T
        assert condition_number(gram) > 1e3 * condition_number(uniform_hessian(basis))

    def test_uniform_hessian_subset_selection(self, lognormal_sketch):
        basis = build_basis(lognormal_sketch, 4, 4)
        sub = uniform_hessian(basis, np.asarray([0, 1, 2]))
        assert sub.shape == (3, 3)
        full = uniform_hessian(basis)
        np.testing.assert_allclose(sub, full[:3, :3])


# ----------------------------------------------------------------------
# The stacked Newton kernel against the scalar reference
# ----------------------------------------------------------------------

def _reference_potential(theta, B, w, d):
    with np.errstate(over="ignore"):
        f = np.exp(theta @ B)
    return float(np.dot(w, f) - np.dot(theta, d))


def reference_solve(basis, config=None):
    """The scalar damped Newton loop that ``solve`` replaced (one problem,
    1-D arrays), with its fine-grid verification; ``solve`` is the one-row
    case of the stacked kernel and must reproduce it exactly."""
    config = config or SolverConfig()
    B, w, d = basis.matrix, basis.weights, basis.targets
    theta = np.zeros(basis.size)
    theta[0] = np.log(0.5)
    lvalue = _reference_potential(theta, B, w, d)
    grad_norm = np.inf
    for iteration in range(1, config.max_iterations + 1):
        with np.errstate(over="ignore"):
            f = np.exp(theta @ B)
        if not np.all(np.isfinite(f)):
            raise ConvergenceError(
                "density overflow during Newton iteration",
                iterations=iteration, grad_norm=grad_norm)
        wf = w * f
        grad = B @ wf - d
        hessian = (B * wf) @ B.T
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < config.gradient_tol:
            return _reference_verify(basis, theta, iteration - 1, grad_norm,
                                     config)
        step = _solve_newton_step(hessian, grad, config.ridge)
        slope = float(np.dot(grad, step))
        alpha = 1.0
        for _ in range(config.max_line_search_steps):
            candidate = theta - alpha * step
            cvalue = _reference_potential(candidate, B, w, d)
            lowers = cvalue < lvalue or (alpha == 1.0 and cvalue == lvalue)
            if (np.isfinite(cvalue) and lowers
                    and cvalue <= lvalue - 1e-4 * alpha * slope):
                theta = candidate
                lvalue = cvalue
                break
            alpha *= 0.5
        else:
            if grad_norm <= config.relaxed_gradient_tol:
                return _reference_verify(basis, theta, iteration, grad_norm,
                                         config)
            raise ConvergenceError(
                "line search failed to make progress",
                iterations=iteration, grad_norm=grad_norm)
    if grad_norm <= config.relaxed_gradient_tol:
        return _reference_verify(basis, theta, config.max_iterations,
                                 grad_norm, config)
    raise ConvergenceError(
        f"Newton did not reach tolerance {config.gradient_tol:g} in "
        f"{config.max_iterations} iterations (|grad| = {grad_norm:.3g})",
        iterations=config.max_iterations, grad_norm=grad_norm)


def _reference_verify(basis, theta, iterations, grad_norm, config):
    fine_nodes = chebyshev_nodes(2 * config.grid_size)
    fine_weights = clenshaw_curtis_weights(2 * config.grid_size)
    fine_matrix = _basis_matrix_on(basis, fine_nodes)
    with np.errstate(all="ignore"):
        f = np.exp(theta @ fine_matrix)
        achieved = fine_matrix @ (fine_weights * f)
    deviation = float(np.max(np.abs(achieved - basis.targets)))
    tolerance = max(config.verification_tol, 100.0 * grad_norm)
    if not np.isfinite(deviation) or deviation > tolerance:
        raise ConvergenceError(
            f"solution fails fine-grid verification (moment deviation "
            f"{deviation:.3g} > {tolerance:g}); the data is "
            "likely too discrete for a max-entropy density",
            iterations=iterations, grad_norm=deviation)
    return MaxEntResult(basis, theta, iterations, grad_norm, True)


def outcome(fn, basis, config=None):
    """A comparable record of one solve: result bytes or error fields."""
    try:
        result = fn(basis, config)
    except ConvergenceError as exc:
        return ("error", str(exc), exc.iterations, repr(exc.grad_norm))
    return ("result", result.theta.tobytes(), result.iterations,
            repr(result.gradient_norm), result.converged)


def assert_matches_reference(bases, config=None):
    """``solve`` equals ``reference_solve`` on every basis; returns the
    reference outcomes so a test can check which paths it covered."""
    outcomes = []
    for basis in bases:
        expected = outcome(reference_solve, basis, config)
        assert outcome(solve, basis, config) == expected
        outcomes.append(expected)
    return outcomes


def selected_and_full(sketch):
    """The selected (k1, k2) basis and the all-moments basis, which often
    fails (stalls, verification) on the same data."""
    selection = select_moments(sketch)
    return [build_basis(sketch, selection.k1, selection.k2),
            build_basis(sketch, sketch.k, sketch.k)]


DISTRIBUTIONS = {
    "lognormal": lambda rng, n: rng.lognormal(1.0, 1.0, n),
    "normal": lambda rng, n: rng.normal(0.0, 1.0, n),
    "uniform": lambda rng, n: rng.uniform(-3.0, 5.0, n),
    "pareto": lambda rng, n: rng.pareto(1.5, n) + 1.0,
    "shifted_normal": lambda rng, n: rng.normal(1000.0, 5.0, n),
}


class TestSolveMatchesReference:
    @pytest.mark.parametrize("k", [6, 10, 14, 16])
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_distributions(self, name, k):
        rng = np.random.default_rng(k)
        bases = []
        for n in (200, 3000):
            sketch = MomentsSketch.from_data(DISTRIBUTIONS[name](rng, n), k=k)
            bases.extend(selected_and_full(sketch))
        assert_matches_reference(bases)

    def test_two_point_data(self):
        # Figure 8: fewer distinct values than moment constraints.
        bases = []
        for k in (6, 8, 10):
            for high in (1.0, 10.0):
                data = np.array([0.0] * 900 + [high] * 100)
                bases.extend(selected_and_full(MomentsSketch.from_data(data, k=k)))
        outcomes = assert_matches_reference(bases)
        assert all(o[0] == "error" for o in outcomes)

    def test_rounded_data_fails_verification(self):
        rng = np.random.default_rng(0)
        bases = []
        for k in (6, 10, 14):
            for n in (200, 3000):
                data = np.round(rng.normal(10.0, 3.0, n))
                bases.extend(selected_and_full(MomentsSketch.from_data(data, k=k)))
        outcomes = assert_matches_reference(bases)
        assert any(o[0] == "error" and "fine-grid verification" in o[1]
                   for o in outcomes)

    def test_low_precision_relaxed_acceptance(self):
        # Appendix C: quantized sums are only approximately consistent, so
        # some solves stall above gradient_tol and are accepted under the
        # relaxed tolerance.
        bases = []
        for bits in (10, 12):
            for seed in (0, 1):
                for make in (lambda r: r.lognormal(1.0, 1.0, 5000),
                             lambda r: r.exponential(1.0, 5000)):
                    for k in (4, 10):
                        codec = LowPrecisionCodec(mantissa_bits=bits, seed=seed)
                        sketch = codec.decode(codec.encode(MomentsSketch.from_data(
                            make(np.random.default_rng(seed)), k=k)))
                        for k1, k2 in ((k // 2, k // 2), (0, k), (k, 0)):
                            bases.append(build_basis(sketch, k1, k2))
        outcomes = assert_matches_reference(bases)
        gradient_tol = SolverConfig().gradient_tol
        assert any(o[0] == "result" and float(o[3]) >= gradient_tol
                   for o in outcomes)

    def test_iteration_cap(self):
        rng = np.random.default_rng(4)
        config = SolverConfig(max_iterations=12)
        bases = []
        for name in ("pareto", "lognormal", "shifted_normal"):
            sketch = MomentsSketch.from_data(DISTRIBUTIONS[name](rng, 3000), k=10)
            bases.extend(selected_and_full(sketch))
        outcomes = assert_matches_reference(bases, config)
        assert any(o[0] == "error" and o[1].startswith("Newton did not reach")
                   for o in outcomes)

    def test_singular_hessian_ridge_fallback(self, monkeypatch):
        # On two-point data the density collapses onto the support edge,
        # where every T_i(1) = 1: the Hessian is exactly singular and the
        # step falls back to the progressive ridge.
        calls = []

        def counting(hessian, grad, ridge):
            calls.append(1)
            return _solve_newton_step(hessian, grad, ridge)

        monkeypatch.setattr(solver_module, "_solve_newton_step", counting)
        sketch = MomentsSketch.from_data([0.0] * 2 + [1.0] * 10, k=8)
        before = len(calls)
        assert outcome(solve, build_basis(sketch, 7, 0)) \
            == outcome(reference_solve, build_basis(sketch, 7, 0))
        assert len(calls) > before

    def test_density_overflow(self, gaussian_sketch):
        # Unreachable from a real sketch (an accepted point always has a
        # finite density), so a hand-edited basis overflows at the start;
        # the zero makes that iteration's |grad| nan, so the error must
        # carry the previous one (inf).
        basis = build_basis(gaussian_sketch, 6, 0)
        basis.matrix = basis.matrix.copy()
        basis.matrix[0, 3] = -2000.0
        basis.matrix[1, 3] = 0.0
        expected = outcome(reference_solve, basis)
        assert expected[1] == "density overflow during Newton iteration"
        assert outcome(solve, basis) == expected
