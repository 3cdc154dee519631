"""Tests for the maximum-entropy solver: convergence, moment matching,
conditioning, and domain selection."""

import numpy as np
import pytest

from repro.core import MomentsSketch, SolverConfig
from repro.core.errors import ConvergenceError, SketchError
from repro.core.solver import (
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
