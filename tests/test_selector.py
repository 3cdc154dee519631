"""Tests for the k1/k2 moment-selection heuristic (Section 4.3.1)."""

import numpy as np
import pytest

from repro.core import MomentsSketch, SolverConfig
from repro.core.moments import uniform_chebyshev_moments
from repro.core.selector import (select_moments, select_moments_batch,
                                 stable_moment_counts)
from repro.core.solver import build_basis, condition_number, uniform_hessian


class TestStableCounts:
    def test_centered_data_gets_full_order(self):
        rng = np.random.default_rng(0)
        sketch = MomentsSketch.from_data(rng.uniform(-1, 1, 20_000), k=12)
        k1, k2 = stable_moment_counts(sketch)
        assert k1 == 12
        assert k2 == 0  # negative values: no log moments

    def test_offset_data_loses_moments(self):
        # Data on [20, 100]: c = 1.5, Appendix B predicts ~11-12 usable.
        rng = np.random.default_rng(1)
        sketch = MomentsSketch.from_data(rng.uniform(20, 100, 20_000), k=16)
        k1, _ = stable_moment_counts(sketch)
        assert k1 < 16

    def test_degenerate_support(self):
        sketch = MomentsSketch.from_data(np.full(10, 3.0), k=8)
        assert stable_moment_counts(sketch) == (1, 0)

    def test_log_counts_for_positive_data(self):
        rng = np.random.default_rng(2)
        sketch = MomentsSketch.from_data(rng.lognormal(0, 1, 20_000), k=10)
        _, k2 = stable_moment_counts(sketch)
        assert k2 > 0


class TestGreedySelection:
    def test_uses_many_moments_when_well_conditioned(self):
        rng = np.random.default_rng(3)
        sketch = MomentsSketch.from_data(rng.normal(0, 1, 30_000), k=10)
        selection = select_moments(sketch)
        assert selection.k1 + selection.k2 >= 8

    def test_condition_budget_respected(self):
        rng = np.random.default_rng(4)
        sketch = MomentsSketch.from_data(rng.lognormal(1, 1.5, 30_000), k=10)
        for budget in (50.0, 1e4):
            config = SolverConfig(max_condition_number=budget)
            selection = select_moments(sketch, config)
            assert selection.condition < budget

    def test_budgets_reported_condition_is_attained(self):
        # Greedy paths differ between budgets, so selected counts are not
        # strictly monotone; what must hold is that each selection's
        # reported condition number respects its own budget.
        rng = np.random.default_rng(5)
        sketch = MomentsSketch.from_data(rng.gamma(2, 1, 30_000), k=10)
        loose = select_moments(sketch, SolverConfig(max_condition_number=1e4))
        tight = select_moments(sketch, SolverConfig(max_condition_number=30.0))
        assert tight.condition < 30.0
        assert loose.condition < 1e4
        assert loose.k1 + loose.k2 >= 1 and tight.k1 + tight.k2 >= 1

    def test_use_log_false_excludes_log_moments(self):
        rng = np.random.default_rng(6)
        sketch = MomentsSketch.from_data(rng.lognormal(0, 1, 20_000), k=10)
        selection = select_moments(sketch, use_log=False)
        assert selection.k2 == 0

    def test_minimum_selection_is_one_standard_moment(self):
        sketch = MomentsSketch.from_data([1.0, 2.0, 3.0], k=4)
        selection = select_moments(sketch)
        assert selection.k1 >= 1


def unpruned_selection(sketch, config):
    """The greedy search without pruning: every candidate of both families
    is measured every round with its own ``np.linalg.cond``."""
    max_k1, max_k2 = stable_moment_counts(sketch)
    full = build_basis(sketch, max(max_k1, 1), max_k2, config)
    gram = uniform_hessian(full)
    uniform_std = uniform_chebyshev_moments(full.k1)
    uniform_log = [0.5 * float(np.dot(full.weights, full.matrix[full.k1 + j]))
                   for j in range(full.k2 + 1)]

    def rows(k1, k2):
        return np.r_[0:k1 + 1, full.k1 + 1:full.k1 + 1 + k2]

    k1 = k2 = 0
    cond = 1.0
    while True:
        candidates = []
        for nk1, nk2 in ((k1 + 1, k2), (k1, k2 + 1)):
            if nk1 > full.k1 or nk2 > full.k2:
                continue
            c = condition_number(gram[np.ix_(rows(nk1, nk2), rows(nk1, nk2))])
            if c >= config.max_condition_number:
                continue
            if nk1 > k1:
                distance = abs(full.std_moments[nk1] - uniform_std[nk1])
            else:
                distance = abs(full.log_moments[nk2] - uniform_log[nk2])
            candidates.append((distance, nk1, nk2, c))
        if not candidates:
            break
        _, k1, k2, cond = min(candidates)
    if k1 + k2 == 0:
        k1, cond = 1, condition_number(gram[np.ix_(rows(1, 0), rows(1, 0))])
    return k1, k2, cond, full.k1, full.k2


def random_sketches(count, seed):
    rng = np.random.default_rng(seed)
    makers = (
        lambda n: rng.lognormal(rng.uniform(-2, 4), rng.uniform(0.2, 2.5), n),
        lambda n: rng.normal(rng.uniform(-100, 100), rng.uniform(0.1, 30), n),
        lambda n: rng.uniform(-rng.uniform(0, 50), rng.uniform(0.1, 50), n),
        lambda n: rng.gamma(rng.uniform(0.3, 6), rng.uniform(0.1, 10), n),
        lambda n: rng.uniform(1, 1e4) + rng.exponential(rng.uniform(0.1, 100), n),
        lambda n: rng.pareto(rng.uniform(1, 4), n) + rng.uniform(0.01, 5),
    )
    return [MomentsSketch.from_data(makers[i % len(makers)](
                int(rng.integers(20, 3000))), k=int(rng.integers(3, 13)))
            for i in range(count)]


class TestPrunedLockstepSearch:
    @pytest.mark.parametrize("budget", [1e4, 100.0])
    def test_equals_unpruned_search(self, budget):
        config = SolverConfig(max_condition_number=budget)
        sketches = random_sketches(200, seed=int(budget))
        selections = select_moments_batch(sketches, config)
        for sketch, selection in zip(sketches, selections):
            k1, k2, cond, max_k1, max_k2 = unpruned_selection(sketch, config)
            assert (selection.k1, selection.k2) == (k1, k2)
            assert (selection.max_stable_k1, selection.max_stable_k2) \
                == (max_k1, max_k2)
            assert selection.condition == pytest.approx(cond, rel=1e-9)

    def test_selection_independent_of_batch(self):
        sketches = random_sketches(40, seed=3)
        batched = select_moments_batch(sketches)
        assert batched == [select_moments(s) for s in sketches]
        assert select_moments_batch(sketches[::-1]) == batched[::-1]
