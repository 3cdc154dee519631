"""Tests for the k1/k2 moment-selection heuristic (Section 4.3.1)."""

import numpy as np
import pytest

from repro.core import MomentsSketch, SolverConfig
from repro.core import selector
from repro.core.moments import uniform_chebyshev_moments
from repro.core.selector import (select_moments, select_moments_batch,
                                 stable_moment_counts)
from repro.core.solver import build_basis
from svd_reference import condition_number, uniform_hessian


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


def domain_sketches(seed):
    """Log-domain, linear-domain and no-log sketches at k = 6..16."""
    rng = np.random.default_rng(seed)
    out = []
    for k in (6, 8, 10, 12, 14, 16):
        out.append(MomentsSketch.from_data(rng.lognormal(1, 1.5, 2000), k=k))
        out.append(MomentsSketch.from_data(rng.uniform(10, 20, 2000), k=k))
        out.append(MomentsSketch.from_data(rng.normal(0, 1, 2000), k=k))
    return out


def svd_only(monkeypatch):
    """Make the search measure every candidate with the stacked SVD."""
    monkeypatch.setattr(selector, "_RECHECK_MARGIN", np.inf)


class TestConditionKernel:
    @pytest.mark.parametrize("budget", [30.0, 100.0, 1e4])
    def test_matches_svd_reference(self, budget):
        config = SolverConfig(max_condition_number=budget)
        sketches = domain_sketches(seed=21)
        selections = select_moments_batch(sketches, config)
        domains = {(s.basis.domain, s.max_stable_k2 > 0) for s in selections}
        assert {("log", True), ("linear", True), ("linear", False)} <= domains
        for sketch, selection in zip(sketches, selections):
            k1, k2, cond, max_k1, max_k2 = unpruned_selection(sketch, config)
            assert (selection.k1, selection.k2) == (k1, k2)
            assert (selection.max_stable_k1, selection.max_stable_k2) \
                == (max_k1, max_k2)
            assert selection.condition == pytest.approx(cond, rel=1e-9)
            assert select_moments(sketch, config) == selection

    @pytest.mark.parametrize("search_budget, gap", [
        (SolverConfig().max_condition_number, 0.0),
        (1e13, selector._RECHECK_MARGIN)])
    def test_budget_at_a_measured_condition(self, monkeypatch, search_budget,
                                            gap):
        # Each budget equals the SVD condition of a candidate the search
        # measures, so the fast estimate sits on the budget and only the
        # SVD re-check decides the candidate the way the SVD does.  Near
        # 1e12 the estimate misses by more than _RECHECK_MARGIN, so there
        # the margin must widen with the budget.
        sketches = domain_sketches(seed=22)
        cases = []
        with monkeypatch.context() as patch:
            svd_only(patch)
            for sketch in sketches:
                chosen = select_moments(
                    sketch, SolverConfig(max_condition_number=search_budget))
                config = SolverConfig(max_condition_number=chosen.condition)
                cases.append((sketch, config, select_moments(sketch, config),
                              chosen))
        below = 0
        for sketch, config, expected, chosen in cases:
            selection = select_moments(sketch, config)
            assert (selection.k1, selection.k2) == (expected.k1, expected.k2)
            assert (selection.k1, selection.k2) != (chosen.k1, chosen.k2)
            # eigvalsh and the SVD agree to ~4e-15 * kappa relative.
            assert selection.condition == pytest.approx(
                expected.condition, rel=max(1e-9, 1e-14 * expected.condition))
            full = build_basis(sketch, max(chosen.max_stable_k1, 1),
                               chosen.max_stable_k2)
            rows = np.r_[0:chosen.k1 + 1,
                         full.k1 + 1:full.k1 + 1 + chosen.k2]
            gram = uniform_hessian(full, rows)
            eigen = np.linalg.eigvalsh(gram)
            below += bool(eigen[-1] / eigen[0]
                          < chosen.condition * (1.0 - gap))
        # Without the re-check some of these candidates would be accepted.
        assert below > 0

    def test_non_positive_estimate_is_measured_again(self):
        # eigvalsh reads an indefinite matrix as a negative condition; the
        # SVD measures it.  (1, 0) in the log domain is not native-only.
        gram = np.array([[[1.0, 2.0], [2.0, 1.0]]])
        values = selector._candidate_conditions(
            gram, [(0, 1, 0)], [True], 1, SolverConfig())
        assert values == [pytest.approx(3.0, rel=1e-12)]

    @pytest.mark.parametrize("grid_size", [64, 128])
    def test_native_table_matches_sub_gram_conditions(self, grid_size):
        config = SolverConfig(grid_size=grid_size)
        rng = np.random.default_rng(23)
        linear = build_basis(MomentsSketch.from_data(
            rng.uniform(10, 20, 2000), k=16), 16, 0, config)
        log = build_basis(MomentsSketch.from_data(
            rng.lognormal(1, 1.5, 2000), k=16), 2, 16, config)
        assert (linear.domain, log.domain) == ("linear", "log")
        table = selector._native_conditions(grid_size)
        assert len(table) == 17
        for c in range(1, 17):
            for basis, rows in ((linear, np.arange(c + 1)),
                                (log, np.r_[0, 3:3 + c])):
                reference = condition_number(uniform_hessian(basis, rows))
                assert table[c] == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("budget", [2.0, 30.0, 1e4])
    def test_selection_basis_equals_build_basis(self, budget):
        config = SolverConfig(max_condition_number=budget)
        sketches = domain_sketches(seed=24) + random_sketches(60, seed=24)
        mismatched = 0
        for selections in (select_moments_batch(sketches, config),
                           [select_moments(s, config) for s in sketches]):
            for sketch, selection in zip(sketches, selections):
                basis = selection.basis
                expected = build_basis(sketch, selection.k1, selection.k2,
                                       config)
                assert (basis.k1, basis.k2, basis.domain) \
                    == (expected.k1, expected.k2, expected.domain)
                for name in ("matrix", "targets", "std_moments",
                             "log_moments"):
                    assert getattr(basis, name).tobytes() \
                        == getattr(expected, name).tobytes(), name
                owner = basis.matrix if basis.matrix.base is None \
                    else basis.matrix.base
                assert owner.shape[-2] == 1 + basis.k1 + basis.k2
                cap = build_basis(sketch, max(selection.max_stable_k1, 1),
                                  selection.max_stable_k2, config)
                mismatched += cap.domain != basis.domain
        if budget == 2.0:
            # Nothing fits, so log-domain caps fall back to (1, 0) in the
            # linear domain.
            assert mismatched > 0
