"""Tests for the batched max-entropy estimation layer (PR 5).

The layer's contract, asserted here:

* batched quantile estimates match the scalar path within 1e-6 relative
  (on this stack they agree far tighter);
* moment selection, bases and CDF tables are built by one set of stacked
  kernels, and a row's output is bit-identical alone or in a batch;
* no Newton problem of the group-solve gate rides the iteration cap;
* a problem's batched result is independent of its batch-mates (masks,
  compaction, and tabulation bucketing never couple problems);
* stragglers (near-discrete cells) fall back to the scalar solver and
  surface the canonical outcome without disturbing their batch-mates;
* the vectorized markov/rtt bounds equal their scalar counterparts
  element-wise;
* a cell's cascade decision and stage are bit-identical alone (one-row
  ``evaluate``) or in a batch, and a maxent-stage decision is the
  scalar fit's answer;
* the vectorized top-n brackets equal the scalar bracket bisection;
* the query service reports one batched solve (not one per cell), with
  estimates, rankings and cascade decisions matching the per-group
  references (scalar fits, brackets and per-cell cascades).
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (ColumnarMoments, MomentsSketch, QuantileEstimator,
                        SolverConfig, estimate_quantiles_batch, fit_estimators,
                        solve_batch)
from repro.core.bounds import (markov_bound, markov_bound_batch, rtt_bound,
                               rtt_bound_batch)
from repro.core.cascade import ThresholdCascade
from repro.core.errors import ConvergenceError
from repro.core.quantile import _cdf_tables
from repro.core.selector import select_moments, select_moments_batch
from repro.core.solver import build_bases_batch, solve

CONFIG = SolverConfig()
GOLDEN = Path(__file__).parent / "fixtures" / "golden_fits.json"
QS = np.array([0.01, 0.1, 0.5, 0.9, 0.99])


def make_sketches(seed=0, count=12, k=8):
    """A mixed bag of shapes: lognormal, uniform, gamma, shifted normal."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            data = rng.lognormal(1.0, 1.0, 150)
        elif kind == 1:
            data = rng.uniform(-5.0, 7.0, 150)
        elif kind == 2:
            data = rng.gamma(2.0, 3.0, 150)
        else:
            data = rng.normal(1000.0, 5.0, 150)
        out.append(MomentsSketch.from_data(data, k=k))
    return out


dataset_strategy = st.lists(
    st.floats(min_value=1e-3, max_value=1e5,
              allow_nan=False, allow_infinity=False),
    min_size=8, max_size=120)


class TestSolveBatch:
    def test_matches_scalar_solver(self):
        sketches = make_sketches()
        selections = select_moments_batch(sketches, CONFIG)
        bases = build_bases_batch(sketches,
                                  [s.k1 for s in selections],
                                  [s.k2 for s in selections], CONFIG)
        outcome = solve_batch(bases, CONFIG)
        assert outcome.batched == len(bases)
        for basis, result in zip(bases, outcome.results):
            scalar = solve(basis, CONFIG)
            np.testing.assert_allclose(result.theta, scalar.theta,
                                       rtol=1e-9, atol=1e-12)
            assert result.converged and scalar.converged

    def test_empty_batch(self):
        outcome = solve_batch([], CONFIG)
        assert outcome.results == [] and outcome.batched == 0


class TestFitEstimators:
    def test_estimates_within_tolerance_of_scalar(self):
        sketches = make_sketches(seed=1, count=20)
        estimators, errors, report = fit_estimators(sketches, CONFIG)
        assert report.failures == 0 and all(e is None for e in errors)
        for sketch, estimator in zip(sketches, estimators):
            scalar = QuantileEstimator.fit(sketch, config=CONFIG)
            np.testing.assert_allclose(estimator.quantiles(QS),
                                       scalar.quantiles(QS), rtol=1e-6)

    def test_selection_bit_identical(self):
        sketches = make_sketches(seed=2, count=16)
        assert (select_moments_batch(sketches, CONFIG)
                == [select_moments(s, CONFIG) for s in sketches])

    def test_point_mass_rows(self):
        constant = MomentsSketch.from_data([7.5] * 40, k=6)
        smooth = make_sketches(seed=3, count=3, k=6)
        estimators, _, report = fit_estimators([constant] + smooth, CONFIG)
        assert report.point_masses == 1
        assert estimators[0].quantile(0.5) == 7.5

    def test_straggler_fallback_matches_scalar_outcome(self):
        # Two-point data: the solver cannot converge (Figure 8); the
        # batch must surface the same ConvergenceError the scalar path
        # raises, without disturbing its batch-mates.
        hard = MomentsSketch.from_data([0.0] * 900 + [10.0] * 100, k=8)
        smooth = make_sketches(seed=4, count=6)
        mixed = smooth[:3] + [hard] + smooth[3:]
        estimators, errors, report = fit_estimators(mixed, CONFIG)
        assert estimators[3] is None
        assert isinstance(errors[3], ConvergenceError)
        assert report.stragglers >= 1 and report.failures == 1
        with pytest.raises(ConvergenceError):
            QuantileEstimator.fit(hard, config=CONFIG)
        solo, _, _ = fit_estimators(smooth, CONFIG)
        others = [e for i, e in enumerate(estimators) if i != 3]
        for a, b in zip(others, solo):
            assert np.array_equal(a.quantiles(QS), b.quantiles(QS))

    def test_results_independent_of_batch_composition(self):
        # Convergence masks and tabulation buckets are per-problem: a
        # sketch solved alone, in a small batch, or in a large shuffled
        # batch yields the same estimator output bit for bit.
        sketches = make_sketches(seed=5, count=10)
        alone, _, _ = fit_estimators(sketches[:1], CONFIG)
        small, _, _ = fit_estimators(sketches[:4], CONFIG)
        shuffled = list(reversed(sketches))
        large, _, _ = fit_estimators(shuffled, CONFIG)
        target = large[len(sketches) - 1]  # sketches[0] in reversed order
        assert np.array_equal(alone[0].quantiles(QS), small[0].quantiles(QS))
        assert np.array_equal(alone[0].quantiles(QS), target.quantiles(QS))

    @given(st.lists(dataset_strategy, min_size=2, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_property_batched_matches_scalar(self, datasets):
        sketches = [MomentsSketch.from_data(d, k=6) for d in datasets]
        batched = estimate_quantiles_batch(sketches, QS, CONFIG)
        for row, sketch in enumerate(sketches):
            try:
                scalar = QuantileEstimator.fit(
                    sketch, config=CONFIG, allow_backoff=True).quantiles(QS)
            except ConvergenceError:
                from repro.core import safe_estimate_quantiles
                scalar = safe_estimate_quantiles(sketch, QS, config=CONFIG)
            np.testing.assert_allclose(batched[row], scalar,
                                       rtol=1e-6, atol=1e-9)


def golden_sketches(count=None):
    cases = json.loads(GOLDEN.read_text())["cases"][:count]
    return [MomentsSketch.from_bytes(bytes.fromhex(case["sketch"]))
            for case in cases]


class TestStackedBases:
    def test_basis_identical_alone_and_in_batch(self):
        # Targets come from a cancellation-prone binomial shift (the
        # offset-exponential cases lose ~7 digits), so a row whose
        # rounding depended on its batch-mates would show here.
        sketches = golden_sketches()
        selections = select_moments_batch(sketches, CONFIG)
        k1s = [s.k1 for s in selections]
        k2s = [s.k2 for s in selections]
        batch = build_bases_batch(sketches, k1s, k2s, CONFIG)
        for sketch, k1, k2, basis in zip(sketches, k1s, k2s, batch):
            alone = build_bases_batch([sketch], [k1], [k2], CONFIG)[0]
            assert np.array_equal(alone.targets, basis.targets)
            assert np.array_equal(alone.matrix, basis.matrix)
            assert alone.domain == basis.domain


class TestSharedCdfBuild:
    def test_row_identical_alone_and_in_mixed_batch(self):
        # 32 fixture sketches: linear and log domains, several basis
        # shapes and two table sizes (one series needs a finer table).
        sketches = golden_sketches(32)
        estimators, errors, _ = fit_estimators(sketches, CONFIG)
        assert all(error is None for error in errors)
        assert len({e._grid_u.size for e in estimators}) > 1
        assert len({(e.basis.k1, e.basis.k2, e.basis.domain)
                    for e in estimators}) > 2
        for batched in estimators:
            (alone,) = _cdf_tables([batched.basis], [batched.result.theta],
                                   CONFIG)
            coeffs, offset, scale, grid_u, grid_cdf = alone
            assert offset == batched._cdf_offset
            assert scale == batched._cdf_scale
            assert np.array_equal(grid_cdf, batched._grid_cdf)
            assert np.array_equal(grid_u, batched._grid_u)
            assert np.array_equal(coeffs, batched._cdf_coeffs)

    def test_table_ends_and_monotone(self):
        estimator = fit_estimators(make_sketches(seed=16, count=1), CONFIG)[0][0]
        assert estimator._grid_u[0] == -1.0 and estimator._grid_u[-1] == 1.0
        assert np.all(np.diff(estimator._grid_u) > 0)
        assert np.all(np.diff(estimator._grid_cdf) >= 0)
        assert abs(estimator._grid_cdf[0]) < 1e-12
        assert abs(estimator._grid_cdf[-1] - 1.0) < 1e-12


class TestNewtonStall:
    def test_group_solve_gate_cells_settle_quickly(self):
        # The 1024 seed-0 cells of benchmarks/bench_group_solve.py.  One
        # of them ends at |grad| ~2.2e-9, just above the tolerance, where
        # accepting shortened steps that only tie the dual potential let
        # it ride the 200-iteration cap.
        from repro.workload import build_packed_cells
        data = np.random.default_rng(0).lognormal(1.0, 1.0, 1024 * 200)
        sketches = build_packed_cells(data, cell_size=200, k=10).store.sketches()
        selections = select_moments_batch(sketches, CONFIG)
        bases = build_bases_batch(sketches, [s.k1 for s in selections],
                                  [s.k2 for s in selections], CONFIG)
        outcome = solve_batch(bases, CONFIG)
        assert outcome.batched == len(bases)
        assert max(r.iterations for r in outcome.results) <= 30
        assert max(solve(b, CONFIG).iterations for b in bases) <= 30


class TestBatchedBounds:
    @given(st.lists(dataset_strategy, min_size=1, max_size=5),
           st.floats(min_value=-10.0, max_value=2e5,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_bounds_equal_scalar_elementwise(self, datasets, t):
        sketches = [MomentsSketch.from_data(d, k=6) for d in datasets]
        block = ColumnarMoments.from_sketches(sketches)
        markov = markov_bound_batch(block, t)
        rtt = rtt_bound_batch(block, t)
        for row, sketch in enumerate(sketches):
            scalar_markov = markov_bound(sketch, t)
            assert (markov.lower[row], markov.upper[row]) \
                == (scalar_markov.lower, scalar_markov.upper)
            scalar_rtt = rtt_bound(sketch, t)
            assert (rtt.lower[row], rtt.upper[row]) \
                == (scalar_rtt.lower, scalar_rtt.upper)

    def test_per_row_thresholds(self):
        sketches = make_sketches(seed=6, count=8)
        block = ColumnarMoments.from_sketches(sketches)
        ts = np.array([float(np.mean([s.min, s.max])) for s in sketches])
        batch = rtt_bound_batch(block, ts)
        for row, (sketch, t) in enumerate(zip(sketches, ts)):
            scalar = rtt_bound(sketch, float(t))
            assert (batch.lower[row], batch.upper[row]) \
                == (scalar.lower, scalar.upper)

    def test_mixed_log_validity(self):
        with_log = MomentsSketch.from_data([1.0, 2.0, 3.0, 9.0], k=5)
        poisoned = MomentsSketch.from_data([-1.0, 2.0, 5.0], k=5)
        block = ColumnarMoments.from_sketches([with_log, poisoned])
        batch = markov_bound_batch(block, 2.5)
        for row, sketch in enumerate([with_log, poisoned]):
            scalar = markov_bound(sketch, 2.5)
            assert (batch.lower[row], batch.upper[row]) \
                == (scalar.lower, scalar.upper)


class TestCascadeBatch:
    """``evaluate`` is ``evaluate_batch`` over one row, so "scalar" here
    means N one-row calls; they must match one N-row call bit for bit."""

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_decisions_and_stages_match_scalar(self, q):
        sketches = make_sketches(seed=7, count=16)
        lo = min(s.min for s in sketches)
        hi = max(s.max for s in sketches)
        # Thresholds just either side of one estimate per shape reach the
        # maxent stage; the even grid is decided by the bounds.
        near = [float(QuantileEstimator.fit(s, config=CONFIG).quantile(q))
                + offset for s in sketches[:4] for offset in (-1e-2, 1e-2)]
        maxent_checked = 0
        for t in [*np.linspace(lo - 1.0, hi + 1.0, 7), *near]:
            scalar_cascade = ThresholdCascade(config=CONFIG)
            batch_cascade = ThresholdCascade(config=CONFIG)
            scalar = [scalar_cascade.evaluate(s, float(t), q)
                      for s in sketches]
            batched = batch_cascade.evaluate_batch(sketches, float(t), q)
            assert [o.result for o in scalar] == [o.result for o in batched]
            assert [o.stage for o in scalar] == [o.stage for o in batched]
            # The independent reference for the last stage is the scalar
            # fit; only estimates within 1e-9 of t may round either way.
            for sketch, outcome in zip(sketches, batched):
                if outcome.stage != "maxent":
                    continue
                estimate = QuantileEstimator.fit(sketch, config=CONFIG) \
                    .quantile(q)
                if abs(estimate - t) > 1e-9:
                    assert outcome.result == (estimate > t)
                    maxent_checked += 1
        assert maxent_checked > 0

    def test_stats_accounting_matches_scalar(self):
        sketches = make_sketches(seed=8, count=10)
        t = float(np.median([s.max for s in sketches]))
        scalar_cascade = ThresholdCascade(config=CONFIG)
        batch_cascade = ThresholdCascade(config=CONFIG)
        for s in sketches:
            scalar_cascade.evaluate(s, t, 0.9)
        batch_cascade.evaluate_batch(sketches, t, 0.9)
        assert batch_cascade.stats.queries == scalar_cascade.stats.queries
        for name in ("simple", "markov", "rtt", "maxent"):
            assert (batch_cascade.stats.stages[name].entered
                    == scalar_cascade.stats.stages[name].entered)
            assert (batch_cascade.stats.stages[name].resolved
                    == scalar_cascade.stats.stages[name].resolved)

    def test_accepts_columnar_moments(self):
        sketches = make_sketches(seed=9, count=6)
        block = ColumnarMoments.from_sketches(sketches)
        t = float(np.mean([s.max for s in sketches]))
        a = ThresholdCascade(config=CONFIG).evaluate_batch(block, t, 0.95)
        b = ThresholdCascade(config=CONFIG).evaluate_batch(sketches, t, 0.95)
        assert [(o.result, o.stage) for o in a] \
            == [(o.result, o.stage) for o in b]

    def test_degraded_near_discrete_cells(self):
        hard = MomentsSketch.from_data([0.0] * 900 + [10.0] * 100, k=8)
        outcomes = ThresholdCascade(config=CONFIG).evaluate_batch(
            [hard, hard], 5.0, 0.95)
        scalar = ThresholdCascade(config=CONFIG).evaluate(hard, 5.0, 0.95)
        assert all(o.result == scalar.result and o.stage == scalar.stage
                   for o in outcomes)


class TestCascadeQRename:
    def test_phi_keyword_removed(self):
        sketch = MomentsSketch.from_data([1.0, 2.0, 3.0, 10.0], k=5)
        cascade = ThresholdCascade(config=CONFIG)
        for call in (cascade.threshold, cascade.evaluate):
            with pytest.raises(TypeError):
                call(sketch, 5.0, phi=0.9)
        with pytest.raises(TypeError):
            cascade.evaluate_batch([sketch], 5.0, phi=0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cascade.threshold(sketch, 5.0, 0.9) \
                == cascade.evaluate(sketch, 5.0, q=0.9).result

    def test_phi_and_q_together_rejected(self):
        sketch = MomentsSketch.from_data([1.0, 2.0], k=4)
        with pytest.raises(TypeError):
            ThresholdCascade(config=CONFIG).evaluate(
                sketch, 1.5, 0.5, phi=0.5)

    def test_q_outside_unit_interval_rejected(self):
        # Without the check, evaluate(s, t, 1.5) would answer "exceeds".
        from repro.core.errors import QueryError
        sketch = MomentsSketch.from_data([1.0, 2.0], k=4)
        cascade = ThresholdCascade(config=CONFIG)
        for q in (0.0, 1.0, 1.5, float("nan"), None):
            with pytest.raises(QueryError):
                cascade.evaluate(sketch, 1.5, q)
            with pytest.raises(QueryError):
                cascade.threshold(sketch, 1.5, q)
            with pytest.raises(QueryError):
                cascade.evaluate_batch([sketch, sketch], 1.5, q)


def cube_groups(cube, dimension="g"):
    """The merged per-group summaries a group query over ``cube`` solves."""
    from repro.api import CubeBackend, QuerySpec
    spec = QuerySpec(kind="group_by", group_dimension=dimension)
    return CubeBackend(cube).group_rollup(spec).groups


def reference_quantiles(groups, qs):
    """Per-group scalar fits: the one-solve-per-group reference."""
    return {g: QuantileEstimator.fit(summary.sketch, config=summary.config,
                                     allow_backoff=True).quantiles(qs)
            for g, summary in groups.items()}


class TestQuantileBrackets:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_batch_equals_scalar_bracket(self, seed, q):
        from repro.api.service import (_quantile_bracket,
                                       _quantile_brackets_batch)
        sketches = make_sketches(seed=seed, count=16)
        lows, highs = _quantile_brackets_batch(sketches, q)
        expected = [_quantile_bracket(s, q, rtt_bound) for s in sketches]
        assert list(zip(lows.tolist(), highs.tolist())) == expected


class TestServiceBatchedRouting:
    @pytest.fixture(scope="class")
    def cube(self):
        from repro.datacube import CubeSchema, DataCube
        from repro.summaries.moments_summary import MomentsSummary
        rng = np.random.default_rng(11)
        values = rng.lognormal(1.0, 1.0, 40 * 60)
        dim = np.repeat(np.arange(40), 60)
        cube = DataCube(CubeSchema(("g",)), lambda: MomentsSummary(k=8))
        cube.ingest([dim], values)
        return cube

    def test_group_by_single_batched_solve(self, cube):
        from repro.api import QueryService, QuerySpec, qkey
        spec = QuerySpec(kind="group_by", quantiles=(0.9,),
                         group_dimension="g")
        response = QueryService(cube=cube).execute(spec)
        assert response.timings.solve_route == "batched"
        assert response.timings.solve_calls == 1
        reference = reference_quantiles(cube_groups(cube), [0.9])
        assert set(response.groups) == set(reference)
        for group, estimates in reference.items():
            assert response.groups[group][qkey(0.9)] == pytest.approx(
                estimates[0], rel=1e-6)

    def test_top_n_identical_and_single_solve(self, cube):
        from repro.api import QueryService, QuerySpec
        from repro.api.service import _quantile_bracket
        q, n = 0.99, 5
        spec = QuerySpec(kind="top_n", quantiles=(q,), n=n,
                         group_dimension="g")
        response = QueryService(cube=cube).execute(spec)
        groups = cube_groups(cube)
        brackets = {g: _quantile_bracket(summary.sketch, q, rtt_bound)
                    for g, summary in groups.items()}
        cutoff = sorted((lo for lo, _ in brackets.values()), reverse=True)[n - 1]
        candidates = {g: groups[g] for g, (_, hi) in brackets.items()
                      if hi >= cutoff}
        assert len(candidates) < len(groups)  # the brackets prune
        scores = reference_quantiles(candidates, [q])
        expected = sorted(candidates, key=lambda g: float(scores[g][0]),
                          reverse=True)[:n]
        assert [v for v, _ in response.top] == expected
        assert response.timings.solve_calls == 1

    def test_threshold_count_identical(self, cube):
        from repro.api import QueryService, QuerySpec, qkey
        rollup = cube.rollup()
        t = float(rollup.quantile(0.95))
        spec = QuerySpec(kind="threshold_count", quantiles=(0.99,),
                         thresholds=(t,), group_dimension="g")
        service = QueryService(cube=cube)
        response = service.execute(spec)
        cascade = ThresholdCascade(config=service.config)
        outcomes = {g: cascade.evaluate(summary.sketch, t, 0.99)
                    for g, summary in cube_groups(cube).items()}
        assert response.value == sum(o.result for o in outcomes.values())
        assert {g: (o[qkey(t)]["exceeds"], o[qkey(t)]["stage"])
                for g, o in response.groups.items()} \
            == {g: (o.result, o.stage) for g, o in outcomes.items()}
        assert response.timings.solve_calls == 1

    def test_top_n_maxent_over_non_moments_summaries(self):
        # top_n never consulted spec.estimator: estimator="maxent" over
        # an S-Hist aggregator must still rank, not raise (regression).
        from repro.api import QueryService, QuerySpec
        from repro.druid import DruidEngine, registry
        rng = np.random.default_rng(21)
        engine = DruidEngine(dimensions=("d",),
                             aggregators={"h": registry()["S-Hist@100"]})
        engine.ingest(rng.uniform(0, 3600, 2000),
                      [rng.integers(0, 6, 2000)],
                      rng.lognormal(1.0, 1.0, 2000))
        spec = QuerySpec(kind="top_n", quantiles=(0.9,), n=3, measure="h",
                         group_dimension="d", estimator="maxent")
        response = QueryService(druid=engine).execute(spec)
        assert len(response.top) == 3
        assert response.timings.solve_route == "scalar"

    def test_batched_respects_summary_config(self):
        # The batched fit must use each summary's own SolverConfig (like
        # summary.quantiles does), not silently the service default.
        from repro.api import PackedStoreBackend, QueryService, QuerySpec, qkey
        from repro.store import PackedSketchStore
        coarse = SolverConfig(grid_size=64, cdf_grid_size=128)
        sketches = make_sketches(seed=22, count=8)
        store = PackedSketchStore.from_sketches(sketches)
        keys = [(i,) for i in range(len(sketches))]
        backend = PackedStoreBackend(store, keys=keys, dimensions=("cell",),
                                     config=coarse)
        spec = QuerySpec(kind="group_by", quantiles=(0.9,),
                         group_dimension="cell")
        response = QueryService(cells=backend).execute(spec)
        groups = backend.group_rollup(spec).groups
        assert all(summary.config == coarse for summary in groups.values())
        for group, estimates in reference_quantiles(groups, [0.9]).items():
            assert response.groups[group][qkey(0.9)] == pytest.approx(
                estimates[0], rel=1e-9)

    def test_threshold_scalar_fallback_reports_scalar_route(self):
        # Groups without a moments sketch are compared through their own
        # summary; the timings must say so instead of claiming a batched
        # solve.
        from repro.api import QueryService, QuerySpec
        from repro.druid import DruidEngine, registry
        rng = np.random.default_rng(23)
        engine = DruidEngine(dimensions=("d",),
                             aggregators={"h": registry()["S-Hist@100"]})
        engine.ingest(rng.uniform(0, 3600, 1000),
                      [rng.integers(0, 4, 1000)],
                      rng.lognormal(1.0, 1.0, 1000))
        spec = QuerySpec(kind="threshold_count", quantiles=(0.99,),
                         thresholds=(5.0,), group_dimension="d", measure="h")
        response = QueryService(druid=engine).execute(spec)
        assert response.timings.solve_route == "scalar"

    def test_timings_round_trip_with_solve_route(self, cube):
        from repro.api import QueryService, QuerySpec, QueryResponse
        spec = QuerySpec(kind="group_by", quantiles=(0.5,),
                         group_dimension="g")
        response = QueryService(cube=cube).execute(spec)
        text = response.to_json()
        again = QueryResponse.from_json(text)
        assert again.to_json() == text
        assert again.timings.solve_route == "batched"
        assert again.timings.solve_calls == 1

    def test_group_quantiles_one_call(self, cube):
        from repro.api import QueryService, QuerySpec, qkey
        response = QueryService(cube=cube).execute(QuerySpec(
            kind="group_by", quantiles=(0.5, 0.99), group_dimension="g"))
        assert len(response.groups) == 40
        assert response.timings.solve_calls == 1
        for payload in response.groups.values():
            assert payload[qkey(0.5)] <= payload[qkey(0.99)]


class TestPackedStoreFeeds:
    def test_moment_columns_roundtrip(self):
        from repro.store import PackedSketchStore
        sketches = make_sketches(seed=12, count=6, k=6)
        store = PackedSketchStore.from_sketches(sketches)
        block = store.moment_columns()
        assert len(block) == len(sketches)
        for row, sketch in enumerate(sketches):
            again = block.sketch_at(row)
            assert again.count == sketch.count
            np.testing.assert_array_equal(again.power_sums, sketch.power_sums)

    def test_moment_columns_subset_and_bounds(self):
        from repro.store import PackedSketchStore
        sketches = make_sketches(seed=13, count=8, k=6)
        store = PackedSketchStore.from_sketches(sketches)
        rows = np.array([1, 4, 6])
        block = store.moment_columns(rows)
        t = float(np.mean([s.max for s in sketches]))
        batch = markov_bound_batch(block, t)
        for position, row in enumerate(rows):
            scalar = markov_bound(sketches[row], t)
            assert (batch.lower[position], batch.upper[position]) \
                == (scalar.lower, scalar.upper)

    def test_group_bases_feed_solve_batch(self):
        from repro.store import PackedSketchStore
        sketches = make_sketches(seed=14, count=12, k=6)
        store = PackedSketchStore.from_sketches(sketches)
        keys = [i % 3 for i in range(len(sketches))]
        grouped = store.group_bases(np.arange(len(sketches)), keys, CONFIG)
        assert set(grouped) == {0, 1, 2}
        bases = [basis for _, basis in grouped.values() if basis is not None]
        outcome = solve_batch(bases, CONFIG)
        assert outcome.batched == len(bases)
        merged = store.batch_merge_by(np.arange(len(sketches)), keys)
        for key, (sketch, _) in grouped.items():
            assert sketch.count == merged[key].count
