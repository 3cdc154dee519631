"""Tests for the unified declarative query API (repro.api)."""

import json
import warnings

import numpy as np
import pytest

from repro.api import (Backend, QueryResponse, QueryService, QuerySpec,
                       QueryTimings, SummariesBackend, WindowSpec, as_backend,
                       execute, plan, qkey)
from repro.core.errors import QueryError
from repro.core.params import check_q
from repro.datacube import CubeSchema, DataCube
from repro.druid import DruidEngine, MomentsSketchAggregator, registry
from repro.store import PackedSketchStore
from repro.summaries.moments_summary import MomentsSummary
from repro.window import build_panes, remerge_windows_packed


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(7)
    n = 20_000
    values = rng.lognormal(1.0, 1.0, n)
    country = rng.choice(["US", "CA", "MX"], n)
    version = rng.integers(0, 8, n)
    return values, country, version


@pytest.fixture(scope="module")
def cube(dataset):
    values, country, version = dataset
    cube = DataCube(CubeSchema(("country", "version")),
                    lambda: MomentsSummary(k=10))
    cube.ingest([country, version], values)
    return cube


@pytest.fixture(scope="module")
def engine(dataset):
    values, country, version = dataset
    engine = DruidEngine(
        dimensions=("country", "version"),
        aggregators=registry(moment_orders=(10,), histogram_bins=(100,)),
        granularity=3600.0, processing_threads=1)
    timestamps = np.linspace(0, 24 * 3600, values.size, endpoint=False)
    engine.ingest(timestamps, [country, version], values)
    return engine


class TestQuerySpec:
    def test_requires_known_kind(self):
        with pytest.raises(QueryError):
            QuerySpec(kind="median")

    def test_quantile_range_validated(self):
        with pytest.raises(QueryError):
            QuerySpec(kind="quantile", quantiles=(1.5,))

    def test_group_kinds_need_dimension(self):
        with pytest.raises(QueryError):
            QuerySpec(kind="group_by")
        with pytest.raises(QueryError):
            QuerySpec(kind="top_n", n=3)

    def test_top_n_needs_positive_n(self):
        with pytest.raises(QueryError):
            QuerySpec(kind="top_n", group_dimension="d", n=0)

    def test_threshold_kinds_need_thresholds(self):
        with pytest.raises(QueryError):
            QuerySpec(kind="cdf")
        with pytest.raises(QueryError):
            QuerySpec(kind="threshold_count", quantiles=(0.99,))

    def test_nan_thresholds_and_interval_bounds_rejected(self, cube):
        nan = float("nan")
        with pytest.raises(QueryError):
            QuerySpec(kind="cdf", thresholds=(1.0, nan))
        with pytest.raises(QueryError):
            QuerySpec(kind="threshold_count", quantiles=(0.99,),
                      thresholds=(nan,), group_dimension="country")
        with pytest.raises(QueryError):
            QuerySpec.from_json('{"kind": "cdf", "thresholds": [NaN]}')
        with pytest.raises(QueryError):
            QuerySpec(kind="quantile", interval=(0.0, nan))
        # The service surfaces the typed error, not a numpy LinAlgError.
        with pytest.raises(QueryError):
            QueryService(cube=cube).execute(
                {"kind": "threshold_count", "q": 0.99, "t": nan,
                 "group_dimension": "country"})

    def test_infinite_thresholds_still_answer(self, cube):
        response = QueryService(cube=cube).execute(QuerySpec(
            kind="cdf", thresholds=(float("-inf"), float("inf"))))
        assert response.estimates[qkey(float("-inf"))] == pytest.approx(0.0)
        assert response.estimates[qkey(float("inf"))] == pytest.approx(1.0)

    def test_windowed_needs_window(self):
        with pytest.raises(QueryError):
            QuerySpec(kind="windowed", quantiles=(0.99,), thresholds=(1.0,))
        with pytest.raises(QueryError):
            WindowSpec(window_panes=0)

    def test_filters_mapping_normalized_sorted(self):
        spec = QuerySpec(kind="quantile", filters={"b": 1, "a": 2})
        assert spec.filters == (("a", 2), ("b", 1))
        assert spec.filters_dict() == {"a": 2, "b": 1}

    def test_json_round_trip(self):
        spec = QuerySpec(kind="top_n", quantiles=(0.99,), n=5,
                         group_dimension="country",
                         filters={"version": 3}, measure="m",
                         report_bounds=True)
        again = QuerySpec.from_json(spec.to_json())
        assert again == spec

    def test_windowed_json_round_trip(self):
        spec = QuerySpec(kind="windowed", quantiles=(0.95,), thresholds=(9.0,),
                         window=WindowSpec(window_panes=6, strategy="remerge"))
        assert QuerySpec.from_json(spec.to_json()) == spec

    def test_from_dict_accepts_scalar_aliases(self):
        spec = QuerySpec.from_dict({"kind": "quantile", "q": 0.9})
        assert spec.quantiles == (0.9,)
        spec = QuerySpec.from_dict(
            {"kind": "threshold_count", "q": 0.99, "t": 5.0})
        assert spec.thresholds == (5.0,)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(QueryError):
            QuerySpec.from_dict({"kind": "quantile", "frobnicate": 1})
        # The old 'phi' alias of 'q' is an unknown field like any other.
        with pytest.raises(QueryError, match="phi"):
            QuerySpec.from_dict({"kind": "quantile", "phi": 0.9})

    @pytest.mark.parametrize("payload, field", [
        ({"quantiles": "0.5"}, "quantiles"),
        ({"quantiles": 0.5}, "quantiles"),
        ({"q": "high"}, "quantiles"),
        ({"q": None}, "quantiles"),
        ({"kind": "cdf", "t": "x"}, "thresholds"),
        ({"kind": "cdf", "thresholds": 5}, "thresholds"),
        ({"interval": [1]}, "interval"),
        ({"interval": [0, 1, 2]}, "interval"),
        ({"interval": "ab"}, "interval"),
        ({"filters": [1, 2]}, "filters"),
        ({"filters": "d"}, "filters"),
        ({"filters": {"d": [1, 2]}}, "filter value"),
        ({"kind": "top_n", "group_dimension": "d", "n": 2.7}, "n"),
        ({"kind": "top_n", "group_dimension": "d", "n": "3"}, "n"),
        ({"kind": "top_n", "group_dimension": "d", "n": True}, "n"),
        ({"group_dimension": ["d"]}, "group_dimension"),
        ({"measure": 3}, "measure"),
        ({"cascade_stages": 5}, "cascade_stages"),
        ({"cascade_stages": [["simple"]]}, "cascade stages"),
        ({"kind": "windowed", "t": 1.0, "window": {}}, "window_panes"),
        ({"kind": "windowed", "t": 1.0, "window": {"strategy": "remerge"}},
         "window_panes"),
        ({"kind": "windowed", "t": 1.0, "window": {"window_panes": "4"}},
         "window_panes"),
        ({"kind": "windowed", "t": 1.0, "window": [4]}, "window_panes"),
        ({"kind": "windowed", "t": 1.0,
          "window": {"window_panes": 4, "size": 2}}, "window fields"),
    ])
    def test_from_dict_malformed_fields_raise_query_error(self, payload,
                                                          field):
        payload = {"kind": "quantile", **payload}
        with pytest.raises(QueryError, match=field):
            QuerySpec.from_dict(payload)

    def test_qkey_distinguishes_close_floats(self):
        assert qkey(0.1234561) != qkey(0.1234562)
        assert qkey(0.5) == "0.5" and qkey(0.99) == "0.99"

    def test_scan_signature_shared_across_quantiles(self):
        a = QuerySpec(kind="quantile", quantiles=(0.5,), filters={"d": 1})
        b = QuerySpec(kind="quantile", quantiles=(0.99,), filters={"d": 1})
        c = QuerySpec(kind="quantile", quantiles=(0.5,), filters={"d": 2})
        assert a.scan_signature() == b.scan_signature()
        assert a.scan_signature() != c.scan_signature()


class TestCheckQ:
    def test_range_checked(self):
        assert check_q(0.9) == 0.9
        assert check_q(np.float32(0.5)) == 0.5
        for bad in (0.0, 1.0, 1.5, -0.1, float("nan"), None, "0.5", True):
            with pytest.raises(QueryError):
                check_q(bad)


class TestExecuteKinds:
    def test_quantile_with_bounds(self, cube, dataset):
        values, *_ = dataset
        response = QueryService(cube=cube).execute(QuerySpec(
            kind="quantile", quantiles=(0.5, 0.99), report_bounds=True))
        assert response.kind == "quantile" and response.backend == "cube"
        assert response.route == "packed"
        assert response.count == values.size
        truth = np.quantile(values, 0.5)
        assert response.estimates[qkey(0.5)] == pytest.approx(truth, rel=0.05)
        assert response.value == response.estimates[qkey(0.5)]
        assert 0 < response.bounds[qkey(0.5)] <= 1.0

    def test_cdf(self, cube, dataset):
        values, *_ = dataset
        t = float(np.quantile(values, 0.75))
        response = QueryService(cube=cube).execute(QuerySpec(
            kind="cdf", thresholds=(t,), report_bounds=True))
        assert response.estimates[qkey(t)] == pytest.approx(0.75, abs=0.15)
        bounds = response.bounds[qkey(t)]
        assert bounds["rtt"]["lower"] <= 0.75 * values.size <= bounds["rtt"]["upper"]

    def test_threshold_count_over_groups(self, cube, dataset):
        values, country, version = dataset
        t = float(np.quantile(values, 0.9))
        response = QueryService(cube=cube).execute(QuerySpec(
            kind="threshold_count", quantiles=(0.99,), thresholds=(t,),
            group_dimension="version"))
        assert response.value == len(response.groups)  # all p99s beat the p90
        outcome = next(iter(response.groups.values()))[qkey(t)]
        assert set(outcome) == {"exceeds", "stage"}

    def test_threshold_count_repeated_threshold_counted_once(self, cube,
                                                             dataset):
        values, *_ = dataset
        t = float(np.quantile(values, 0.9))
        response = QueryService(cube=cube).execute(QuerySpec(
            kind="threshold_count", quantiles=(0.99,), thresholds=(t, t),
            group_dimension="version"))
        assert response.estimates == {qkey(t): float(len(response.groups))}

    def test_group_by_matches_legacy(self, engine):
        # The legacy plan: merge each group's states, then finalize each
        # group with its own scalar solve.
        response = QueryService(druid=engine).execute(QuerySpec(
            kind="group_by", quantiles=(0.9,), measure="momentsSketch@10",
            group_dimension="country"))
        legacy = {value: state.finalize(q=0.9) for value, state in
                  engine.group_states("momentsSketch@10", "country").items()}
        assert set(response.groups) == set(legacy)
        for value, payload in response.groups.items():
            assert payload[qkey(0.9)] == pytest.approx(legacy[value],
                                                       rel=1e-6)

    def test_top_n_identical_to_legacy(self, engine):
        # top_n is a sort of the scores group_by gives every group, for
        # every n (1, and more than the 8 groups) and q.
        service = QueryService(druid=engine)
        for q in (0.5, 0.9, 0.99):
            every_group = service.execute(QuerySpec(
                kind="group_by", quantiles=(q,),
                measure="momentsSketch@10", group_dimension="version"))
            ranked = sorted(((value, payload[qkey(q)])
                             for value, payload in every_group.groups.items()),
                            key=lambda pair: pair[1], reverse=True)
            for n in (1, 3, 5, 10):
                response = service.execute(QuerySpec(
                    kind="top_n", quantiles=(q,), n=n,
                    measure="momentsSketch@10", group_dimension="version"))
                assert response.top == ranked[:n], (n, q)
                assert response.value == response.top[0][1]

    def test_windowed_matches_remerge(self, dataset):
        values, *_ = dataset
        panes = build_panes(values[:4000], pane_size=200, k=10)
        threshold = float(np.quantile(values[:4000], 0.98))
        response = QueryService(window=panes).execute(QuerySpec(
            kind="windowed", quantiles=(0.99,), thresholds=(threshold,),
            window=WindowSpec(window_panes=5, strategy="remerge")))
        direct = remerge_windows_packed(panes, 5, threshold, 0.99)
        assert response.merges == direct.windows_checked
        assert [(a["start_pane"], a["end_pane"]) for a in response.alerts] \
            == [(a.start_pane, a.end_pane) for a in direct.alerts]
        assert response.value == len(direct.alerts)

    def test_windowed_turnstile_runs(self, dataset):
        values, *_ = dataset
        panes = build_panes(values[:2000], pane_size=100, k=10)
        response = QueryService(window=panes).execute(QuerySpec(
            kind="windowed", quantiles=(0.99,), thresholds=(1e12,),
            window=WindowSpec(window_panes=4)))
        assert response.alerts == [] and response.route == "turnstile"

    def test_estimator_maxent_strict(self, cube):
        response = QueryService(cube=cube).execute(QuerySpec(
            kind="quantile", quantiles=(0.5,), estimator="maxent"))
        assert np.isfinite(response.value)

    def test_unknown_backend_rejected(self, cube):
        with pytest.raises(QueryError):
            QueryService(cube=cube).execute(
                QuerySpec(kind="quantile", backend="druid"))

    def test_no_matching_cells(self, cube):
        with pytest.raises(QueryError):
            QueryService(cube=cube).execute(QuerySpec(
                kind="quantile", filters={"country": "ZZ"}))

    def test_unsupported_interval_rejected_not_ignored(self, cube, engine):
        # Backends that cannot honor a constraint must refuse it rather
        # than silently answering over all time / all panes.
        service = QueryService(cube=cube, druid=engine)
        with pytest.raises(QueryError):
            service.execute(QuerySpec(kind="quantile",
                                      interval=(0.0, 3600.0)))
        with pytest.raises(QueryError):
            service.execute(QuerySpec(kind="group_by", quantiles=(0.5,),
                                      group_dimension="country",
                                      interval=(0.0, 3600.0)))
        with pytest.raises(QueryError):
            service.execute(QuerySpec(
                kind="group_by", quantiles=(0.5,),
                measure="momentsSketch@10", group_dimension="country",
                interval=(0.0, 3600.0), backend="druid"))

    def test_windowed_filters_rejected(self, dataset):
        values, *_ = dataset
        panes = build_panes(values[:1000], pane_size=100, k=10)
        with pytest.raises(QueryError):
            QueryService(window=panes).execute(QuerySpec(
                kind="windowed", quantiles=(0.99,), thresholds=(1.0,),
                filters={"service": "api"},
                window=WindowSpec(window_panes=2)))

    def test_spec_coercion_from_json_and_dict(self, cube):
        service = QueryService(cube=cube)
        a = service.execute('{"kind": "quantile", "q": 0.5}')
        b = service.execute({"kind": "quantile", "q": 0.5})
        assert a.value == b.value


class TestBoundPayloads:
    """``cdf`` and ``report_bounds`` answers come from one batched bound
    call per query, with the same bits as one scalar call per threshold."""

    @staticmethod
    def _bits(value):
        return np.float64(value).tobytes()

    def _store_and_sketch(self, dataset):
        from repro.core import MomentsSketch
        values, *_ = dataset
        store = PackedSketchStore.from_sketches(
            [MomentsSketch.from_data(values[i::4], k=10) for i in range(4)])
        return store, store.batch_merge()

    def test_cdf_matches_per_threshold_bounds(self, dataset):
        from repro.core.bounds import markov_bound, rtt_bound
        store, sketch = self._store_and_sketch(dataset)
        ts = (float("-inf"), sketch.min, float(np.nextafter(sketch.min, 1e9)),
              1.0, 2.5, 7.0, 40.0, float(np.nextafter(sketch.max, 0.0)),
              sketch.max, float("inf"))
        response = execute(QuerySpec(kind="cdf", thresholds=ts,
                                     report_bounds=True), store)
        for t in ts:
            rtt = rtt_bound(sketch, t)
            markov = markov_bound(sketch, t)
            lo, hi = rtt.fraction()
            assert self._bits(response.estimates[qkey(t)]) \
                == self._bits(0.5 * (lo + hi))
            got = response.bounds[qkey(t)]
            for name, want in (("rtt", rtt), ("markov", markov)):
                assert self._bits(got[name]["lower"]) == self._bits(want.lower)
                assert self._bits(got[name]["upper"]) == self._bits(want.upper)

    def test_quantile_error_bounds_match_per_quantile_calls(self, dataset):
        from repro.core.bounds import quantile_error_bound
        store, sketch = self._store_and_sketch(dataset)
        qs = (0.01, 0.1, 0.5, 0.9, 0.99)
        response = execute(QuerySpec(kind="quantile", quantiles=qs,
                                     report_bounds=True), store)
        for q in qs:
            estimate = response.estimates[qkey(q)]
            assert self._bits(response.bounds[qkey(q)]) == self._bits(
                quantile_error_bound(sketch, estimate, q))

    def test_one_bound_call_per_query(self, dataset, monkeypatch):
        from repro.api import service
        from repro.core import bounds
        store, sketch = self._store_and_sketch(dataset)
        calls = []
        # quantile_error_bounds calls rtt_bound_batch from bounds; the
        # Markov call inside rtt_bound_batch is not counted.
        for module, name in ((service, "rtt_bound_batch"),
                             (bounds, "rtt_bound_batch"),
                             (service, "markov_bound_batch")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real,
                                name=name, **kw: calls.append(name)
                                or real(*a, **kw))
        execute(QuerySpec(kind="cdf", thresholds=(1.0, 2.0, 3.0),
                          report_bounds=True), store)
        assert calls == ["rtt_bound_batch", "markov_bound_batch"]
        calls.clear()
        execute(QuerySpec(kind="quantile", quantiles=(0.5, 0.9),
                          report_bounds=True), store)
        assert calls == ["rtt_bound_batch"]


class TestBatchedExecution:
    def test_one_merge_per_distinct_cell_subset(self, cube, monkeypatch):
        calls = []
        original = PackedSketchStore.batch_merge

        def counting(self, indices=None):
            calls.append(1)
            return original(self, indices)

        monkeypatch.setattr(PackedSketchStore, "batch_merge", counting)
        service = QueryService(cube=cube)
        specs = (
            # Four specs over one cell subset -> one packed merge.
            [QuerySpec(kind="quantile", quantiles=(q,))
             for q in (0.1, 0.5, 0.9, 0.99)]
            # A second distinct subset -> exactly one more merge.
            + [QuerySpec(kind="quantile", quantiles=(0.5,),
                         filters={"country": "US"}),
               QuerySpec(kind="cdf", thresholds=(5.0,),
                         filters={"country": "US"})])
        responses = service.execute_batch(specs)
        assert len(calls) == 2
        report = service.last_batch_report
        assert report.specs == 6 and report.distinct_scans == 2
        assert report.shared_hits == 4 and report.merge_calls == 2
        assert [r.shared_scan for r in responses] == [
            False, True, True, True, False, True]

    def test_batch_matches_individual_execution(self, cube):
        service = QueryService(cube=cube)
        specs = [QuerySpec(kind="quantile", quantiles=(q,))
                 for q in (0.2, 0.8)]
        batched = service.execute_batch(specs)
        singles = [service.execute(spec) for spec in specs]
        for one, many in zip(singles, batched):
            assert one.value == many.value

    def test_fused_multi_quantile_single_solve(self, cube):
        service = QueryService(cube=cube)
        responses = service.execute_batch(
            [QuerySpec(kind="quantile", quantiles=(q,))
             for q in (0.25, 0.5, 0.75)])
        # The shared summary caches its estimator: later specs reuse the
        # first solve, so their solve phase is drastically cheaper.
        assert responses[0].timings.solve_seconds > 0
        assert responses[1].timings.solve_seconds < responses[0].timings.solve_seconds
        fused = service.execute(QuerySpec(kind="quantile",
                                          quantiles=(0.25, 0.5, 0.75)))
        for q, response in zip((0.25, 0.5, 0.75), responses):
            assert fused.estimates[qkey(q)] == response.value

    def test_group_scans_shared(self, cube, monkeypatch):
        calls = []
        original = PackedSketchStore.batch_merge_groups

        def counting(self, rows, gids):
            calls.append(1)
            return original(self, rows, gids)

        monkeypatch.setattr(PackedSketchStore, "batch_merge_groups", counting)
        service = QueryService(cube=cube)
        service.execute_batch([
            QuerySpec(kind="group_by", quantiles=(0.5,),
                      group_dimension="country"),
            QuerySpec(kind="group_by", quantiles=(0.99,),
                      group_dimension="country"),
            QuerySpec(kind="top_n", quantiles=(0.99,), n=2,
                      group_dimension="country"),
        ])
        assert len(calls) == 1
        assert service.last_batch_report.shared_hits == 2


class TestLegacyShims:
    """What the removed engine-level query shims promised, asserted on
    the one query surface that replaced them."""

    def test_druid_timing_fields_consistent(self, engine):
        service = QueryService(druid=engine)
        for measure, route in (("momentsSketch@10", "packed"),
                               ("S-Hist@100", "loop")):
            result = service.execute(QuerySpec(
                kind="quantile", quantiles=(0.9,), measure=measure))
            timings = result.timings
            assert result.route == route
            assert result.cells_scanned == engine.num_cells
            assert timings.planner_seconds >= 0
            assert timings.merge_seconds > 0
            assert timings.solve_seconds > 0
            assert timings.total_seconds == pytest.approx(
                timings.planner_seconds + timings.merge_seconds
                + timings.solve_seconds)

    def test_cube_quantile_reports_cells_scanned(self, cube):
        ca_cells = sum(1 for key, _ in cube.matching_cells({"country": "CA"}))
        service = QueryService(cube=cube)
        response = service.execute(QuerySpec(
            kind="quantile", quantiles=(0.5,), filters={"country": "CA"}))
        assert response.cells_scanned == ca_cells
        assert service.execute(QuerySpec(kind="quantile")).cells_scanned \
            == cube.num_cells
        _, profile = cube.rollup_profiled({"country": "CA"})
        assert profile["cells_scanned"] == ca_cells

    def test_canonical_q_keyword_is_silent(self, cube):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            QueryService(cube=cube).execute({"kind": "quantile", "q": 0.5})


class TestBackendsAndPlanner:
    def test_as_backend_adapts_engines(self, cube, engine):
        assert as_backend(cube).name == "cube"
        assert as_backend(engine).name == "druid"
        assert as_backend(PackedSketchStore(k=4)).name == "packed"
        with pytest.raises(QueryError):
            as_backend(object())

    def test_as_backend_passthrough(self, cube):
        backend = as_backend(cube)
        assert as_backend(backend) is backend

    def test_as_backend_adapts_live_window_monitor(self):
        from repro.window import StreamingWindowMonitor
        monitor = StreamingWindowMonitor(pane_size=50, window_panes=4,
                                         threshold=float("inf"), k=6)
        with pytest.raises(QueryError):
            as_backend(monitor)  # no sealed panes yet
        monitor.ingest(np.linspace(1.0, 2.0, 200))
        backend = as_backend(monitor)
        assert backend.name == "window"
        response = QueryService(window=backend).execute(
            QuerySpec(kind="quantile", quantiles=(0.5,)))
        assert response.cells_scanned == 4
        assert response.count == 200

    def test_plan_modes(self, cube):
        backend = as_backend(cube)
        assert plan(QuerySpec(kind="quantile"), backend).mode == "rollup"
        assert plan(QuerySpec(kind="group_by", group_dimension="d"),
                    backend).mode == "group"
        with pytest.raises(QueryError):
            plan(QuerySpec(kind="windowed", quantiles=(0.9,),
                           thresholds=(1.0,),
                           window=WindowSpec(window_panes=2)), backend)

    def test_packed_store_backend_filters_and_groups(self):
        store = PackedSketchStore(k=6)
        rng = np.random.default_rng(3)
        keys = []
        for color in ("red", "blue", "red", "blue"):
            row = store.new_row()
            store.accumulate_row(row, rng.lognormal(1.0, 0.5, 500))
            keys.append((color,))
        service = QueryService(packed=as_backend(
            store, keys=keys, dimensions=("color",)))
        filtered = service.execute(QuerySpec(kind="quantile",
                                             filters={"color": "red"}))
        assert filtered.cells_scanned == 2
        grouped = service.execute(QuerySpec(kind="group_by", quantiles=(0.5,),
                                            group_dimension="color"))
        assert set(grouped.groups) == {"red", "blue"}

    def test_summaries_backend_rejects_filters(self):
        summary = MomentsSummary(k=6)
        summary.accumulate(np.arange(1.0, 100.0))
        with pytest.raises(QueryError):
            QueryService(s=SummariesBackend([summary])).execute(
                QuerySpec(kind="quantile", filters={"d": 1}))

    def test_execute_convenience(self, cube):
        response = execute(QuerySpec(kind="quantile"), cube)
        assert response.backend == "cube"

    def test_custom_backend_registration(self, cube):
        class Custom(Backend):
            name = "custom"

            def rollup(self, spec):
                return as_backend(cube).rollup(spec)

        response = QueryService(mine=Custom()).execute(
            QuerySpec(kind="quantile"))
        assert response.backend == "mine"


class TestResponseRoundTrip:
    def test_json_round_trip_stable(self, cube):
        response = QueryService(cube=cube).execute(QuerySpec(
            kind="quantile", quantiles=(0.5, 0.9), report_bounds=True,
            report_moments=True))
        text = response.to_json()
        again = QueryResponse.from_json(text)
        assert again.to_json() == text
        payload = json.loads(text)
        assert payload["backend"] == "cube"
        # Every route fills the solve accounting (the fused two-quantile
        # estimate is one scalar solve), so the JSON carries it too.
        assert set(payload["timings"]) == {"planner_seconds", "merge_seconds",
                                           "solve_seconds", "solve_calls",
                                           "solve_route"}
        assert payload["timings"]["solve_route"] == "scalar"
        assert payload["timings"]["solve_calls"] == 1

    def test_group_keys_stringified_in_json(self, engine):
        response = QueryService(druid=engine).execute(QuerySpec(
            kind="group_by", quantiles=(0.5,), measure="momentsSketch@10",
            group_dimension="version"))
        payload = response.to_dict()
        assert all(isinstance(key, str) for key in payload["groups"])
        again = QueryResponse.from_dict(payload)
        assert again.to_dict() == payload


class TestQueryTimingsAlwaysFilled:
    """Satellite regression: every QueryService route fills the solve
    accounting — ``solve_calls`` and ``solve_route`` — not just the
    batched group paths."""

    @pytest.fixture(scope="class")
    def service(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(1.0, 1.0, 4000)
        cells = np.arange(values.size) // 200
        cube = DataCube(CubeSchema(("cell",)),
                        lambda: MomentsSummary(k=10))
        cube.ingest([cells], values)
        panes = build_panes(values, pane_size=200, k=10)
        return QueryService(cube=cube, window=panes), float(
            np.quantile(values, 0.9))

    def test_every_kind_reports_solve_route(self, service):
        service_obj, t = service
        specs = {
            "quantile": QuerySpec(kind="quantile", quantiles=(0.5, 0.99)),
            "cdf": QuerySpec(kind="cdf", thresholds=(t, t * 2)),
            "group_by": QuerySpec(kind="group_by", quantiles=(0.5,),
                                  group_dimension="cell"),
            "top_n": QuerySpec(kind="top_n", quantiles=(0.9,),
                               group_dimension="cell", n=3),
            "threshold_count": QuerySpec(kind="threshold_count",
                                         quantiles=(0.9,), thresholds=(t,),
                                         group_dimension="cell"),
        }
        for kind, spec in specs.items():
            response = service_obj.execute(spec, backend="cube")
            timings = response.timings
            assert timings.solve_route, kind
            assert timings.solve_calls > 0, kind

    def test_scalar_quantile_route(self, service):
        service_obj, _ = service
        response = service_obj.execute(
            QuerySpec(kind="quantile", quantiles=(0.5,)), backend="cube")
        assert response.timings.solve_route == "scalar"
        assert response.timings.solve_calls == 1

    def test_cdf_bounds_route(self, service):
        service_obj, t = service
        response = service_obj.execute(
            QuerySpec(kind="cdf", thresholds=(t, t * 2, t * 3)),
            backend="cube")
        assert response.timings.solve_route == "bounds"
        assert response.timings.solve_calls == 3

    def test_windowed_route(self, service):
        service_obj, t = service
        response = service_obj.execute(
            QuerySpec(kind="windowed", quantiles=(0.99,), thresholds=(t,),
                      window=WindowSpec(window_panes=4)), backend="window")
        assert response.timings.solve_route == "window"
        assert response.timings.solve_calls >= 1

    def test_timings_default_is_explicitly_unset(self):
        # The harness's in-loop check relies on the default being falsy.
        assert not QueryTimings().solve_route
        assert QueryTimings().solve_calls == 0
