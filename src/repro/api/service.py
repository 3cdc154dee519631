"""QueryService: plan and execute declarative specs over registered backends.

The service owns the engine-independent half of a query: estimator
solves, bound computation, threshold cascades, top-n ranking, and the
batched executor.  :meth:`QueryService.execute_batch` groups specs by
their plan's ``scan_key`` so N specs over the same cell subset cost one
merge (and, for moments summaries, one estimator solve — the summary's
cached estimator serves every fused quantile), which is the Eq. 2
``t_merge * n_merge`` term paid once instead of N times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from ..core.batch_solver import fit_estimators
from ..core.bounds import (markov_bound_batch, quantile_error_bounds,
                           rtt_bound_batch)
from ..core.cascade import ThresholdCascade
from ..core.errors import QueryError
from ..core.quantile import QuantileEstimator, safe_estimate_quantiles
from ..core.sketch import ColumnarMoments, MomentsSketch
from ..core.solver import SolverConfig
from ..summaries.moments_summary import MomentsSummary
from ..telemetry import TELEMETRY
from .backends import (Backend, GroupRollupResult, RollupResult, as_backend,
                       sketch_of)
from .planner import QueryPlan, plan, solve_signature
from .spec import QueryResponse, QuerySpec, QueryTimings, qkey


@dataclass(frozen=True)
class BatchReport:
    """Scan-sharing profile of the last :meth:`QueryService.execute_batch`."""

    specs: int
    distinct_scans: int
    shared_hits: int
    merge_calls: int
    #: Specs served by the cross-batch optimizer (response, partial, or
    #: materialized-roll-up tier) rather than this batch's own scans.
    cache_hits: int = 0


def _moments_payload(sketch: MomentsSketch) -> dict:
    payload = {"count": sketch.count, "min": sketch.min, "max": sketch.max,
               "power_sums": [float(v) for v in sketch.power_sums]}
    if sketch.track_log:
        payload["log_sums"] = [float(v) for v in sketch.log_sums]
        payload["log_valid"] = bool(sketch.log_valid)
    return payload


class QueryService:
    """Facade executing :class:`QuerySpec` objects against named backends.

    Backends are registered either at construction (raw engine objects
    are adapted automatically via :func:`~repro.api.backends.as_backend`)
    or later with :meth:`register`.  The first registered backend is the
    default; ``spec.backend`` selects another by name.

    Every multi-group estimation phase over moments-backed groups —
    ``group_by`` and ``top_n`` scoring (one shared call; ``top_n`` then
    sorts), ``threshold_count`` cascades — runs through the batched
    max-entropy layer (:mod:`repro.core.batch_solver`): one stacked
    Newton solve for all groups a bound did not decide instead of one
    solve per group.  The response's
    ``timings.solve_route``/``solve_calls`` report which path ran.

    ``optimizer`` (opt-in) attaches a
    :class:`~repro.optimizer.Optimizer`: scans and solved responses are
    then cached *across* batches, invalidated by the flush epochs that
    :class:`~repro.ingest.IngestSession` advances.  It is never on by
    default because writes that bypass the ingest layer (direct kernel
    mutation) would silently serve stale answers.
    """

    def __init__(self, *args, config: SolverConfig | None = None,
                 optimizer=None, **named):
        self.config = config or SolverConfig()
        self.optimizer = optimizer
        self._backends: dict[str, Backend] = {}
        self._default: str | None = None
        self.last_batch_report: BatchReport | None = None
        #: The most recent roll-up (summary + profile), for in-process
        #: callers that need the merged aggregate itself (workload runner).
        self.last_rollup: RollupResult | None = None
        for obj in args:
            backend = as_backend(obj)
            self.register(backend.name, backend)
        for name, obj in named.items():
            self.register(name, obj)

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------

    def register(self, name: str, backend_or_engine) -> "QueryService":
        backend = as_backend(backend_or_engine)
        self._backends[name] = backend
        if self._default is None:
            self._default = name
        return self

    @property
    def backends(self) -> tuple[str, ...]:
        return tuple(self._backends)

    def backend(self, name: str) -> Backend:
        """The registered backend adapter for ``name``."""
        try:
            return self._backends[name]
        except KeyError:
            raise QueryError(f"unknown backend {name!r}; "
                             f"registered: {sorted(self._backends)}") from None

    def _resolve(self, spec: QuerySpec) -> tuple[str, Backend]:
        name = spec.backend or self._default
        if name is None:
            raise QueryError("no backends registered")
        try:
            return name, self._backends[name]
        except KeyError:
            raise QueryError(f"unknown backend {name!r}; "
                             f"registered: {sorted(self._backends)}") from None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(spec) -> QuerySpec:
        if isinstance(spec, QuerySpec):
            return spec
        if isinstance(spec, Mapping):
            return QuerySpec.from_dict(spec)
        if isinstance(spec, str):
            return QuerySpec.from_json(spec)
        raise QueryError(f"cannot interpret {type(spec).__name__} as a QuerySpec")

    def execute(self, spec, backend: str | None = None) -> QueryResponse:
        """Plan and run one spec; see :meth:`execute_batch` for many."""
        spec = self._coerce(spec)
        if backend is not None:
            spec = spec.with_backend(backend)
        return self.execute_batch([spec])[0]

    def execute_batch(self, specs: Iterable) -> list[QueryResponse]:
        """Execute many specs, sharing one merge per distinct cell subset.

        Specs whose plans carry the same ``scan_key`` (same backend,
        measure, filters, interval, grouping) reuse the first spec's
        merged summary; because moments summaries cache their solved
        estimator, fused multi-quantile batches also share one
        max-entropy solve.  ``last_batch_report`` records the sharing.
        """
        specs = [self._coerce(spec) for spec in specs]
        responses: list[QueryResponse] = []
        rollups: dict[tuple, RollupResult] = {}
        group_rollups: dict[tuple, GroupRollupResult] = {}
        merge_calls = 0
        shared_hits = 0
        cache_hits = 0
        for spec in specs:
            run = (self._execute_traced if TELEMETRY.enabled
                   else self._execute_spec)
            response, shared, merges, source = run(spec, rollups,
                                                   group_rollups)
            shared_hits += shared
            cache_hits += source in ("response", "partial", "advisor")
            merge_calls += merges
            responses.append(response)
        self.last_batch_report = BatchReport(
            specs=len(specs),
            distinct_scans=len(rollups) + len(group_rollups),
            shared_hits=shared_hits, merge_calls=merge_calls,
            cache_hits=cache_hits)
        return responses

    def _execute_spec(self, spec: QuerySpec,
                      rollups: dict, group_rollups: dict
                      ) -> tuple[QueryResponse, bool, int, str]:
        """Run one spec against the batch's (and optimizer's) scan caches.

        Returns ``(response, shared_scan, new_merge_calls, source)``;
        ``source`` names the tier that served the scan — ``"batch"``
        (intra-batch sharing), ``"response"``/``"partial"``/``"advisor"``
        (optimizer tiers), ``"refresh"`` (a stale materialized roll-up
        re-merged), ``"cold"``, or ``"window"``.
        """
        name, backend = self._resolve(spec)
        start = time.perf_counter()
        the_plan = plan(spec, backend, backend_name=name)
        plan_seconds = time.perf_counter() - start
        if the_plan.mode == "windowed":
            return (self._run_windowed(spec, the_plan, backend, plan_seconds),
                    False, 0, "window")
        cache = group_rollups if the_plan.mode == "group" else rollups
        shared = the_plan.scan_key in cache
        merges = 0
        opt = self.optimizer
        token = epoch = solve_sig = None
        if shared:
            result = cache[the_plan.scan_key]
            source = "batch"
        elif opt is not None:
            token = opt.token(backend)
            epoch = opt.scan_epoch(backend, spec)
            # The response tier keys on everything that shapes the
            # payload: the spec's solve inputs plus the service's own
            # estimation knobs.
            solve_sig = solve_signature(spec) + (self.config,)
            start = time.perf_counter()
            hit = opt.cached_response(token, the_plan, solve_sig, epoch)
            lookup_seconds = time.perf_counter() - start
            if hit is not None:
                response = replace(
                    hit, shared_scan=True,
                    timings=QueryTimings(
                        planner_seconds=plan_seconds + lookup_seconds,
                        solve_route="cached"))
                return response, True, 0, "response"
            result, source = opt.lookup_scan(backend, token, the_plan,
                                             epoch)
            if result is None:
                result = (backend.group_rollup(spec)
                          if the_plan.mode == "group"
                          else backend.rollup(spec))
                merges = result.merge_calls
                opt.store_scan(token, the_plan, epoch, result)
            elif source == "refresh":
                merges = result.merge_calls
            cache[the_plan.scan_key] = result
        else:
            source = "cold"
            result = (backend.group_rollup(spec)
                      if the_plan.mode == "group"
                      else backend.rollup(spec))
            cache[the_plan.scan_key] = result
            merges = result.merge_calls
        # A scan served from the cache (or an up-to-date materialized
        # roll-up) paid a lookup, not the cold scan's locate + merge.
        hit_scan = source in ("partial", "advisor")
        timings_base = QueryTimings(
            planner_seconds=(plan_seconds if hit_scan
                             else plan_seconds + result.planner_seconds),
            merge_seconds=0.0 if hit_scan else result.merge_seconds)
        shared_scan = shared or hit_scan
        if the_plan.mode == "group":
            response = self._finish_group(spec, the_plan, result,
                                          timings_base, shared_scan)
        else:
            self.last_rollup = result
            response = self._finish_rollup(spec, the_plan, result,
                                           timings_base, shared_scan)
        if token is not None:
            opt.store_response(token, the_plan, solve_sig, epoch, response)
        return response, shared_scan, merges, source

    def _execute_traced(self, spec: QuerySpec,  # repro: noqa[TEL001]
                        rollups: dict, group_rollups: dict
                        ) -> tuple[QueryResponse, bool, int, str]:
        """Telemetry wrapper around :meth:`_execute_spec`.

        Emits a root ``query`` span (active while backends run, so
        cluster/storage child spans attach to it), phase spans whose
        durations are copied verbatim from the response's
        :class:`QueryTimings` (the two accountings agree exactly), a
        latency histogram per (backend, kind, route), and scan-signature
        sharing counters labelled by the tier that served the scan —
        intra-batch (``route="batch"``) and the optimizer's cross-batch
        tiers (``"response"``/``"partial"``/``"advisor"``) alike.
        """
        tracer = TELEMETRY.tracer
        registry = TELEMETRY.registry
        kind = spec.kind
        try:
            with tracer.span("query", kind=kind) as root:
                response, shared, merges, source = self._execute_spec(
                    spec, rollups, group_rollups)
                root.set_attribute("backend", response.backend)
                root.set_attribute("route", response.route)
                root.set_attribute("shared_scan", shared)
        except Exception:
            registry.counter("query_errors_total",
                             backend=spec.backend or self._default or "?",
                             kind=kind).inc()
            raise
        timings = response.timings
        base = root.start_monotonic
        if source == "response":
            # The whole answer came out of the optimizer's response
            # tier: one cache phase instead of plan/merge/solve.
            tracer.record("query.cache", timings.planner_seconds,
                          parent=root, start_monotonic=base, tier=source)
        else:
            tracer.record("query.plan", timings.planner_seconds, parent=root,
                          start_monotonic=base)
            tracer.record("query.merge", timings.merge_seconds, parent=root,
                          start_monotonic=base + timings.planner_seconds,
                          merges=response.merges,
                          cells_scanned=response.cells_scanned,
                          shared_scan=shared)
            tracer.record("query.solve", timings.solve_seconds, parent=root,
                          start_monotonic=(base + timings.planner_seconds
                                           + timings.merge_seconds),
                          solve_route=timings.solve_route,
                          solve_calls=timings.solve_calls)
        backend_name = response.backend
        registry.histogram("query_seconds", backend=backend_name, kind=kind,
                           route=response.route).observe(root.duration_seconds)
        registry.counter("queries_total", backend=backend_name,
                         kind=kind).inc()
        registry.counter(
            "scan_signature_hits_total" if shared
            else "scan_signature_misses_total",
            backend=backend_name, route=source).inc()
        TELEMETRY.slow_queries.consider(root.payload, tracer)
        return response, shared, merges, source

    # ------------------------------------------------------------------
    # Roll-up kinds
    # ------------------------------------------------------------------

    def _estimates(self, spec: QuerySpec, summary) -> np.ndarray:
        qs = np.asarray(spec.quantiles, dtype=float)
        if spec.estimator == "maxent":
            sketch = sketch_of(summary)
            if sketch is None:
                raise QueryError(
                    "estimator='maxent' needs a moments-backed summary")
            estimator = QuantileEstimator.fit(sketch, config=self.config)
            return np.asarray(estimator.quantiles(qs), dtype=float)
        return np.asarray(summary.quantiles(qs), dtype=float)

    def _group_estimates(self, spec: QuerySpec, summaries: list
                         ) -> tuple[list[np.ndarray], int, str]:
        """Per-summary quantile estimates for a group scan.

        Every moments-backed summary joins one stacked max-entropy solve
        (``fit_estimators``); the solved estimator is seeded back into
        the summary's cache so later per-group ``quantile`` calls are
        free.  Summaries without a raw sketch (non-moments aggregators)
        fall back to their own scalar path, and a scan with no raw
        sketch at all reports route ``"scalar"``.  Returns
        ``(estimates, solve_calls, solve_route)``.
        """
        qs = np.asarray(spec.quantiles, dtype=float)
        out: list = [None] * len(summaries)
        # Fit with the config a single-summary query would use: the
        # summary's own config on the "auto" path (summary.quantiles),
        # the service config for estimator="maxent" (matching _estimates).
        # Distinct configs batch separately — in practice one group.
        by_config: dict[SolverConfig, list[int]] = {}
        for index, summary in enumerate(summaries):
            if sketch_of(summary) is None:
                continue
            config = (self.config if spec.estimator == "maxent"
                      else getattr(summary, "config", None) or self.config)
            by_config.setdefault(config, []).append(index)
        calls = 0
        for config, rows in by_config.items():
            sketches = [summaries[index].sketch for index in rows]
            estimators, errors, _ = fit_estimators(
                sketches, config,
                allow_backoff=spec.estimator != "maxent")
            calls += 1
            for position, index in enumerate(rows):
                estimator = estimators[position]
                if estimator is None:
                    if spec.estimator == "maxent":
                        raise errors[position]
                    # Near-discrete group: the production degradation of
                    # MomentsSummary.quantiles (two-point-mass model).
                    out[index] = safe_estimate_quantiles(
                        sketches[position], qs, config)
                    continue
                summary = summaries[index]
                if isinstance(summary, MomentsSummary) \
                        and spec.estimator != "maxent":
                    summary._estimator = estimator
                out[index] = np.atleast_1d(estimator.quantiles(qs))
        for index, summary in enumerate(summaries):
            if out[index] is None:
                out[index] = np.atleast_1d(self._estimates(spec, summary))
                calls += 1
        return out, calls, "batched" if by_config else "scalar"

    def _finish_rollup(self, spec: QuerySpec, the_plan: QueryPlan,
                       result: RollupResult, timings: QueryTimings,
                       shared: bool) -> QueryResponse:
        summary = result.summary
        sketch = result.sketch
        count = getattr(summary, "count", None)
        moments = (_moments_payload(sketch)
                   if spec.report_moments and sketch is not None else None)
        start = time.perf_counter()
        if spec.kind == "quantile":
            # One summary, one estimator fit (cached across the fused
            # quantiles) — inherently a scalar solve.
            solve_calls = 1
            solve_route = "scalar"
            estimates_arr = self._estimates(spec, summary)
            estimates = {qkey(q): float(est)
                         for q, est in zip(spec.quantiles, estimates_arr)}
            bounds = None
            if spec.report_bounds and sketch is not None:
                errors = quantile_error_bounds(sketch, estimates_arr,
                                               spec.quantiles)
                bounds = {qkey(q): float(error)
                          for q, error in zip(spec.quantiles, errors)}
            value = float(estimates_arr[0])
            groups = None
        elif spec.kind == "cdf":
            if sketch is None:
                raise QueryError("cdf queries need a moments-backed summary")
            # CDF points come from closed-form RTT bounds, one row per
            # threshold of one bound call; no max-entropy solver runs.
            solve_calls = len(spec.thresholds)
            solve_route = "bounds"
            block = _repeated_rows(sketch, len(spec.thresholds))
            ts = np.asarray(spec.thresholds, dtype=float)
            rtt = rtt_bound_batch(block, ts)
            lows, highs = rtt.fractions()
            estimates = {qkey(t): 0.5 * (float(lo) + float(hi))
                         for t, lo, hi in zip(spec.thresholds, lows, highs)}
            bounds = None
            if spec.report_bounds:
                markov = markov_bound_batch(block, ts)
                bounds = {qkey(t): {
                    "rtt": {"lower": float(rtt.lower[row]),
                            "upper": float(rtt.upper[row])},
                    "markov": {"lower": float(markov.lower[row]),
                               "upper": float(markov.upper[row])}}
                    for row, t in enumerate(spec.thresholds)}
            value = estimates[qkey(spec.thresholds[0])]
            groups = None
        else:  # threshold_count without a grouping dimension
            groups_map = {"*": summary}
            estimates, groups, value, solve_calls, solve_route = \
                self._threshold_outcomes(spec, groups_map)
            bounds = None
        solve = time.perf_counter() - start
        return QueryResponse(
            kind=spec.kind, backend=the_plan.backend_name,
            route=result.route, value=value, estimates=estimates,
            groups=groups, bounds=bounds, moments=moments,
            count=float(count) if count is not None else None,
            cells_scanned=result.cells_scanned, merges=result.merge_calls,
            shared_scan=shared,
            timings=QueryTimings(planner_seconds=timings.planner_seconds,
                                 merge_seconds=timings.merge_seconds,
                                 solve_seconds=solve, solve_calls=solve_calls,
                                 solve_route=solve_route))

    def _threshold_outcomes(self, spec: QuerySpec, groups_map: Mapping
                            ) -> tuple[dict, dict, float, int, str]:
        """Cascade every group against every threshold (Eq. 3 counting).

        The groups that carry a raw moments sketch run through one
        :meth:`ThresholdCascade.evaluate_batch` per threshold — the
        vectorized bound stages filter all of them at once and the
        survivors share one batched max-entropy solve.  The other groups
        (GK, t-digest, S-Hist baselines) are compared through their own
        summary's estimate.  Also returns the number of solve/cascade
        invocations and the route that ran for the timings:
        ``"batched"`` if any group is moments-backed, ``"scalar"``
        otherwise.
        """
        cascade = ThresholdCascade(config=self.config,
                                   enabled_stages=spec.cascade_stages)
        q = spec.q
        groups_payload: dict = {value: {} for value in groups_map}
        estimates: dict[str, float] = {}
        backed = {value: sketch for value, summary in groups_map.items()
                  if (sketch := sketch_of(summary)) is not None}
        # One columnar gather serves every threshold's cascade pass.
        block = (ColumnarMoments.from_sketches(backed.values())
                 if backed else None)
        calls = 0
        for t in spec.thresholds:
            key = qkey(t)
            if block is not None:
                outcomes = cascade.evaluate_batch(block, t, q)
                for value, outcome in zip(backed, outcomes):
                    groups_payload[value][key] = {
                        "exceeds": outcome.result, "stage": outcome.stage}
                calls += 1
            for value, summary in groups_map.items():
                if value not in backed:
                    groups_payload[value][key] = {
                        "exceeds": bool(summary.quantile(q) > t),
                        "stage": "estimate"}
                    calls += 1
            estimates[key] = float(sum(payload[key]["exceeds"]
                                       for payload in groups_payload.values()))
        route = "batched" if backed else "scalar"
        return (estimates, groups_payload, estimates[qkey(spec.thresholds[0])],
                calls, route)

    # ------------------------------------------------------------------
    # Group kinds
    # ------------------------------------------------------------------

    def _finish_group(self, spec: QuerySpec, the_plan: QueryPlan,
                      result: GroupRollupResult, timings: QueryTimings,
                      shared: bool) -> QueryResponse:
        groups_map = result.groups
        if not groups_map and spec.kind == "top_n":
            raise QueryError("query matched no cells")
        start = time.perf_counter()
        top = None
        estimates = None
        groups = None
        value = None
        count = float(sum(getattr(s, "count", 0.0) or 0.0
                          for s in groups_map.values()))
        if spec.kind == "threshold_count":
            estimates, groups, value, solve_calls, solve_route = \
                self._threshold_outcomes(spec, groups_map)
        else:
            # top_n ranks by the summaries' own estimation path (estimator
            # "auto") whatever spec.estimator says, so aggregators without
            # raw moments still rank under estimator="maxent".
            scoring_spec = spec
            if spec.kind == "top_n" and spec.estimator != "auto":
                scoring_spec = replace(spec, estimator="auto")
            arrays, solve_calls, solve_route = self._group_estimates(
                scoring_spec, list(groups_map.values()))
            if spec.kind == "group_by":
                groups = {
                    group: {qkey(q): float(est)
                            for q, est in zip(spec.quantiles, array)}
                    for group, array in zip(groups_map, arrays)}
            else:
                scored = sorted(((group, float(array[0]))
                                 for group, array in zip(groups_map, arrays)),
                                key=lambda pair: pair[1], reverse=True)
                top = scored[:spec.n or 1]
                value = top[0][1]
        solve = time.perf_counter() - start
        return QueryResponse(
            kind=spec.kind, backend=the_plan.backend_name, route=result.route,
            value=value, estimates=estimates, groups=groups, top=top,
            count=count, cells_scanned=result.cells_scanned,
            merges=result.merge_calls, shared_scan=shared,
            timings=QueryTimings(planner_seconds=timings.planner_seconds,
                                 merge_seconds=timings.merge_seconds,
                                 solve_seconds=solve, solve_calls=solve_calls,
                                 solve_route=solve_route))

    # ------------------------------------------------------------------
    # Windowed kind
    # ------------------------------------------------------------------

    def _run_windowed(self, spec: QuerySpec, the_plan: QueryPlan,
                      backend: Backend, plan_seconds: float) -> QueryResponse:
        result = backend.windowed(spec)
        return QueryResponse(
            kind=spec.kind, backend=the_plan.backend_name, route=result.route,
            value=float(len(result.alerts)), alerts=result.alerts,
            count=result.count, cells_scanned=result.panes,
            merges=result.windows_checked,
            timings=QueryTimings(planner_seconds=plan_seconds,
                                 merge_seconds=result.merge_seconds,
                                 solve_seconds=result.solve_seconds,
                                 solve_calls=max(result.windows_checked, 1),
                                 solve_route="window"))


def _repeated_rows(sketch: MomentsSketch, rows: int) -> ColumnarMoments:
    """A block holding ``sketch`` once per row, for per-row thresholds."""
    sketch.require_nonempty()
    return ColumnarMoments.from_sketches([sketch]).take(np.zeros(rows, int))


def execute(spec, backend_obj, **adapter_kwargs) -> QueryResponse:
    """One-shot convenience: adapt ``backend_obj`` and execute ``spec``."""
    backend = as_backend(backend_obj, **adapter_kwargs)
    return QueryService().register(backend.name, backend).execute(spec)
