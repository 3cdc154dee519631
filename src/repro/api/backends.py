"""Backend protocol and adapters for the unified query API.

A :class:`Backend` turns the storage-specific half of a query — locate
the matching cells, merge their summaries — into two primitives the
service layer consumes:

* :meth:`Backend.rollup` — merge every matching cell into one summary;
* :meth:`Backend.group_rollup` — one merged summary per value of the
  grouping dimension.

Adapters are provided for the four aggregation systems in this
repository: :class:`CubeBackend` (:class:`~repro.datacube.DataCube`),
:class:`DruidBackend` (:class:`~repro.druid.DruidEngine`),
:class:`PackedStoreBackend` (:class:`~repro.store.PackedSketchStore`),
and :class:`WindowBackend` (pre-aggregated panes, which additionally
answers ``windowed`` alert queries).  :class:`SummariesBackend` covers
any plain sequence of mergeable summaries (e.g. the object cells of
:mod:`repro.workload`).  All adapters reuse the engines' own merge code paths, so
results routed through the API are identical — bit-for-bit on moments —
to the legacy per-engine entry points.

:func:`as_backend` adapts a raw engine object via the module-level
:data:`ADAPTERS` registry, which downstream systems can extend with
:func:`register_adapter`.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.errors import QueryError
from ..core.sketch import MomentsSketch
from ..core.solver import SolverConfig
from ..datacube.cube import DataCube
from ..druid.aggregators import MomentsSketchAggregator, SummaryState
from ..druid.engine import DruidEngine
from ..store import PackedSketchStore
from ..summaries.moments_summary import MomentsSummary
from ..window.sliding import (Pane, TurnstileWindowProcessor, pack_panes,
                              remerge_windows_packed)
from ..window.streaming import StreamingWindowMonitor
from .spec import QuerySpec


def sketch_of(summary) -> MomentsSketch | None:
    """The raw moments sketch behind a summary, if it has one."""
    sketch = getattr(summary, "sketch", None)
    return sketch if isinstance(sketch, MomentsSketch) else None


@dataclass
class RollupResult:
    """One merged summary plus the scan/merge profile that produced it."""

    summary: object
    cells_scanned: int
    merge_calls: int
    planner_seconds: float
    merge_seconds: float
    route: str

    @property
    def sketch(self) -> MomentsSketch | None:
        return sketch_of(self.summary)


@dataclass
class GroupRollupResult:
    """Merged summary per group value, plus the scan/merge profile."""

    groups: dict
    cells_scanned: int
    merge_calls: int
    planner_seconds: float
    merge_seconds: float
    route: str


@dataclass
class WindowedResult:
    """Alerts from a sliding-window threshold scan."""

    alerts: list
    windows_checked: int
    panes: int
    count: float
    merge_seconds: float
    solve_seconds: float
    route: str


class Backend(abc.ABC):
    """Adapter contract between a storage engine and the query service."""

    #: Registered display name (overridden per instance by the service).
    name: str = "backend"
    #: True when roll-ups run as vectorized packed reductions.
    supports_packed: bool = False
    #: Query kinds this backend can execute.
    kinds: frozenset = frozenset(
        ("quantile", "cdf", "threshold_count", "group_by", "top_n"))

    @abc.abstractmethod
    def rollup(self, spec: QuerySpec) -> RollupResult: ...

    def group_rollup(self, spec: QuerySpec) -> GroupRollupResult:
        raise QueryError(f"backend {self.name!r} cannot group by dimension")

    def windowed(self, spec: QuerySpec) -> WindowedResult:
        raise QueryError(f"backend {self.name!r} cannot run windowed queries")

    def cache_target(self):
        """The engine object whose flush epoch invalidates this backend.

        Adapters are cheap wrappers that may be rebuilt per query (a
        caller may re-register them after every flush), so the optimizer's
        caches key on the long-lived engine underneath, not the adapter.
        Subclasses wrapping an inner engine must override this.
        """
        return self


def _timed_fold(summaries: Sequence) -> tuple[object, float]:
    """Left-fold merge with timing; the object-per-cell baseline plan."""
    start = time.perf_counter()
    aggregate = summaries[0].copy()
    for summary in summaries[1:]:
        aggregate.merge(summary)
    return aggregate, time.perf_counter() - start


# ----------------------------------------------------------------------
# DataCube
# ----------------------------------------------------------------------

class CubeBackend(Backend):
    """Adapter over :class:`~repro.datacube.DataCube` (both cell backends)."""

    name = "cube"

    def __init__(self, cube: DataCube):
        self.cube = cube

    def cache_target(self):
        return self.cube

    @property
    def supports_packed(self) -> bool:  # type: ignore[override]
        return self.cube.backend == "packed"

    def rollup(self, spec: QuerySpec) -> RollupResult:
        if spec.interval is not None:
            raise QueryError("the cube backend has no time axis; "
                             "drop the interval or use the druid backend")
        merged, profile = self.cube.rollup_profiled(spec.filters_dict())
        return RollupResult(summary=merged, **profile)

    def group_rollup(self, spec: QuerySpec) -> GroupRollupResult:
        if spec.interval is not None:
            raise QueryError("the cube backend has no time axis; "
                             "drop the interval or use the druid backend")
        profile: dict = {}
        groups = self.cube._group_summaries(spec.group_dimension,
                                            spec.filters_dict(),
                                            profile=profile)
        route = "packed" if self.cube.backend == "packed" else "loop"
        return GroupRollupResult(
            groups=groups, cells_scanned=self.cube.num_cells,
            merge_calls=len(groups) if route == "packed" else 0,
            planner_seconds=profile["locate_seconds"],
            merge_seconds=profile["merge_seconds"], route=route)


# ----------------------------------------------------------------------
# Druid engine
# ----------------------------------------------------------------------

class _FinalizeSummary:
    """Minimal summary facade over a non-summary aggregator state."""

    def __init__(self, state):
        self.state = state

    def quantile(self, q: float) -> float:
        return self.state.finalize(q=q)

    def quantiles(self, qs) -> np.ndarray:
        return np.asarray([self.quantile(float(q)) for q in np.atleast_1d(qs)])

    @property
    def count(self) -> float | None:
        return getattr(self.state, "count", None)


def _state_summary(state) -> object:
    return state.summary if isinstance(state, SummaryState) else _FinalizeSummary(state)


class DruidBackend(Backend):
    """Adapter over :class:`~repro.druid.DruidEngine`.

    ``spec.measure`` selects the aggregator; when omitted, a single
    registered aggregator is used implicitly, else the first registered
    moments-sketch aggregator.
    """

    name = "druid"

    def __init__(self, engine: DruidEngine):
        self.engine = engine

    def cache_target(self):
        return self.engine

    @property
    def supports_packed(self) -> bool:  # type: ignore[override]
        return bool(self.engine._packed_names)

    def _aggregator(self, spec: QuerySpec) -> str:
        if spec.measure is not None:
            return spec.measure
        names = list(self.engine.aggregators)
        if len(names) == 1:
            return names[0]
        for name, factory in self.engine.aggregators.items():
            if isinstance(factory, MomentsSketchAggregator):
                return name
        raise QueryError(
            f"ambiguous measure; set spec.measure to one of {sorted(names)}")

    def rollup(self, spec: QuerySpec) -> RollupResult:
        engine = self.engine
        aggregator = self._aggregator(spec)
        filters = spec.filters_dict()
        start = time.perf_counter()
        if aggregator in engine._packed_names:
            refs = engine._matching_packed_rows(aggregator, filters,
                                                spec.interval)
            planner = time.perf_counter() - start
            scanned = sum(rows.size for _, rows in refs)
            if scanned == 0:
                raise QueryError("query matched no cells")
            start = time.perf_counter()
            sketch = DruidEngine.fold_packed_refs(refs)
            merged = engine._wrap_packed(aggregator, sketch)
            return RollupResult(summary=_state_summary(merged),
                                cells_scanned=scanned, merge_calls=len(refs),
                                planner_seconds=planner,
                                merge_seconds=time.perf_counter() - start,
                                route="packed")
        states = engine._matching_states(aggregator, filters, spec.interval)
        planner = time.perf_counter() - start
        if not states:
            raise QueryError("query matched no cells")
        start = time.perf_counter()
        merged = engine._merge_states(states)
        return RollupResult(summary=_state_summary(merged),
                            cells_scanned=len(states),
                            merge_calls=len(states) - 1,
                            planner_seconds=planner,
                            merge_seconds=time.perf_counter() - start,
                            route="loop")

    def group_rollup(self, spec: QuerySpec) -> GroupRollupResult:
        if spec.interval is not None:
            # group_states scans every segment; silently answering over
            # all time would be wrong, so reject until it learns intervals.
            raise QueryError(
                "the druid backend does not support intervals on grouped "
                "queries; drop the interval")
        aggregator = self._aggregator(spec)
        profile: dict = {}
        states = self.engine.group_states(aggregator, spec.group_dimension,
                                          spec.filters_dict(),
                                          profile=profile)
        route = "packed" if aggregator in self.engine._packed_names else "loop"
        return GroupRollupResult(
            groups={value: _state_summary(state)
                    for value, state in states.items()},
            cells_scanned=self.engine.num_cells,
            merge_calls=len(states) if route == "packed" else 0,
            planner_seconds=profile["locate_seconds"],
            merge_seconds=profile["merge_seconds"], route=route)


# ----------------------------------------------------------------------
# Packed sketch store
# ----------------------------------------------------------------------

class PackedStoreBackend(Backend):
    """Adapter over a raw :class:`~repro.store.PackedSketchStore`.

    ``keys`` (optional) maps each row to its dimension tuple, enabling
    filters and group-bys; ``dimensions`` names the tuple positions.
    ``rows`` restricts the backend to a row subset.
    """

    name = "packed"
    supports_packed = True

    def __init__(self, store: PackedSketchStore,
                 keys: Sequence[tuple] | None = None,
                 dimensions: Sequence[str] | None = None,
                 config: SolverConfig | None = None,
                 rows: np.ndarray | None = None):
        if (keys is None) != (dimensions is None):
            raise QueryError("keys and dimensions must be given together")
        self.store = store
        self.keys = list(keys) if keys is not None else None
        self.dimensions = tuple(dimensions) if dimensions is not None else ()
        self.config = config or SolverConfig()
        self.rows = (np.arange(len(store), dtype=np.intp) if rows is None
                     else np.asarray(rows, dtype=np.intp))
        if self.keys is not None and len(self.keys) != len(store):
            raise QueryError("need one key tuple per store row")

    def cache_target(self):
        return self.store

    def _wrap(self, sketch: MomentsSketch) -> MomentsSummary:
        summary = MomentsSummary(k=self.store.k, track_log=self.store.track_log,
                                 config=self.config)
        summary.sketch = sketch
        return summary

    def _positions(self, filters: dict) -> dict[int, object]:
        if not filters:
            return {}
        if self.keys is None:
            raise QueryError("this packed store has no dimensions to filter on")
        positions = {}
        for dim, value in filters.items():
            if dim not in self.dimensions:
                raise QueryError(f"unknown dimension {dim!r}; "
                                 f"have {self.dimensions}")
            positions[self.dimensions.index(dim)] = value
        return positions

    def _matching_rows(self, filters: dict) -> np.ndarray:
        positions = self._positions(filters)
        if not positions:
            return self.rows
        return np.asarray(
            [row for row in self.rows
             if all(self.keys[row][pos] == value
                    for pos, value in positions.items())], dtype=np.intp)

    def rollup(self, spec: QuerySpec) -> RollupResult:
        if spec.interval is not None:
            raise QueryError("the packed-store backend has no time axis")
        start = time.perf_counter()
        rows = self._matching_rows(spec.filters_dict())
        planner = time.perf_counter() - start
        if rows.size == 0:
            raise QueryError(f"no cells match filter {spec.filters_dict()}")
        start = time.perf_counter()
        merged = self._wrap(self.store.batch_merge(rows))
        return RollupResult(summary=merged, cells_scanned=int(rows.size),
                            merge_calls=1, planner_seconds=planner,
                            merge_seconds=time.perf_counter() - start,
                            route="packed")

    def group_rollup(self, spec: QuerySpec) -> GroupRollupResult:
        if self.keys is None:
            raise QueryError("this packed store has no dimensions to group on")
        if spec.group_dimension not in self.dimensions:
            raise QueryError(f"unknown dimension {spec.group_dimension!r}")
        position = self.dimensions.index(spec.group_dimension)
        start = time.perf_counter()
        rows = self._matching_rows(spec.filters_dict())
        if rows.size == 0:
            raise QueryError(f"no cells match filter {spec.filters_dict()}")
        group_keys = [self.keys[row][position] for row in rows]
        planner = time.perf_counter() - start
        start = time.perf_counter()
        groups = {value: self._wrap(sketch) for value, sketch
                  in self.store.batch_merge_by(rows, group_keys).items()}
        return GroupRollupResult(groups=groups, cells_scanned=int(rows.size),
                                 merge_calls=len(groups),
                                 planner_seconds=planner,
                                 merge_seconds=time.perf_counter() - start,
                                 route="packed")


# ----------------------------------------------------------------------
# Window layer
# ----------------------------------------------------------------------

class WindowBackend(Backend):
    """Adapter over pre-aggregated panes (Section 7.2.2 workloads).

    Plain roll-up kinds merge every pane (one packed reduction);
    ``windowed`` specs run the sliding threshold scan with the strategy
    named in the spec's :class:`~repro.api.spec.WindowSpec`.
    """

    name = "window"
    supports_packed = True
    kinds = frozenset(("quantile", "cdf", "threshold_count", "windowed"))

    def __init__(self, panes: Sequence[Pane],
                 config: SolverConfig | None = None):
        if not panes:
            raise QueryError("the window backend needs at least one pane")
        self.panes = list(panes)
        self.config = config or SolverConfig()
        self.store = pack_panes(self.panes)

    def rollup(self, spec: QuerySpec) -> RollupResult:
        if spec.filters or spec.interval is not None:
            raise QueryError("the window backend has no dimensions to filter")
        start = time.perf_counter()
        merged = self.store.batch_merge()
        merge_seconds = time.perf_counter() - start
        summary = MomentsSummary(k=merged.k, track_log=merged.track_log,
                                 config=self.config)
        summary.sketch = merged
        return RollupResult(summary=summary, cells_scanned=len(self.panes),
                            merge_calls=1, planner_seconds=0.0,
                            merge_seconds=merge_seconds, route="packed")

    def windowed(self, spec: QuerySpec) -> WindowedResult:
        if spec.filters or spec.interval is not None:
            raise QueryError("the window backend has no dimensions to filter")
        assert spec.window is not None
        window = spec.window
        threshold = spec.thresholds[0]
        if window.strategy == "turnstile":
            processor = TurnstileWindowProcessor(
                self.panes, window.window_panes,
                cascade_stages=spec.cascade_stages, config=self.config)
            result = processor.query(threshold, q=spec.q)
        else:
            result = remerge_windows_packed(
                self.panes, window.window_panes, threshold, q=spec.q,
                config=self.config)
        alerts = [{"start_pane": alert.start_pane, "end_pane": alert.end_pane,
                   "stage": alert.stage} for alert in result.alerts]
        return WindowedResult(alerts=alerts,
                              windows_checked=result.windows_checked,
                              panes=len(self.panes),
                              count=float(sum(p.count for p in self.panes)),
                              merge_seconds=result.merge_seconds,
                              solve_seconds=result.estimation_seconds,
                              route=window.strategy)


# ----------------------------------------------------------------------
# Plain summary sequences (workload object cells, single sketches)
# ----------------------------------------------------------------------

class SummariesBackend(Backend):
    """Adapter over any sequence of mergeable quantile summaries."""

    name = "summaries"

    def __init__(self, summaries: Sequence):
        if not summaries:
            raise QueryError("need at least one summary")
        self.summaries = list(summaries)

    def rollup(self, spec: QuerySpec) -> RollupResult:
        if spec.filters or spec.interval is not None:
            raise QueryError("a summary list has no dimensions to filter")
        if len(self.summaries) == 1:
            return RollupResult(summary=self.summaries[0],
                                cells_scanned=1, merge_calls=0,
                                planner_seconds=0.0, merge_seconds=0.0,
                                route="loop")
        merged, merge_seconds = _timed_fold(self.summaries)
        return RollupResult(summary=merged, cells_scanned=len(self.summaries),
                            merge_calls=len(self.summaries) - 1,
                            planner_seconds=0.0, merge_seconds=merge_seconds,
                            route="loop")


# ----------------------------------------------------------------------
# Adapter registry
# ----------------------------------------------------------------------

#: (predicate, adapter factory) pairs tried in order by :func:`as_backend`.
ADAPTERS: list[tuple[Callable[[object], bool], Callable[..., Backend]]] = []


def register_adapter(predicate: Callable[[object], bool],
                     factory: Callable[..., Backend]) -> None:
    """Register an automatic engine-object -> backend adapter."""
    ADAPTERS.append((predicate, factory))


def as_backend(obj, **kwargs) -> Backend:
    """Adapt a raw engine object (or pass a Backend through unchanged)."""
    if isinstance(obj, Backend):
        return obj
    for attempt in range(2):
        for predicate, factory in ADAPTERS:
            if predicate(obj):
                return factory(obj, **kwargs)
        if attempt == 0:
            # Layers above this module (the cluster serving and tiered
            # storage layers) register their adapters on import; pull
            # them in lazily so `QueryService(cluster=coordinator)` or
            # `QueryService(tiered=store)` works without the caller
            # importing repro.cluster / repro.storage first.
            from .. import cluster, storage  # noqa: F401
    raise QueryError(
        f"no backend adapter for {type(obj).__name__}; register one with "
        "repro.api.register_adapter or pass a Backend instance")


def _monitor_panes(monitor, **kwargs) -> WindowBackend:
    """Adapt a live StreamingWindowMonitor: query its current window.

    The monitor retains the last ``window_panes`` sealed panes; this is
    the read side of a :class:`~repro.ingest.IngestSession` over a
    monitor, so freshly streamed data is queryable right after a flush.
    """
    panes = list(monitor._panes)
    if not panes:
        raise QueryError("the window monitor has no sealed panes to query")
    return WindowBackend(panes, **kwargs)


def _panes_like(obj) -> bool:
    return (isinstance(obj, (list, tuple)) and len(obj) > 0
            and all(isinstance(item, Pane) for item in obj))


def _summary_like(obj) -> bool:
    return (isinstance(obj, (list, tuple)) and len(obj) > 0
            and all(hasattr(item, "merge") and hasattr(item, "quantile")
                    for item in obj))


register_adapter(lambda obj: isinstance(obj, DataCube), CubeBackend)
register_adapter(lambda obj: isinstance(obj, DruidEngine), DruidBackend)
register_adapter(lambda obj: isinstance(obj, PackedSketchStore),
                 PackedStoreBackend)
register_adapter(lambda obj: isinstance(obj, StreamingWindowMonitor),
                 _monitor_panes)
register_adapter(_panes_like, WindowBackend)
register_adapter(_summary_like, SummariesBackend)
