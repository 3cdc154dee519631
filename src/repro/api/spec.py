"""Declarative query descriptions and uniform responses.

:class:`QuerySpec` is the single entry point of the unified query API:
one validated, JSON-round-trippable value object that describes *what*
to compute (quantiles, CDF points, threshold counts, group-bys, top-n
rankings, windowed alerts) independently of *which* backend computes it
(data cube, Druid engine, packed store, window processors).  The planner
(:mod:`repro.api.planner`) turns a spec into an execution route and
:class:`~repro.api.service.QueryService` runs it, returning a
:class:`QueryResponse` with the estimate(s), optional error bounds, the
merged moments (on request), and the Eq. 2 cost decomposition
(planner / merge / solve seconds, cells scanned, merges performed).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import Mapping

from ..core.errors import QueryError
from ..core.params import check_q

#: Supported query kinds.
KINDS = ("quantile", "cdf", "threshold_count", "group_by", "top_n", "windowed")

#: Cascade stage names a spec may enable (see repro.core.cascade.STAGES).
_CASCADE_STAGES = ("simple", "markov", "rtt")

#: Window execution strategies.
WINDOW_STRATEGIES = ("turnstile", "remerge")


def qkey(value: float) -> str:
    """Stable string key for a quantile/threshold in JSON payloads.

    Uses Python's shortest round-trip ``repr``, so distinct floats never
    collide (``format(x, "g")`` would merge values past 6 significant
    digits) while common fractions stay readable (``"0.5"``, ``"0.99"``).
    """
    return repr(float(value))


def _reals(name: str, values: object) -> tuple[float, ...]:
    """``values`` as a tuple of floats, or a :class:`QueryError` naming
    the field (a string is not a list of numbers)."""
    if isinstance(values, (str, bytes, Mapping)) \
            or not isinstance(values, Iterable):
        raise QueryError(f"{name} must be a list of numbers, got {values!r}")
    values = tuple(values)
    if not all(isinstance(v, Real) for v in values):
        raise QueryError(f"{name} must be a list of numbers, "
                         f"got {list(values)!r}")
    return tuple(float(v) for v in values)


def _count(name: str, value: object) -> int:
    """``value`` as an integer >= 1, or a :class:`QueryError` naming the
    field (``2.7`` is rejected, not truncated)."""
    if isinstance(value, bool) or not isinstance(value, Integral) \
            or value < 1:
        raise QueryError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _filter_pairs(filters: object) -> tuple[tuple[str, object], ...]:
    """Filters as ``(dimension, value)`` pairs sorted by dimension; each
    value must be hashable (the scan signature keys on it)."""
    items = filters.items() if isinstance(filters, Mapping) else filters
    if isinstance(items, (str, bytes)) or not isinstance(items, Iterable):
        raise QueryError(f"filters must map dimensions to values, "
                         f"got {filters!r}")
    pairs = []
    for item in items:
        if not isinstance(item, (tuple, list)) or len(item) != 2:
            raise QueryError(f"filters must map dimensions to values, "
                             f"got {filters!r}")
        try:
            hash(item[1])
        except TypeError:
            raise QueryError(f"filter value for {item[0]!r} must be a "
                             f"scalar, got {item[1]!r}") from None
        pairs.append((str(item[0]), item[1]))
    return tuple(sorted(pairs, key=lambda kv: kv[0]))


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window parameters for ``kind="windowed"`` queries."""

    window_panes: int
    strategy: str = "turnstile"

    def __post_init__(self):
        object.__setattr__(self, "window_panes",
                           _count("window_panes", self.window_panes))
        if self.strategy not in WINDOW_STRATEGIES:
            raise QueryError(f"unknown window strategy {self.strategy!r}; "
                             f"use one of {WINDOW_STRATEGIES}")

    def to_dict(self) -> dict:
        return {"window_panes": self.window_panes, "strategy": self.strategy}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WindowSpec":
        if not isinstance(payload, Mapping) or "window_panes" not in payload:
            raise QueryError(f"window needs a 'window_panes' field, "
                             f"got {payload!r}")
        unknown = set(payload) - {"window_panes", "strategy"}
        if unknown:
            raise QueryError(f"unknown window fields: {sorted(unknown)}")
        return cls(window_panes=payload["window_panes"],
                   strategy=payload.get("strategy", "turnstile"))


@dataclass(frozen=True)
class QuerySpec:
    """One declarative query over any registered backend.

    Parameters
    ----------
    kind:
        One of :data:`KINDS`.
    quantiles:
        Target quantile fractions ``q`` in (0, 1).  ``quantile`` and
        ``group_by`` accept several (fused into one merge + one solver
        pass); ``threshold_count``/``top_n``/``windowed`` use exactly one.
    thresholds:
        Metric-value thresholds for ``cdf``, ``threshold_count``, and
        ``windowed`` queries.
    filters:
        Equality filters ``{dimension: value}`` applied before merging.
    interval:
        Optional ``(t_lo, t_hi)`` time interval (Druid backend).
    group_dimension:
        Grouping dimension for ``group_by``/``top_n`` (and optionally
        ``threshold_count``).
    n:
        Result-list size for ``top_n``.
    measure:
        Backend measure name (the Druid aggregator); backends with a
        single implicit measure ignore it.
    backend:
        Optional registered backend name; defaults to the service's
        default backend.
    estimator:
        ``"auto"`` (max-entropy with safe fallback, the default) or
        ``"maxent"``.
    cascade_stages:
        Bound stages enabled for threshold/windowed cascades.
    report_bounds:
        Include certified error bounds in the response.
    report_moments:
        Include the merged raw moments in the response (cross-backend
        equivalence checks).
    window:
        :class:`WindowSpec` for ``windowed`` queries.
    """

    kind: str
    quantiles: tuple[float, ...] = (0.5,)
    thresholds: tuple[float, ...] = ()
    filters: tuple[tuple[str, object], ...] = ()
    interval: tuple[float, float] | None = None
    group_dimension: str | None = None
    n: int | None = None
    measure: str | None = None
    backend: str | None = None
    estimator: str = "auto"
    cascade_stages: tuple[str, ...] = _CASCADE_STAGES
    report_bounds: bool = False
    report_moments: bool = False
    window: WindowSpec | None = None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def __post_init__(self):
        if self.kind not in KINDS:
            raise QueryError(f"unknown query kind {self.kind!r}; "
                             f"use one of {KINDS}")
        object.__setattr__(self, "quantiles", tuple(
            check_q(q) for q in _reals("quantiles", self.quantiles)))
        object.__setattr__(self, "thresholds",
                           _reals("thresholds", self.thresholds))
        if any(math.isnan(t) for t in self.thresholds):
            raise QueryError(f"thresholds must not be NaN, "
                             f"got {self.thresholds}")
        object.__setattr__(self, "filters", _filter_pairs(self.filters))
        if self.interval is not None:
            interval = _reals("interval", self.interval)
            if len(interval) != 2:
                raise QueryError(f"interval must be [lo, hi], "
                                 f"got {self.interval!r}")
            object.__setattr__(self, "interval", interval)
            if any(math.isnan(bound) for bound in interval):
                raise QueryError(f"interval bounds must not be NaN, "
                                 f"got {interval}")
            if interval[0] > interval[1]:
                raise QueryError(f"empty interval {interval}")
        for name in ("group_dimension", "measure", "backend"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise QueryError(f"{name} must be a string, got {value!r}")
        if isinstance(self.cascade_stages, str) \
                or not isinstance(self.cascade_stages, Iterable):
            raise QueryError(f"cascade_stages must be a list of stage "
                             f"names, got {self.cascade_stages!r}")
        object.__setattr__(self, "cascade_stages", tuple(self.cascade_stages))
        unknown = [s for s in self.cascade_stages if s not in _CASCADE_STAGES]
        if unknown:
            raise QueryError(f"unknown cascade stages: {unknown}")
        if self.estimator not in ("auto", "maxent"):
            raise QueryError(f"unknown estimator {self.estimator!r}; "
                             f"use 'auto' or 'maxent'")
        if self.n is not None:
            object.__setattr__(self, "n", _count("n", self.n))
        if self.window is not None and not isinstance(self.window, WindowSpec):
            raise QueryError(f"window must be a WindowSpec, "
                             f"got {self.window!r}")

        needs_quantiles = self.kind in ("quantile", "group_by", "top_n",
                                        "threshold_count", "windowed")
        if needs_quantiles and not self.quantiles:
            raise QueryError(f"{self.kind} queries need at least one quantile")
        if self.kind in ("threshold_count", "top_n", "windowed") \
                and len(self.quantiles) != 1:
            raise QueryError(f"{self.kind} queries use exactly one quantile")
        if self.kind in ("cdf", "threshold_count", "windowed") \
                and not self.thresholds:
            raise QueryError(f"{self.kind} queries need at least one threshold")
        if self.kind == "windowed" and len(self.thresholds) != 1:
            raise QueryError("windowed queries use exactly one threshold")
        if self.kind in ("group_by", "top_n") and not self.group_dimension:
            raise QueryError(f"{self.kind} queries need a group_dimension")
        if self.kind == "top_n" and self.n is None:
            raise QueryError("top_n queries need n >= 1, got None")
        if self.kind == "windowed" and self.window is None:
            raise QueryError("windowed queries need a window=WindowSpec(...)")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def q(self) -> float:
        """The (single) target quantile fraction."""
        return self.quantiles[0]

    def filters_dict(self) -> dict[str, object]:
        return dict(self.filters)

    def scan_signature(self) -> tuple:
        """Hashable identity of the cell subset this spec merges.

        Two specs with equal signatures (on the same backend) share one
        merge in :meth:`~repro.api.service.QueryService.execute_batch`.
        Group scans fold the grouping dimension in; windowed queries are
        never shared.
        """
        group = (self.group_dimension
                 if self.kind in ("group_by", "top_n", "threshold_count")
                 else None)
        return (self.measure, self.filters, self.interval, group)

    def with_backend(self, name: str) -> "QuerySpec":
        return replace(self, backend=name)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        payload: dict = {"kind": self.kind,
                         "quantiles": list(self.quantiles)}
        if self.thresholds:
            payload["thresholds"] = list(self.thresholds)
        if self.filters:
            payload["filters"] = {dim: value for dim, value in self.filters}
        if self.interval is not None:
            payload["interval"] = list(self.interval)
        for name in ("group_dimension", "n", "measure", "backend"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        if self.estimator != "auto":
            payload["estimator"] = self.estimator
        if self.cascade_stages != _CASCADE_STAGES:
            payload["cascade_stages"] = list(self.cascade_stages)
        if self.report_bounds:
            payload["report_bounds"] = True
        if self.report_moments:
            payload["report_moments"] = True
        if self.window is not None:
            payload["window"] = self.window.to_dict()
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), default=str)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QuerySpec":
        payload = dict(payload)
        kind = payload.pop("kind", None)
        if kind is None:
            raise QueryError("a query spec needs a 'kind'")
        quantiles = payload.pop("quantiles", None)
        # Accept the scalar alias 'q'.
        if quantiles is None and "q" in payload:
            q = payload.pop("q")
            quantiles = q if isinstance(q, (list, tuple)) else [q]
        if quantiles is None:
            quantiles = [0.5]
        thresholds = payload.pop("thresholds", None)
        if thresholds is None and "t" in payload:
            t = payload.pop("t")
            thresholds = t if isinstance(t, (list, tuple)) else [t]
        window = payload.pop("window", None)
        known = {name: payload[name] for name in
                 ("filters", "interval", "group_dimension", "n", "measure",
                  "backend", "estimator", "cascade_stages", "report_bounds",
                  "report_moments") if name in payload}
        unknown = set(payload) - set(known)
        if unknown:
            raise QueryError(f"unknown query spec fields: {sorted(unknown)}")
        return cls(kind=kind, quantiles=quantiles,
                   thresholds=() if thresholds is None else thresholds,
                   window=None if window is None
                   else WindowSpec.from_dict(window),
                   **known)

    @classmethod
    def from_json(cls, text: str) -> "QuerySpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise QueryError(f"invalid query spec JSON: {exc}") from None
        if not isinstance(payload, Mapping):
            raise QueryError("query spec JSON must be an object")
        return cls.from_dict(payload)


@dataclass(frozen=True)
class QueryTimings:
    """Eq. 2 cost decomposition: plan + scan, merge fold, estimator solve.

    ``solve_route`` records which estimation path ran the solve phase —
    ``"batched"`` (one stacked max-entropy solve across all
    moments-backed groups), ``"scalar"`` (single-summary solves, and one
    solve per group for non-moments summaries),
    ``"bounds"`` (closed-form RTT/Markov bounds, the ``cdf`` kind),
    ``"window"`` (per-window sliding scans), or ``"cached"`` (no solve
    ran at all: the multi-query optimizer served a previously solved
    response verbatim) — and ``solve_calls`` how
    many solver/bound invocations that was, ``1`` for a batched group
    solve regardless of group count.  Every :class:`~repro.api.service
    .QueryService` route fills both, so observability layers (the
    benchmark's ``api.solve_calls_per_query``) can rely on them; they
    are omitted from JSON only when zero/empty (hand-built instances).
    """

    planner_seconds: float = 0.0
    merge_seconds: float = 0.0
    solve_seconds: float = 0.0
    solve_calls: int = 0
    solve_route: str = ""

    @property
    def total_seconds(self) -> float:
        return self.planner_seconds + self.merge_seconds + self.solve_seconds

    def to_dict(self) -> dict:
        payload = {"planner_seconds": self.planner_seconds,
                   "merge_seconds": self.merge_seconds,
                   "solve_seconds": self.solve_seconds}
        if self.solve_calls:
            payload["solve_calls"] = self.solve_calls
        if self.solve_route:
            payload["solve_route"] = self.solve_route
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QueryTimings":
        return cls(planner_seconds=float(payload.get("planner_seconds", 0.0)),
                   merge_seconds=float(payload.get("merge_seconds", 0.0)),
                   solve_seconds=float(payload.get("solve_seconds", 0.0)),
                   solve_calls=int(payload.get("solve_calls", 0)),
                   solve_route=str(payload.get("solve_route", "")))


@dataclass(frozen=True)
class QueryResponse:
    """Uniform result of executing one :class:`QuerySpec`.

    ``estimates`` is keyed by :func:`qkey` of the quantile (or threshold,
    for ``cdf``); ``groups``/``top`` keep the original group values
    in-memory and stringify them only in :meth:`to_dict`, so the JSON
    round trip is stable at the JSON level
    (``from_json(r.to_json()).to_json() == r.to_json()``).
    """

    kind: str
    backend: str
    route: str
    value: float | None = None
    estimates: dict | None = None
    groups: dict | None = None
    top: list | None = None
    alerts: list | None = None
    bounds: dict | None = None
    moments: dict | None = None
    count: float | None = None
    cells_scanned: int = 0
    merges: int = 0
    shared_scan: bool = False
    timings: QueryTimings = field(default_factory=QueryTimings)

    def to_dict(self) -> dict:
        payload: dict = {"kind": self.kind, "backend": self.backend,
                         "route": self.route}
        if self.value is not None:
            payload["value"] = self.value
        if self.estimates is not None:
            payload["estimates"] = dict(self.estimates)
        if self.groups is not None:
            payload["groups"] = {str(key): value
                                 for key, value in self.groups.items()}
        if self.top is not None:
            payload["top"] = [[str(key), est] for key, est in self.top]
        if self.alerts is not None:
            payload["alerts"] = list(self.alerts)
        if self.bounds is not None:
            payload["bounds"] = self.bounds
        if self.moments is not None:
            payload["moments"] = self.moments
        if self.count is not None:
            payload["count"] = self.count
        payload["cells_scanned"] = self.cells_scanned
        payload["merges"] = self.merges
        if self.shared_scan:
            payload["shared_scan"] = True
        payload["timings"] = self.timings.to_dict()
        return payload

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=float)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QueryResponse":
        payload = dict(payload)
        timings = QueryTimings.from_dict(payload.pop("timings", {}))
        top = payload.pop("top", None)
        if top is not None:
            top = [(key, est) for key, est in top]
        return cls(kind=payload.pop("kind"), backend=payload.pop("backend"),
                   route=payload.pop("route"),
                   value=payload.pop("value", None),
                   estimates=payload.pop("estimates", None),
                   groups=payload.pop("groups", None), top=top,
                   alerts=payload.pop("alerts", None),
                   bounds=payload.pop("bounds", None),
                   moments=payload.pop("moments", None),
                   count=payload.pop("count", None),
                   cells_scanned=int(payload.pop("cells_scanned", 0)),
                   merges=int(payload.pop("merges", 0)),
                   shared_scan=bool(payload.pop("shared_scan", False)),
                   timings=timings)

    @classmethod
    def from_json(cls, text: str) -> "QueryResponse":
        return cls.from_dict(json.loads(text))
