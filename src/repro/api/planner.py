"""Query planner: route a :class:`QuerySpec` to a backend execution mode.

The planner is deliberately small — the interesting decisions (packed
vectorized reduction vs per-object merge loop) live in the backends,
which know their storage layout.  What the planner owns is the *shape*
of execution:

* ``mode`` — whether the spec needs one roll-up scan, one group scan,
  or a sliding-window scan;
* ``scan_key`` — the identity under which
  :meth:`~repro.api.service.QueryService.execute_batch` shares one merge
  across specs hitting the same cell subset (same backend, measure,
  filters, interval, and grouping);
* ``fused_quantiles`` — the multi-quantile targets answered from a
  single merge + a single estimator solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import QueryError
from .backends import Backend
from .spec import QuerySpec

#: Execution shapes.
MODES = ("rollup", "group", "windowed")


@dataclass(frozen=True)
class QueryPlan:
    """Resolved execution shape for one spec on one backend."""

    spec: QuerySpec
    backend_name: str
    mode: str
    route: str
    scan_key: tuple | None
    fused_quantiles: tuple[float, ...]


def plan(spec: QuerySpec, backend: Backend,
         backend_name: str | None = None) -> QueryPlan:
    """Resolve the execution mode, merge route, and scan-sharing key."""
    name = backend_name or backend.name
    if spec.kind not in backend.kinds:
        raise QueryError(
            f"backend {name!r} does not support {spec.kind!r} queries "
            f"(supports {sorted(backend.kinds)})")
    if spec.kind == "windowed":
        mode = "windowed"
        scan_key = None  # window scans touch every pane w times; never shared
        route = spec.window.strategy if spec.window else "turnstile"
    elif spec.kind in ("group_by", "top_n") or (
            spec.kind == "threshold_count" and spec.group_dimension):
        mode = "group"
        scan_key = (name, "group") + spec.scan_signature()
        route = "packed" if backend.supports_packed else "loop"
    else:
        mode = "rollup"
        scan_key = (name, "rollup") + spec.scan_signature()
        route = "packed" if backend.supports_packed else "loop"
    return QueryPlan(spec=spec, backend_name=name, mode=mode, route=route,
                     scan_key=scan_key, fused_quantiles=spec.quantiles)

