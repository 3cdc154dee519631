"""Unified declarative query API (the repo's single public query surface).

One :class:`QuerySpec` describes a query; a :class:`QueryService` plans
it and executes it against any registered backend — data cube, Druid
engine, packed sketch store, window panes, or a simulated
:mod:`repro.cluster` scatter-gather cluster — returning a uniform
:class:`QueryResponse` with estimates, optional certified bounds, and
the Eq. 2 planner/merge/solve cost decomposition.  See
``examples/unified_api.py`` for one spec run against three backends.
"""

from .backends import (Backend, CubeBackend, DruidBackend, GroupRollupResult,
                       PackedStoreBackend, RollupResult, SummariesBackend,
                       WindowBackend, WindowedResult, as_backend,
                       register_adapter, sketch_of)
from .planner import QueryPlan, plan
from .service import BatchReport, QueryService, execute
from .spec import (KINDS, QueryResponse, QuerySpec, QueryTimings, WindowSpec,
                   qkey)

__all__ = [
    "Backend", "CubeBackend", "DruidBackend", "GroupRollupResult",
    "PackedStoreBackend", "RollupResult", "SummariesBackend", "WindowBackend",
    "WindowedResult", "as_backend", "register_adapter", "sketch_of",
    "QueryPlan", "plan", "BatchReport", "QueryService", "execute",
    "KINDS", "QueryResponse", "QuerySpec", "QueryTimings", "WindowSpec",
    "qkey",
]
