"""Repo-specific configuration of the static-analysis rules.

Everything checkable is declared here rather than hard-coded in the
rule modules, so tests can run the same checkers against the fixture
corpus with a fixture-shaped configuration, and the next subsystem PR
extends coverage by editing one file.

Path patterns are plain substrings matched against the canonical posix
path of each target file (``src/repro/cluster/broker.py`` matches the
pattern ``repro/cluster/broker.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Tuple


@dataclass(frozen=True)
class LockSpec:
    """Which attributes of one class a ``with self.<lock>`` must guard.

    ``init_methods`` run before the object is published to other
    threads, so they are treated as implicitly holding the lock; the
    same applies to any method whose name ends in ``_locked`` — the
    repo convention for private helpers whose *callers* hold the lock
    (the companion rule LOCK002 enforces that convention at call
    sites).
    """

    guarded: FrozenSet[str]
    lock_attr: str = "_lock"
    init_methods: FrozenSet[str] = frozenset({"__init__"})


def _lock(*attrs: str, lock_attr: str = "_lock",
          init_methods: Tuple[str, ...] = ("__init__",)) -> LockSpec:
    return LockSpec(guarded=frozenset(attrs), lock_attr=lock_attr,
                    init_methods=frozenset(init_methods))


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable scope of every rule family."""

    #: path pattern -> class name -> lock declaration (GUARDED_BY).
    guarded_by: Mapping[str, Mapping[str, LockSpec]] = field(
        default_factory=dict)
    #: Modules whose answers must be bit-exact across merge orders.
    determinism_modules: Tuple[str, ...] = ()
    #: Identifier substrings marking float accumulations for DET003.
    float_sum_hints: Tuple[str, ...] = (
        "seconds", "latency", "duration", "power_sums", "log_sums",
        "estimate", "weight")
    #: Modules exempt from the telemetry-guard rules (the plane itself).
    telemetry_exempt_modules: Tuple[str, ...] = ("repro/telemetry/",)
    #: Modules whose public surface must raise the core.errors taxonomy.
    error_taxonomy_modules: Tuple[str, ...] = ()
    #: Builtin exception names the taxonomy rule rejects.
    bare_errors: Tuple[str, ...] = ("ValueError",)


#: GUARDED_BY registry for the threaded production modules.  Attributes
#: not listed (schema fields, config knobs, backend handles) are
#: immutable after ``__init__`` and deliberately unguarded.
DEFAULT_GUARDED_BY: Dict[str, Dict[str, LockSpec]] = {
    "repro/cluster/broker.py": {
        "ClusterBroker": _lock("queries_served", "last_profile"),
    },
    "repro/storage/compactor.py": {
        "Compactor": _lock("rounds", "_thread"),
    },
    "repro/storage/tiered.py": {
        "TieredStore": _lock(
            "segments", "_index", "_seen", "_next_seen", "_file_seq",
            "epoch", "stats_counters", "hot", "_hot_rows", "_hot_keys",
            "manifest",
            init_methods=("__init__", "_recover")),
    },
    "repro/ingest/session.py": {
        "IngestSession": _lock(
            "buffer", "reports", "total_rows", "total_cells", "closed",
            "_flush_index"),
    },
    "repro/telemetry/metrics.py": {
        "LogHistogram": _lock("zeros", "min", "max", "_pos", "_neg"),
        "Counter": _lock("value"),
        "Gauge": _lock("value"),
        "MetricsRegistry": _lock("_metrics"),
    },
    "repro/telemetry/trace.py": {
        "Tracer": _lock("_ring", "spans_recorded", "spans_dropped"),
    },
    "repro/telemetry/slowlog.py": {
        "SlowQueryLog": _lock("_entries", "captured"),
    },
    "repro/optimizer/epochs.py": {
        "FlushEpochs": _lock("_next_token", "_tokens", "_refs", "_pins",
                             "_epochs", "_shard_epochs"),
    },
    "repro/optimizer/cache.py": {
        "MergeCache": _lock("_entries", "bytes_used", "hits", "misses",
                            "evictions", "stale_drops"),
    },
}

#: Merge-order-sensitive modules: folds here feed bit-exact contracts.
DEFAULT_DETERMINISM_MODULES: Tuple[str, ...] = (
    "repro/store/",
    "repro/cluster/",
    "repro/core/batch_solver.py",
    "repro/telemetry/metrics.py",
    "repro/optimizer/",
)

#: Packages whose public entry points must raise the errors taxonomy.
DEFAULT_ERROR_TAXONOMY_MODULES: Tuple[str, ...] = (
    "repro/api/",
    "repro/ingest/",
    "repro/cluster/",
    "repro/storage/",
    "repro/telemetry/",
    "repro/macrobase/",
    "repro/datacube/",
    "repro/druid/",
    "repro/analysis/",
    "repro/optimizer/",
)

DEFAULT_CONFIG = AnalysisConfig(
    guarded_by=DEFAULT_GUARDED_BY,
    determinism_modules=DEFAULT_DETERMINISM_MODULES,
    error_taxonomy_modules=DEFAULT_ERROR_TAXONOMY_MODULES,
)
