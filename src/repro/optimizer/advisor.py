"""Workload-driven roll-up advisor: rank hot scans, pin the winners.

The advisor closes the loop the paper's mergeability argument opens:
because moments sketches are tiny and merges are cheap left folds,
*materializing* a hot roll-up — keeping every group's merged sketch in
a :class:`~repro.store.PackedSketchStore` — costs a few hundred bytes
per group, yet removes the whole scan+merge phase from every query that
hits it.

Three pieces:

* :class:`WorkloadProfile` — an in-process tally of every scan the
  optimizer saw: request counts, cache hits, cold merge cost, partial
  bytes.  This is the live (per-scan-signature) counterpart of the
  telemetry plane's ``scan_signature_*`` counters.
* :class:`MaterializedRollup` — one pinned group scan held as a packed
  store (cold partials packed bit-exactly, PR 1's round-trip contract),
  re-materialized from the engine on first use after each flush epoch —
  a full cold re-merge, so served answers are bit-identical to a
  quiesced rerun rather than a drifted incremental fold.
* :class:`RollupAdvisor` — ranks candidates by
  ``requests x avg merge seconds saved / packed bytes`` and pins the
  top-k with the owning :class:`~repro.optimizer.Optimizer`.

:func:`rank_metrics` is the offline half (the ``repro optimizer
advise`` CLI): it reads a telemetry metrics dump, which carries
per-backend scan-signature counters rather than per-signature profiles,
and surfaces the backends with the most scans to reclaim.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..api.backends import GroupRollupResult, sketch_of
from ..core.errors import OptimizerError
from ..store import PackedSketchStore
from ..summaries.moments_summary import MomentsSummary

@dataclass
class ScanStats:
    """Lifetime tally for one (engine token, scan signature)."""

    scan_key: tuple
    backend: str
    mode: str
    spec: object
    requests: int = 0
    hits: int = 0
    cold_runs: int = 0
    merge_seconds_total: float = 0.0
    nbytes: int = 0

    def avg_merge_seconds(self) -> float:
        return self.merge_seconds_total / max(self.cold_runs, 1)

    def score(self) -> float:
        """``hit frequency x merge cost saved / packed-store bytes``."""
        return (self.requests * self.avg_merge_seconds()
                / max(self.nbytes, 1))


class WorkloadProfile:
    """Thread-safe per-scan-signature workload tally."""

    def __init__(self):
        self._lock = threading.Lock()
        self._scans: dict[tuple, ScanStats] = {}

    def observe(self, token: int, plan, *, source: str,
                merge_seconds: float = 0.0, nbytes: int = 0) -> None:
        """Record one request against a scan signature.

        ``source`` is the serving tier: ``"cold"``/``"refresh"`` paid
        the merge (its cost and size are recorded); anything else was a
        cache or advisor hit.
        """
        key = (token,) + plan.scan_key
        with self._lock:
            stats = self._scans.get(key)
            if stats is None:
                stats = ScanStats(scan_key=plan.scan_key,
                                  backend=plan.backend_name,
                                  mode=plan.mode, spec=plan.spec)
                self._scans[key] = stats
            stats.requests += 1
            if source in ("cold", "refresh"):
                stats.cold_runs += 1
                stats.merge_seconds_total += float(merge_seconds)
                if nbytes:
                    stats.nbytes = int(nbytes)
            else:
                stats.hits += 1

    def candidates(self) -> list[tuple[tuple, ScanStats]]:
        """Snapshot of ``((token,) + scan_key, stats)`` pairs."""
        with self._lock:
            return list(self._scans.items())

    def summary(self) -> dict:
        """JSON-safe aggregate (embedded in ``Optimizer.stats()``)."""
        with self._lock:
            scans = list(self._scans.values())
        requests = 0
        hits = 0
        merge_seconds = 0.0
        for stats in scans:
            requests += stats.requests
            hits += stats.hits
            merge_seconds += stats.merge_seconds_total
        return {"scans": len(scans), "requests": requests, "hits": hits,
                "cold_merge_seconds": merge_seconds}


class MaterializedRollup:
    """One pinned group roll-up, held as a packed store per flush epoch.

    ``refresh`` reruns the backend's own cold group scan and packs each
    group's sketch (store order = the cold groups-dict order, so
    ``top_n`` tie-breaking is unchanged); ``serve`` unpacks the rows
    back into :class:`~repro.summaries.MomentsSummary` objects carrying
    the cold summaries' solver configs.  Pack/unpack round trips are
    bit-exact, so a served answer equals the cold answer to the last
    bit.  A stale epoch triggers a refresh on first access — the cost of
    one cold scan per flush, not per query.
    """

    def __init__(self, token: int, scan_key: tuple, spec):
        self.token = token
        self.scan_key = scan_key
        self.spec = spec
        self.epoch: tuple | None = None
        self.store: PackedSketchStore | None = None
        self.group_values: list = []
        self.group_configs: list = []
        self.refreshes = 0
        self._result: GroupRollupResult | None = None

    def serve(self, backend, epoch: tuple) -> GroupRollupResult:
        """The pinned result at ``epoch``, refreshing if stale."""
        if self._result is None or epoch != self.epoch:
            self.refresh(backend, epoch)
        assert self._result is not None
        return self._result

    def refresh(self, backend, epoch: tuple) -> None:
        cold = backend.group_rollup(self.spec)
        sketches = []
        values = []
        configs = []
        for value, summary in cold.groups.items():
            sketch = sketch_of(summary)
            if sketch is None:
                raise OptimizerError(
                    "cannot materialize a group scan whose summaries are "
                    f"not moments-backed (scan {self.scan_key!r})")
            sketches.append(sketch)
            values.append(value)
            configs.append(getattr(summary, "config", None))
        self.store = PackedSketchStore.from_sketches(sketches)
        self.group_values = values
        self.group_configs = configs
        self.epoch = epoch
        self.refreshes += 1
        self._result = GroupRollupResult(
            groups=self._unpack(), cells_scanned=cold.cells_scanned,
            merge_calls=cold.merge_calls,
            planner_seconds=cold.planner_seconds,
            merge_seconds=cold.merge_seconds, route="materialized")

    def _unpack(self) -> dict:
        store = self.store
        assert store is not None
        groups: dict = {}
        for row, value in enumerate(self.group_values):
            summary = MomentsSummary(k=store.k, track_log=store.track_log,
                                     config=self.group_configs[row])
            summary.sketch = store.sketch_at(row)
            groups[value] = summary
        return groups

    def size_bytes(self) -> int:
        return self.store.size_bytes() if self.store is not None else 0

    def describe(self) -> dict:
        return {"scan_key": [repr(part) for part in self.scan_key],
                "groups": len(self.group_values),
                "bytes": self.size_bytes(),
                "refreshes": self.refreshes}


class RollupAdvisor:
    """Rank hot group scans from the live profile; pin the top-k."""

    def __init__(self, optimizer, top_k: int = 4, min_requests: int = 2):
        self.optimizer = optimizer
        self.top_k = int(top_k)
        self.min_requests = int(min_requests)

    def rank(self) -> list[dict]:
        """Group-scan candidates, best score first (JSON-safe)."""
        ranked = []
        for key, stats in self.optimizer.profile.candidates():
            if stats.mode != "group" or stats.requests < self.min_requests:
                continue
            ranked.append({
                "token": key[0],
                "scan_key": [repr(part) for part in stats.scan_key],
                "backend": stats.backend,
                "kind": stats.spec.kind,
                "requests": stats.requests,
                "hits": stats.hits,
                "avg_merge_seconds": stats.avg_merge_seconds(),
                "partial_bytes": stats.nbytes,
                "score": stats.score(),
                "_stats": stats,
            })
        ranked.sort(key=lambda item: (-item["score"],
                                      tuple(item["scan_key"])))
        return ranked

    def materialize(self, service, top_k: int | None = None) -> list[dict]:
        """Pin the top-k candidates with the optimizer.

        ``service`` resolves backend names to live adapters.  Candidates
        whose groups are not moments-backed are skipped.  Returns one
        :meth:`MaterializedRollup.describe` dict per pin (idempotent:
        already-pinned scans count toward ``top_k`` without re-pinning).
        """
        budget = self.top_k if top_k is None else int(top_k)
        pinned: list[dict] = []
        for item in self.rank():
            if len(pinned) >= budget:
                break
            stats = item.pop("_stats")
            backend = service.backend(stats.backend)
            try:
                rollup = self.optimizer.pin(backend, stats.spec,
                                            stats.scan_key)
            except OptimizerError:
                continue
            pinned.append(rollup.describe())
        return pinned


# ----------------------------------------------------------------------
# Offline ranking (the `repro optimizer advise` CLI)
# ----------------------------------------------------------------------

def _metric_entries(metrics: dict, section: str, name: str) -> list[dict]:
    payload = metrics.get("metrics", metrics)
    return [entry for entry in payload.get(section, ())
            if entry.get("name") == name]


def rank_metrics(metrics: dict, top: int = 5) -> list[dict]:
    """Advice from a telemetry metrics dump (``repro telemetry dump``).

    Consumes the ``scan_signature_{hits,misses}_total`` counters: a
    backend with many repeated signatures (high hit potential) and many
    cold misses is the first place to enable the optimizer or pin
    roll-ups.
    """
    tallies: dict[str, dict] = {}
    for name, field_name in (("scan_signature_hits_total", "hits"),
                             ("scan_signature_misses_total", "misses")):
        for entry in _metric_entries(metrics, "counters", name):
            backend_name = entry.get("labels", {}).get("backend", "?")
            tally = tallies.setdefault(backend_name,
                                       {"hits": 0, "misses": 0})
            tally[field_name] += int(entry.get("value", 0))
    advice = []
    for backend_name in sorted(tallies):
        tally = tallies[backend_name]
        total = tally["hits"] + tally["misses"]
        if not total:
            continue
        advice.append({
            "backend": backend_name,
            "scans": total,
            "shared_or_cached": tally["hits"],
            "cold": tally["misses"],
            "hit_rate": tally["hits"] / total,
            "action": ("working set is repeat-heavy: enable the "
                       "optimizer cache / pin top roll-ups"
                       if tally["hits"] * 2 >= total else
                       "mostly distinct scans: caching pays less here"),
        })
    advice.sort(key=lambda item: (-item["scans"], item["backend"]))
    return advice[:top]
