"""The multi-query optimizer facade wired into ``QueryService``.

:class:`Optimizer` is the one object the service talks to.  Per query it
answers three questions, in the order the service asks them:

1. *What engine state would this scan read?* — :meth:`scan_epoch`
   resolves the backend's cache target (the underlying engine object,
   shared across rebuilt adapters) to a flush-epoch vector.  Cluster
   backends narrow this to the shards the scan actually touches.
2. *Is the whole answer cached?* — :meth:`cached_response` keys the
   :class:`~repro.optimizer.MergeCache` response tier by scan signature
   *plus* solve signature, so two specs sharing a scan but asking for
   different quantiles miss here and meet again at the partial tier.
3. *Is the merged partial cached, or pinned by the advisor?* —
   :meth:`lookup_scan` checks materialized roll-ups first (refreshing
   stale ones from the engine), then the partial tier.

Everything stored is a cold path output kept verbatim — the optimizer
never folds two partials together to answer a query, because numpy's
pairwise reductions mean a re-associated fold is not guaranteed to be
bit-identical to the sequential left-fold the cold path performs.  That
single rule is what lets cached answers pass the cross-backend
bit-exactness and exact-oracle suites untouched.
"""

from __future__ import annotations

import threading

from .advisor import MaterializedRollup, RollupAdvisor, WorkloadProfile
from .cache import DEFAULT_BUDGET_BYTES, MergeCache
from .epochs import EPOCHS


def _scan_nbytes(result) -> int:
    """Approximate heap bytes of a cached partial (budget accounting)."""
    groups = getattr(result, "groups", None)
    if groups is None:
        summaries = [result.summary]
    else:
        summaries = list(groups.values())
    total = 96  # result object + profile fields
    for summary in summaries:
        size = getattr(summary, "size_bytes", None)
        total += int(size()) if size is not None else 512
        total += 128  # summary wrapper + dict slot
    return total


class Optimizer:
    """Shared-subexpression cache + workload advisor for one service.

    Opt-in: construct one and pass it to
    :class:`~repro.api.QueryService`.  Requires the write side to go
    through :class:`~repro.ingest.IngestSession` (or the legacy shims
    that funnel into it), which is what advances the flush epochs this
    cache is invalidated by; writes straight into a kernel object bypass
    the clock, which is why the optimizer is never on by default.
    """

    def __init__(self, cache: MergeCache | None = None,
                 budget_bytes: int = DEFAULT_BUDGET_BYTES,
                 advisor_top_k: int = 4):
        self.cache = cache if cache is not None else MergeCache(budget_bytes)
        self.profile = WorkloadProfile()
        self.advisor = RollupAdvisor(self, top_k=advisor_top_k)
        self._lock = threading.Lock()
        self._materialized: dict[tuple, MaterializedRollup] = {}

    # ------------------------------------------------------------------
    # Epoch resolution
    # ------------------------------------------------------------------

    def token(self, backend) -> int:
        """Stable identity of the engine behind a (rebuildable) adapter."""
        return EPOCHS.token(backend.cache_target())

    def scan_epoch(self, backend, spec) -> tuple:
        """Flush-epoch vector of the engine state this scan reads.

        Backends that can narrow a scan (the cluster's per-shard
        routing) expose ``scan_epoch(spec)``; everything else is a
        single whole-engine counter.
        """
        narrow = getattr(backend, "scan_epoch", None)
        if narrow is not None:
            return narrow(spec)
        return (EPOCHS.epoch(backend.cache_target()),)

    # ------------------------------------------------------------------
    # Response tier
    # ------------------------------------------------------------------

    def cached_response(self, token: int, plan, solve_sig: tuple,
                        epoch: tuple):
        key = ("response", token) + plan.scan_key + (solve_sig,)
        value = self.cache.get(key, epoch, "response")
        if value is not None:
            # A response hit is still a request against the scan — the
            # advisor's hit-frequency ranking must see it.
            self.profile.observe(token, plan, source="response")
        return value

    def store_response(self, token: int, plan, solve_sig: tuple,
                       epoch: tuple, response) -> None:
        key = ("response", token) + plan.scan_key + (solve_sig,)
        self.cache.put(key, epoch, response,
                       nbytes=len(response.to_json()) + 256,
                       tier="response")

    # ------------------------------------------------------------------
    # Partial tier + materialized roll-ups
    # ------------------------------------------------------------------

    def lookup_scan(self, backend, token: int, plan, epoch: tuple):
        """``(result, source)`` for a scan: advisor pin, cached partial,
        or ``(None, "cold")`` telling the service to run the scan and
        hand the result back via :meth:`store_scan`."""
        with self._lock:
            rollup = self._materialized.get((token,) + plan.scan_key)
        if rollup is not None:
            fresh = rollup.epoch == epoch
            result = rollup.serve(backend, epoch)
            source = "advisor" if fresh else "refresh"
            self.profile.observe(token, plan, source=source,
                                 merge_seconds=result.merge_seconds,
                                 nbytes=rollup.size_bytes())
            return result, source
        key = ("partial", token) + plan.scan_key
        result = self.cache.get(key, epoch, "partial")
        if result is not None:
            self.profile.observe(token, plan, source="partial")
            return result, "partial"
        return None, "cold"

    def store_scan(self, token: int, plan, epoch: tuple, result) -> None:
        """Cache a cold scan's own merged output, verbatim."""
        nbytes = _scan_nbytes(result)
        self.profile.observe(token, plan, source="cold",
                             merge_seconds=result.merge_seconds,
                             nbytes=nbytes)
        key = ("partial", token) + plan.scan_key
        self.cache.put(key, epoch, result, nbytes=nbytes, tier="partial")

    # ------------------------------------------------------------------
    # Advisor pins
    # ------------------------------------------------------------------

    def pin(self, backend, spec, scan_key: tuple) -> MaterializedRollup:
        """Materialize one group scan (idempotent per scan signature).

        Refreshes eagerly so a non-moments group surface fails here,
        not on the first query that would have been served.
        """
        token = self.token(backend)
        key = (token,) + scan_key
        with self._lock:
            existing = self._materialized.get(key)
        if existing is not None:
            return existing
        rollup = MaterializedRollup(token, scan_key, spec)
        rollup.refresh(backend, self.scan_epoch(backend, spec))
        with self._lock:
            raced = self._materialized.setdefault(key, rollup)
        return raced

    def unpin_all(self) -> None:
        with self._lock:
            self._materialized.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe snapshot (``repro optimizer stats`` reads a dump of it)."""
        with self._lock:
            rollups = list(self._materialized.values())
        return {"cache": self.cache.stats(),
                "profile": self.profile.summary(),
                "materialized": [rollup.describe() for rollup in rollups]}
