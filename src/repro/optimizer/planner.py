"""The multi-query optimizer facade wired into ``QueryService``.

:class:`Optimizer` is the one object the service talks to.  Per query it
answers two questions, in the order the service asks them:

1. *What engine state would this scan read?* — :meth:`scan_epoch`
   resolves the backend's cache target (the underlying engine object,
   shared across rebuilt adapters) to a flush-epoch vector.  Cluster
   backends narrow this to the shards the scan actually touches.
2. *Is the scan cached?* — :meth:`lookup_scan` checks the
   :class:`~repro.optimizer.MergeCache` for the cold scan's own result.

A cached scan carries its fitted estimators: moments summaries cache
their fit (or its failure) until the next mutation, and the service
seeds them from its batched group fit, so a hit on a quantile,
``group_by`` or ``top_n`` spec runs neither the merge nor the fit —
the solve is ~91% of the Eq. 2 cost, the merge the cheap remainder.

Everything stored is a cold path output kept verbatim — the optimizer
never folds two partials together to answer a query, because numpy's
pairwise reductions mean a re-associated fold is not guaranteed to be
bit-identical to the sequential left-fold the cold path performs.  That
single rule is what lets cached answers pass the cross-backend
bit-exactness and exact-oracle suites untouched.
"""

from __future__ import annotations

from .cache import DEFAULT_BUDGET_BYTES, MergeCache
from .epochs import EPOCHS


def _scan_nbytes(result) -> int:
    """Approximate heap bytes of a cached scan (budget accounting)."""
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
    """Epoch-stamped cache of scans and their fitted estimators.

    Opt-in: construct one and pass it to
    :class:`~repro.api.QueryService`.  Requires the write side to go
    through :class:`~repro.ingest.IngestSession` (or the legacy shims
    that funnel into it), which is what advances the flush epochs this
    cache is invalidated by; writes straight into a kernel object bypass
    the clock, which is why the optimizer is never on by default.
    """

    def __init__(self, cache: MergeCache | None = None,
                 budget_bytes: int = DEFAULT_BUDGET_BYTES):
        self.cache = cache if cache is not None else MergeCache(budget_bytes)

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

    def lookup_scan(self, token: int, plan, epoch: tuple):
        """The cached scan for ``plan`` at ``epoch``, or ``None`` telling
        the service to run it and hand the result to :meth:`store_scan`."""
        return self.cache.get((token,) + plan.scan_key, epoch)

    def store_scan(self, token: int, plan, epoch: tuple, result) -> None:
        """Cache a cold scan's own merged output, verbatim."""
        self.cache.put((token,) + plan.scan_key, epoch, result,
                       nbytes=_scan_nbytes(result))

    def stats(self) -> dict:
        """JSON-safe snapshot (``repro optimizer stats`` reads a dump of it)."""
        return {"cache": self.cache.stats()}
