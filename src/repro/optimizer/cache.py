"""Epoch-invalidated, byte-budgeted LRU cache for merges and answers.

:class:`MergeCache` holds two tiers of artifacts, both keyed by the
planner's scan identity plus the engine token from
:mod:`repro.optimizer.epochs`:

* **partial** — the merged roll-up a cold scan produced (a
  :class:`~repro.api.backends.RollupResult` or
  :class:`~repro.api.backends.GroupRollupResult`; for moments summaries
  ~200 bytes of packed state per cell).  A hit skips the scan + merge
  fold entirely; the solve still runs, so any spec sharing the scan
  signature benefits regardless of its quantiles/thresholds.
* **response** — a fully solved :class:`~repro.api.QueryResponse`
  payload, additionally keyed by the solve signature (kind, quantiles,
  thresholds, estimator, ...).  A hit skips everything.

Bit-exactness is guaranteed by construction: entries are the *cold
path's own outputs*, stored and returned unchanged — never re-derived
from other partials, whose re-association could drift in the last ulp
(numpy's pairwise reductions are not sequential folds).

Every entry is stamped with the flush epoch it was computed at; a
lookup under a different epoch is a miss and eagerly drops the stale
entry.  Eviction is LRU over a byte budget.  All state is guarded by
``_lock`` (enforced by the ``repro.analysis`` GUARDED_BY gate).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..telemetry import TELEMETRY

#: Default byte budget: a few thousand partials / responses.
DEFAULT_BUDGET_BYTES = 32 << 20


@dataclass
class _Entry:
    epoch: tuple
    value: object
    nbytes: int
    tier: str


class MergeCache:
    """Byte-budgeted LRU of epoch-stamped partials and responses."""

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES):
        self.budget_bytes = int(budget_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_drops = 0

    def get(self, key: tuple, epoch: tuple, tier: str):
        """The cached value for ``key`` at ``epoch``, or None (a miss).

        An entry stamped with a different epoch counts as a miss and is
        dropped on the spot — ingest invalidation is lazy, paid by the
        first reader instead of every flush.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.epoch == epoch:
                self._entries.move_to_end(key)
                self.hits += 1
                hit, value = True, entry.value
            else:
                if entry is not None:
                    del self._entries[key]
                    self.bytes_used -= entry.nbytes
                    self.stale_drops += 1
                self.misses += 1
                hit, value = False, None
            used = self.bytes_used
        if TELEMETRY.enabled:
            TELEMETRY.registry.counter(
                "optimizer_cache_hits_total" if hit
                else "optimizer_cache_misses_total", tier=tier).inc()
            TELEMETRY.registry.gauge("optimizer_cache_bytes").set(used)
        return value

    def put(self, key: tuple, epoch: tuple, value, nbytes: int,
            tier: str) -> None:
        """Insert (or replace) an entry, evicting LRU past the budget."""
        nbytes = max(int(nbytes), 1)
        evicted = 0
        with self._lock:
            if nbytes <= self.budget_bytes:
                old = self._entries.pop(key, None)
                if old is not None:
                    self.bytes_used -= old.nbytes
                self._entries[key] = _Entry(epoch=epoch, value=value,
                                            nbytes=nbytes, tier=tier)
                self.bytes_used += nbytes
                while self.bytes_used > self.budget_bytes:
                    _, dropped = self._entries.popitem(last=False)
                    self.bytes_used -= dropped.nbytes
                    self.evictions += 1
                    evicted += 1
            used = self.bytes_used
        if TELEMETRY.enabled:
            if evicted:
                TELEMETRY.registry.counter(
                    "optimizer_cache_evictions_total").inc(evicted)
            TELEMETRY.registry.gauge("optimizer_cache_bytes").set(used)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.bytes_used = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Counters snapshot (JSON-safe; ``Optimizer.stats()`` embeds it)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {"entries": len(self._entries),
                    "bytes": self.bytes_used,
                    "budget_bytes": self.budget_bytes,
                    "hits": self.hits,
                    "misses": self.misses,
                    "hit_rate": (self.hits / lookups if lookups else 0.0),
                    "evictions": self.evictions,
                    "stale_drops": self.stale_drops}
