"""Flush-epoch clock: the cache-invalidation backbone of the optimizer.

Every scan the multi-query optimizer caches — a merged roll-up and the
estimators fitted to it — is only valid for the engine state it was
computed from.  The repo's write side is funnelled through
:class:`~repro.ingest.IngestSession` flushes (the legacy per-engine
entry points shim through :func:`repro.ingest.session.write_columns`),
so "engine state" has a natural clock: a monotonically increasing
**flush epoch** per engine object, bumped after every successful write.

:data:`EPOCHS` is the process-wide clock.  Engines are identified by a
stable integer *token* held alive by a weak reference, so adapters that
are rebuilt per query (a caller may re-register backends after every
flush) still share one epoch stream as long as they wrap the same
underlying engine object.  Cluster coordinators additionally keep a
**per-shard** epoch: replicated writes bump only the shards they
touched, so a point query pinned to shard 3 stays cached across writes
that only landed on shard 5
(:meth:`~repro.cluster.backend.ClusterBackend.scan_epoch` builds the
epoch vector for the shards a scan reads).

Failover and snapshot repair deliberately do *not* bump epochs: the
cluster's answers are bit-exact across node failures by construction,
so cached scans stay valid through them.
"""

from __future__ import annotations

import threading
import weakref
from typing import Iterable


class FlushEpochs:
    """Per-engine (and per-shard) monotonic flush counters.

    Thread-safe; all state is guarded by ``_lock``.  Tokens are keyed by
    object identity with a weakref cleanup, so a garbage-collected
    engine releases its counters (engines that do not support weak
    references are pinned instead — a deliberate, bounded leak that
    keeps identity honest against ``id()`` reuse).
    """

    def __init__(self):
        # Reentrant: a weakref cleanup can fire synchronously during a
        # collection triggered while this thread already holds the lock.
        self._lock = threading.RLock()
        self._next_token = 1
        #: id(engine) -> token.
        self._tokens: dict[int, int] = {}
        #: token -> weakref keeping the cleanup callback alive.
        self._refs: dict[int, weakref.ref] = {}
        #: Strong pins for non-weakref-able engines (identity safety).
        self._pins: dict[int, object] = {}
        #: token -> whole-engine epoch.
        self._epochs: dict[int, int] = {}
        #: (token, shard) -> shard epoch.
        self._shard_epochs: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Tokens
    # ------------------------------------------------------------------

    def token(self, target) -> int:
        """Stable small-int identity for a live engine object."""
        with self._lock:
            return self._token_locked(target)

    def _token_locked(self, target) -> int:
        key = id(target)
        token = self._tokens.get(key)
        if token is not None:
            return token
        token = self._next_token
        self._next_token += 1
        self._tokens[key] = token
        try:
            self._refs[token] = weakref.ref(
                target, lambda _ref, key=key, token=token:
                self._release(key, token))
        except TypeError:
            # Not weakref-able (rare): pin it so id() is never reused.
            self._pins[token] = target
        return token

    def _release(self, key: int, token: int) -> None:
        """Weakref callback: drop a dead engine's counters."""
        with self._lock:
            if self._tokens.get(key) == token:
                del self._tokens[key]
            self._refs.pop(token, None)
            self._epochs.pop(token, None)
            self._shard_epochs = {
                pair: epoch for pair, epoch in self._shard_epochs.items()
                if pair[0] != token}

    # ------------------------------------------------------------------
    # Whole-engine epochs
    # ------------------------------------------------------------------

    def epoch(self, target) -> int:
        """Current flush epoch of an engine (0 before any flush)."""
        with self._lock:
            return self._epochs.get(self._token_locked(target), 0)

    def bump(self, target) -> int:
        """Advance an engine's epoch after a successful write."""
        with self._lock:
            token = self._token_locked(target)
            value = self._epochs.get(token, 0) + 1
            self._epochs[token] = value
            return value

    # ------------------------------------------------------------------
    # Per-shard epochs (cluster coordinators)
    # ------------------------------------------------------------------

    def shard_epoch(self, target, shard: int) -> int:
        with self._lock:
            token = self._token_locked(target)
            return self._shard_epochs.get((token, int(shard)), 0)

    def bump_shards(self, target, shards: Iterable[int]) -> None:
        """Advance only the shards a replicated write touched."""
        with self._lock:
            token = self._token_locked(target)
            for shard in shards:
                pair = (token, int(shard))
                self._shard_epochs[pair] = \
                    self._shard_epochs.get(pair, 0) + 1

    def epoch_vector(self, target, shards: Iterable[int]) -> tuple[int, ...]:
        """Epochs of the shards one scan reads, in the given order."""
        with self._lock:
            token = self._token_locked(target)
            return tuple(self._shard_epochs.get((token, int(shard)), 0)
                         for shard in shards)

    # ------------------------------------------------------------------
    # Test support
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget every token and counter (test isolation only)."""
        with self._lock:
            self._tokens.clear()
            self._refs.clear()
            self._pins.clear()
            self._epochs.clear()
            self._shard_epochs.clear()


#: Process-wide flush-epoch clock.
EPOCHS = FlushEpochs()
