"""Write-backend protocol and adapters for the unified ingestion API.

A :class:`WriteBackend` turns the storage-specific half of an ingest —
group the batch, run the vectorized accumulate kernel — into one
primitive the session layer consumes: :meth:`WriteBackend.write`, which
takes a columnar :class:`~repro.ingest.buffer.WriteBatch` and returns a
:class:`WriteOutcome` (cells touched, route/pack timing, any alerts).

Adapters are provided for the five aggregation systems in this
repository: :class:`CubeWriteBackend`
(:class:`~repro.datacube.DataCube`), :class:`DruidWriteBackend`
(:class:`~repro.druid.DruidEngine`), :class:`PackedStoreWriteBackend`
(:class:`~repro.store.PackedSketchStore` with a key->row map so raw
stores gain dimensions), :class:`WindowWriteBackend`
(:class:`~repro.window.StreamingWindowMonitor`), and
:class:`ClusterWriteBackend` (:class:`~repro.cluster.ClusterCoordinator`
— replication-aware routing of shard sub-batches through the hashring,
with idempotent per-shard sequence stamps so a replayed batch is a
no-op on every replica).  :class:`FanOutWriteBackend` tees one batch to
several targets, so a single session can feed cube, Druid, and cluster
backends at once.

All adapters reuse the engines' own roll-up kernels, so rows routed
through the API land bit-for-bit identical — per batch — to the legacy
per-engine entry points (which are themselves thin shims over these
adapters).  Backends without a time axis (cube, packed store, window)
ignore a batch's timestamps, and the window monitor ignores dimension
columns, which is what lets one row stream fan out to heterogeneous
targets.

:func:`as_write_backend` adapts a raw engine object via the
module-level :data:`WRITE_ADAPTERS` registry — the same extensible
registry pattern as :func:`repro.api.as_backend` — which downstream
systems can extend with :func:`register_write_adapter`.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..cluster.coordinator import ClusterCoordinator
from ..core.errors import ClusterError, IngestError
from ..core.grouping import accumulate_columns, first_seen_rows
from ..datacube.cube import CubeSchema, DataCube
from ..druid.aggregators import MomentsSketchAggregator
from ..druid.engine import DruidEngine
from ..store import PackedSketchStore
from ..summaries.moments_summary import MomentsSummary
from ..window.streaming import StreamingWindowMonitor
from .buffer import WriteBatch, check_columns
from .spec import IngestSpec


@dataclass
class WriteOutcome:
    """What one :meth:`WriteBackend.write` call physically did."""

    cells: int
    pack_seconds: float = 0.0
    route_seconds: float = 0.0
    alerts: list | None = None
    shards: int | None = None
    replicas: int | None = None
    #: Shard ids a replicated write actually landed on (cluster backend);
    #: None for unsharded targets.
    touched_shards: tuple[int, ...] | None = None


class WriteBackend(abc.ABC):
    """Adapter contract between an ingest session and a storage engine."""

    #: Registered display name (also the query-service registration name).
    name: str = "write"
    #: Dimension schema, when the target has one.
    dimensions: tuple[str, ...] = ()
    #: True when batches must carry a timestamps column.
    needs_timestamps: bool = False

    @abc.abstractmethod
    def write(self, batch: WriteBatch) -> WriteOutcome: ...

    @abc.abstractmethod
    def read_target(self) -> object:
        """The engine object :func:`repro.api.as_backend` should adapt,
        so a session's data is queryable immediately after a flush."""

    def read_targets(self) -> dict[str, object]:
        """Query-service registrations for this backend (name -> engine)."""
        return {self.name: self.read_target()}

    def invalidation_targets(self, batch: WriteBatch,
                             outcome: WriteOutcome | None = None
                             ) -> list[tuple[object, tuple | None]]:
        """``(engine, shards)`` pairs whose flush epochs this write moved.

        The session bumps :data:`repro.optimizer.EPOCHS` for each pair
        after a successful write; ``shards=None`` bumps the engine's
        whole-engine epoch, a tuple bumps only those shard counters
        (the cluster backend's per-shard invalidation).  The default
        invalidates the adapter's read target wholesale.
        """
        return [(self.read_target(), None)]


# ----------------------------------------------------------------------
# DataCube
# ----------------------------------------------------------------------

class CubeWriteBackend(WriteBackend):
    """Adapter over :class:`~repro.datacube.DataCube` (both cell backends)."""

    name = "cube"

    def __init__(self, cube: DataCube, spec: IngestSpec | None = None):
        self.cube = cube
        self.dimensions = cube.schema.dimensions

    def write(self, batch: WriteBatch) -> WriteOutcome:
        check_columns(len(self.dimensions), batch.dims, batch.values,
                      context="cube ingest")
        if batch.rows == 0:
            return WriteOutcome(cells=0)
        start = time.perf_counter()
        cells = self.cube._ingest_columns(list(batch.dims), batch.values)
        return WriteOutcome(cells=cells,
                            pack_seconds=time.perf_counter() - start)

    def read_target(self) -> DataCube:
        return self.cube


# ----------------------------------------------------------------------
# Druid engine
# ----------------------------------------------------------------------

class DruidWriteBackend(WriteBackend):
    """Adapter over :class:`~repro.druid.DruidEngine` time-bucket roll-up."""

    name = "druid"
    needs_timestamps = True

    def __init__(self, engine: DruidEngine, spec: IngestSpec | None = None):
        self.engine = engine
        self.dimensions = engine.dimensions

    def write(self, batch: WriteBatch) -> WriteOutcome:
        check_columns(len(self.dimensions), batch.dims, batch.values,
                      batch.timestamps, needs_timestamps=True,
                      context="druid ingest")
        if batch.rows == 0:
            return WriteOutcome(cells=0)
        start = time.perf_counter()
        cells = self.engine._rollup_rows(batch.timestamps, list(batch.dims),
                                         batch.values)
        return WriteOutcome(cells=cells,
                            pack_seconds=time.perf_counter() - start)

    def read_target(self) -> DruidEngine:
        return self.engine


# ----------------------------------------------------------------------
# Packed sketch store
# ----------------------------------------------------------------------

class PackedStoreWriteBackend(WriteBackend):
    """Adapter over a raw :class:`~repro.store.PackedSketchStore`.

    Maintains a dimension-tuple -> row map (first-seen order, exactly
    like the packed cube backend), so a bare store gains a dimension
    schema: each flush lexsorts the batch by its dimension columns and
    lands every group with one vectorized
    :meth:`~repro.store.PackedSketchStore.batch_accumulate` pass.  With
    no dimensions, every value accumulates into one session-owned row.
    """

    name = "packed"

    def __init__(self, store: PackedSketchStore,
                 spec: IngestSpec | None = None,
                 dimensions: tuple[str, ...] | None = None):
        self.store = store
        if dimensions is None:
            dimensions = spec.dimensions if spec is not None else ()
        self.dimensions = tuple(dimensions)
        if self.dimensions and len(store):
            # Pre-existing rows have no known dimension key, so filtered
            # and grouped reads over the session's key->row map would be
            # wrong (or crash); demand a fresh store for keyed sessions.
            raise IngestError(
                "a dimensioned packed-store session needs an empty store; "
                f"this one already holds {len(store)} keyless rows")
        self._rows: dict[tuple, int] = {}

    def write(self, batch: WriteBatch) -> WriteOutcome:
        check_columns(len(self.dimensions), batch.dims, batch.values,
                      context="packed-store ingest")
        if batch.rows == 0:
            return WriteOutcome(cells=0)
        start = time.perf_counter()
        row_of = first_seen_rows(self.store, self._rows)
        if not self.dimensions:
            self.store.accumulate_row(row_of(()), batch.values)
            return WriteOutcome(cells=1,
                                pack_seconds=time.perf_counter() - start)
        # The shared keyed kernel (also behind the cube's, Druid's and
        # the tiered store's ingest), so identical rows land identical
        # bits in any system.
        cells = accumulate_columns(self.store, row_of, batch.dims,
                                   batch.values)
        return WriteOutcome(cells=cells,
                            pack_seconds=time.perf_counter() - start)

    def read_target(self) -> object:
        if not self.dimensions or not self._rows:
            return self.store
        from ..api.backends import PackedStoreBackend
        keys = [None] * len(self.store)
        for key, row in self._rows.items():
            keys[row] = key
        return PackedStoreBackend(self.store, keys=keys,
                                  dimensions=self.dimensions)

    def invalidation_targets(self, batch: WriteBatch,
                             outcome: WriteOutcome | None = None
                             ) -> list[tuple[object, tuple | None]]:
        # read_target() may wrap the store in a fresh adapter per call;
        # the epoch clock lives on the long-lived store itself.
        return [(self.store, None)]


# ----------------------------------------------------------------------
# Streaming window monitor
# ----------------------------------------------------------------------

class WindowWriteBackend(WriteBackend):
    """Adapter over :class:`~repro.window.StreamingWindowMonitor`.

    The monitor aggregates a plain value stream: dimension columns and
    timestamps in a batch are ignored (pane boundaries come from the
    monitor's own row-count policy), which lets a fan-out session feed
    it alongside dimensional backends.
    """

    name = "window"

    def __init__(self, monitor: StreamingWindowMonitor,
                 spec: IngestSpec | None = None):
        self.monitor = monitor

    def write(self, batch: WriteBatch) -> WriteOutcome:
        before = self.monitor._pane_index
        start = time.perf_counter()
        alerts = self.monitor._ingest_values(batch.values)
        return WriteOutcome(cells=self.monitor._pane_index - before,
                            pack_seconds=time.perf_counter() - start,
                            alerts=alerts)

    def read_target(self) -> StreamingWindowMonitor:
        # as_backend adapts a live monitor to its current window's panes
        # (the last window_panes sealed panes); it raises QueryError
        # while no pane has been sealed yet.
        return self.monitor


# ----------------------------------------------------------------------
# Cluster coordinator
# ----------------------------------------------------------------------

class ClusterWriteBackend(WriteBackend):
    """Replication-aware shard routing over a
    :class:`~repro.cluster.ClusterCoordinator`.

    Each batch is split into per-shard sub-batches by hashing every
    row's full dimension tuple through the coordinator's hashring, and
    each sub-batch is rolled up on *every* live owner of its shard —
    identical rows in identical order, which keeps replicas
    bit-identical.  When the batch carries an idempotency ``sequence``
    stamp, every replica records it per shard and replays become
    no-ops, so at-least-once delivery upstream cannot double-count.
    """

    name = "cluster"
    needs_timestamps = True

    def __init__(self, coordinator: ClusterCoordinator,
                 spec: IngestSpec | None = None):
        self.coordinator = coordinator
        self.dimensions = coordinator.dimensions

    def write(self, batch: WriteBatch) -> WriteOutcome:
        coordinator = self.coordinator
        if not coordinator.live_nodes:
            raise ClusterError("the cluster has no live nodes")
        check_columns(len(self.dimensions), batch.dims, batch.values,
                      batch.timestamps, needs_timestamps=True,
                      context="cluster ingest")
        if batch.rows == 0:
            # An idle poll; topology and arity were still validated above.
            return WriteOutcome(cells=0, shards=0, replicas=0)
        columns = [np.asarray(col) for col in batch.dims]
        start = time.perf_counter()
        shards = coordinator.shard_ids(columns)
        shard_list = np.unique(shards)
        # Resolve every sub-batch's replica set up front, so an
        # unroutable shard aborts the batch before *any* replica applies
        # it (no partially-recorded sequence stamps to reason about).
        owners_of = {}
        for shard in shard_list:
            owners = coordinator.live_owners(int(shard))
            if not owners:
                raise ClusterError(f"shard {int(shard)} has no live owners")
            owners_of[int(shard)] = owners
        route_seconds = time.perf_counter() - start

        start = time.perf_counter()
        cells = 0
        replicas = 0
        for shard in shard_list:
            mask = shards == shard
            subset_ts = batch.timestamps[mask]
            subset_cols = [col[mask] for col in columns]
            subset_values = batch.values[mask]
            owners = owners_of[int(shard)]
            shard_cells = None
            for node_id in owners:
                applied = coordinator.nodes[node_id].ingest_shard(
                    int(shard), subset_ts, subset_cols, subset_values,
                    sequence=batch.sequence)
                if applied is not None:
                    replicas += 1
                    if shard_cells is None:
                        shard_cells = applied
            cells += shard_cells or 0
        return WriteOutcome(cells=cells,
                            pack_seconds=time.perf_counter() - start,
                            route_seconds=route_seconds,
                            shards=int(shard_list.size), replicas=replicas,
                            touched_shards=tuple(
                                int(shard) for shard in shard_list))

    def read_target(self) -> ClusterCoordinator:
        return self.coordinator

    def invalidation_targets(self, batch: WriteBatch,
                             outcome: WriteOutcome | None = None
                             ) -> list[tuple[object, tuple | None]]:
        """Per-shard invalidation: only the shards this write landed on.

        Cached point-query answers pinned to untouched shards stay
        valid (:meth:`~repro.cluster.backend.ClusterBackend.scan_epoch`
        keys them on exactly their shard's counter).
        """
        if outcome is not None and outcome.touched_shards is not None:
            touched = outcome.touched_shards
        elif batch.rows == 0:
            touched = ()
        else:
            columns = [np.asarray(col) for col in batch.dims]
            shard_list = np.unique(self.coordinator.shard_ids(columns))
            touched = tuple(int(shard) for shard in shard_list)
        return [(self.coordinator, touched)]


# ----------------------------------------------------------------------
# Fan-out (one session, many targets)
# ----------------------------------------------------------------------

class FanOutWriteBackend(WriteBackend):
    """Tee every batch to several write backends (same rows, same order).

    Dimensional children must agree on arity; ``needs_timestamps`` is
    the union of the children's requirements.  The outcome reports the
    maximum per-child cell count (the most granular target) and
    concatenates any window alerts.

    Sequence-stamped batches get fan-out-level idempotency: the backend
    records which children applied each stamp, so when a mid-fan-out
    failure makes the session retry the flush, children that already
    applied it are skipped instead of double-counting (the cluster
    child additionally dedups on its own replicas).  Unstamped batches
    have no such protection — set ``dedup_key`` on the session when a
    fan-out target can fail independently.
    """

    name = "fanout"

    def __init__(self, targets, spec: IngestSpec | None = None):
        if not targets:
            raise IngestError("fan-out needs at least one target")
        self.children = [target if isinstance(target, WriteBackend)
                         else as_write_backend(target, spec=spec)
                         for target in targets]
        arities = {len(child.dimensions) for child in self.children
                   if child.dimensions}
        if len(arities) > 1:
            raise IngestError(
                f"fan-out targets disagree on dimension arity: {self.children}")
        self.dimensions = next((child.dimensions for child in self.children
                                if child.dimensions), ())
        self.needs_timestamps = any(child.needs_timestamps
                                    for child in self.children)
        self._applied: list[set] = [set() for _ in self.children]

    def write(self, batch: WriteBatch) -> WriteOutcome:
        cells = 0
        pack = route = 0.0
        alerts: list = []
        shards = replicas = None
        for index, child in enumerate(self.children):
            if batch.sequence is not None \
                    and batch.sequence in self._applied[index]:
                continue
            outcome = child.write(batch)
            if batch.sequence is not None:
                self._applied[index].add(batch.sequence)
            cells = max(cells, outcome.cells)
            pack += outcome.pack_seconds
            route += outcome.route_seconds
            if outcome.alerts:
                alerts.extend(outcome.alerts)
            shards = outcome.shards if outcome.shards is not None else shards
            replicas = (outcome.replicas if outcome.replicas is not None
                        else replicas)
        return WriteOutcome(cells=cells, pack_seconds=pack,
                            route_seconds=route, alerts=alerts or None,
                            shards=shards, replicas=replicas)

    def read_target(self) -> object:
        return self.children[0].read_target()

    def invalidation_targets(self, batch: WriteBatch,
                             outcome: WriteOutcome | None = None
                             ) -> list[tuple[object, tuple | None]]:
        # The fan-out outcome aggregates children, so per-child shard
        # detail is recomputed by each child from the batch itself.
        targets: list[tuple[object, tuple | None]] = []
        for child in self.children:
            targets.extend(child.invalidation_targets(batch, None))
        return targets

    def read_targets(self) -> dict[str, object]:
        targets: dict[str, object] = {}
        for child in self.children:
            for name, target in child.read_targets().items():
                key = name
                suffix = 2
                while key in targets:
                    key = f"{name}{suffix}"
                    suffix += 1
                targets[key] = target
        return targets


# ----------------------------------------------------------------------
# Adapter registry
# ----------------------------------------------------------------------

#: (predicate, adapter factory) pairs tried in order by
#: :func:`as_write_backend`.
WRITE_ADAPTERS: list[tuple[Callable[[object], bool],
                           Callable[..., WriteBackend]]] = []


def register_write_adapter(predicate: Callable[[object], bool],
                           factory: Callable[..., WriteBackend]) -> None:
    """Register an automatic engine-object -> write-backend adapter."""
    WRITE_ADAPTERS.append((predicate, factory))


def as_write_backend(obj, spec: IngestSpec | None = None,
                     **kwargs) -> WriteBackend:
    """Adapt a raw engine object (or pass a WriteBackend through)."""
    if isinstance(obj, WriteBackend):
        return obj
    for attempt in range(2):
        for predicate, factory in WRITE_ADAPTERS:
            if predicate(obj):
                return factory(obj, spec=spec, **kwargs)
        if attempt == 0:
            # The storage layer registers its adapter on import; pull it
            # in lazily so IngestSession(TieredStore(...)) works without
            # the caller importing repro.storage first.
            from .. import storage  # noqa: F401
    raise IngestError(
        f"no write-backend adapter for {type(obj).__name__}; register one "
        "with repro.ingest.register_write_adapter or pass a WriteBackend")


register_write_adapter(lambda obj: isinstance(obj, DataCube), CubeWriteBackend)
register_write_adapter(lambda obj: isinstance(obj, DruidEngine),
                       DruidWriteBackend)
register_write_adapter(lambda obj: isinstance(obj, PackedSketchStore),
                       PackedStoreWriteBackend)
register_write_adapter(lambda obj: isinstance(obj, StreamingWindowMonitor),
                       WindowWriteBackend)
register_write_adapter(lambda obj: isinstance(obj, ClusterCoordinator),
                       ClusterWriteBackend)
register_write_adapter(
    lambda obj: isinstance(obj, (list, tuple)) and len(obj) > 0,
    FanOutWriteBackend)


# ----------------------------------------------------------------------
# Spec-driven target construction (the CLI's entry point)
# ----------------------------------------------------------------------

def build_target(spec: IngestSpec):
    """Build a fresh storage engine from a declarative ingest spec.

    Used when no engine exists yet (the CLI's ``ingest`` subcommand);
    sessions over existing engines adapt them directly instead.
    """
    if spec.backend is None:
        raise IngestError("building a target needs spec.backend set to "
                          "one of cube/druid/packed/window/cluster")
    if spec.backend in ("cube", "druid", "cluster") and not spec.dimensions:
        raise IngestError(
            f"a {spec.backend} target needs spec.dimensions")
    if spec.backend == "cube":
        return DataCube(CubeSchema(spec.dimensions),
                        lambda: MomentsSummary(k=spec.k,
                                               track_log=spec.track_log))
    if spec.backend == "druid":
        return DruidEngine(dimensions=spec.dimensions,
                           aggregators={"value":
                                        MomentsSketchAggregator(k=spec.k)},
                           granularity=spec.granularity or 3600.0)
    if spec.backend == "packed":
        return PackedSketchStore(k=spec.k, track_log=spec.track_log)
    if spec.backend == "window":
        if spec.pane_size is None or spec.window_panes is None:
            raise IngestError(
                "a window target needs spec.pane_size and spec.window_panes")
        threshold = (spec.threshold if spec.threshold is not None
                     else float("inf"))
        return StreamingWindowMonitor(pane_size=spec.pane_size,
                                      window_panes=spec.window_panes,
                                      threshold=threshold, k=spec.k)
    if spec.backend == "cluster":
        nodes = [f"node-{i}" for i in range(spec.nodes or 2)]
        return ClusterCoordinator(
            dimensions=spec.dimensions,
            aggregators={"value": MomentsSketchAggregator(k=spec.k)},
            num_shards=spec.num_shards or 16,
            replication=spec.replication or 2,
            granularity=spec.granularity or 3600.0, nodes=nodes)
    if spec.backend == "tiered":
        if spec.storage_dir is None:
            raise IngestError("a tiered target needs spec.storage_dir")
        from ..storage import DEFAULT_HOT_BUDGET, TieredStore
        return TieredStore(
            spec.storage_dir, k=spec.k, track_log=spec.track_log,
            dimensions=spec.dimensions,
            hot_budget_bytes=spec.hot_budget_bytes or DEFAULT_HOT_BUDGET)
    raise IngestError(f"cannot build a {spec.backend!r} target")
