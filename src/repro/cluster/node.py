"""Data nodes: per-shard storage and node-local partial aggregation.

A :class:`DataNode` owns one miniature :class:`~repro.druid.DruidEngine`
per shard it hosts, so ingestion runs through the *existing* Druid-style
roll-up path (time-bucketed cells, packed per-segment
:class:`~repro.store.PackedSketchStore` rows for moments aggregators)
and node-local scans reuse the engine's packed vectorized reductions.
Parallelism in the cluster comes from the broker fanning out *across
nodes*; every shard partial is the engine's strict left fold, which is
what makes replicas interchangeable bit-for-bit.

The unit of replication and rebalance is the shard snapshot
(:meth:`DataNode.export_shard` / :meth:`DataNode.import_shard`): packed
sketch stores travel through their binary wire format (exact float64
round trip) and object-layout aggregator states are copied, so a replica
reconstructed on another node answers every query with the identical
bits.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..core.errors import ClusterError
from ..core.grouping import check_columns
from ..druid.aggregators import AggregatorFactory, AggregatorState
from ..druid.engine import DruidEngine, Segment
from ..store import PackedSketchStore
from ..telemetry import TELEMETRY, LogHistogram

#: Per-shard segment-file manifest name (see :meth:`DataNode.export_shard_files`).
SHARD_MANIFEST = "SHARD.json"


def _state_size(state: AggregatorState) -> int:
    """Approximate wire size of one partial state (the ~200-byte payload)."""
    summary = getattr(state, "summary", None)
    if summary is not None and hasattr(summary, "size_bytes"):
        return int(summary.size_bytes())
    return 8


@dataclass
class ShardPartial:
    """One shard's merged partial state for a scatter-gather query.

    ``telemetry`` (present only when the telemetry plane is enabled)
    carries the shard's detached span payload — and, on one partial per
    reply, a binary :class:`~repro.telemetry.LogHistogram` partial of
    per-shard scan latencies — so the broker can adopt the spans into
    its trace and fold the histogram into the process registry, exactly
    like it folds the sketch partials themselves.
    """

    shard: int
    state: AggregatorState
    cells_scanned: int
    telemetry: dict | None = None

    def size_bytes(self) -> int:
        """Approximate wire size of the partial (the ~200-byte payload)."""
        return _state_size(self.state)


@dataclass
class ShardSnapshot:
    """A transferable bit-exact copy of one shard's engine state.

    ``applied`` carries the shard's idempotency ledger — the ingest
    sequence stamps already rolled up — so a replica reconstructed from
    a snapshot keeps treating replayed batches as no-ops.
    """

    shard: int
    segments: list[Segment]
    applied: set = field(default_factory=set)

    def size_bytes(self) -> int:
        """Serialized footprint of the snapshot's packed stores."""
        return sum(store.size_bytes()
                   for segment in self.segments
                   for store in segment.packed.values())


def _clone_segment(segment: Segment) -> Segment:
    """Deep, bit-exact copy of a segment (states copied, stores re-read
    through the binary wire format)."""
    out = Segment(chunk=segment.chunk)
    out.cells = {key: {name: state.copy() for name, state in cell.items()}
                 for key, cell in segment.cells.items()}
    out.packed = {name: PackedSketchStore.from_bytes(store.to_bytes())
                  for name, store in segment.packed.items()}
    out.packed_rows = {name: dict(rows)
                       for name, rows in segment.packed_rows.items()}
    return out


class DataNode:
    """One simulated cluster node hosting a set of shards.

    Parameters mirror :class:`~repro.druid.DruidEngine`; every hosted
    shard gets its own engine built from the shared aggregator factories.
    """

    def __init__(self, node_id: str, dimensions: Sequence[str],
                 aggregators: Mapping[str, AggregatorFactory],
                 granularity: float = 3600.0, packed_moments: bool = True):
        self.node_id = str(node_id)
        self.dimensions = tuple(dimensions)
        self.aggregators = dict(aggregators)
        self.granularity = float(granularity)
        self.packed_moments = bool(packed_moments)
        self.alive = True
        self.shards: dict[int, DruidEngine] = {}
        #: Per-shard idempotency ledgers: ingest sequence stamps applied.
        self._applied: dict[int, set] = {}

    # ------------------------------------------------------------------
    # Shard lifecycle
    # ------------------------------------------------------------------

    def _shard_engine(self, shard: int) -> DruidEngine:
        engine = self.shards.get(shard)
        if engine is None:
            engine = DruidEngine(dimensions=self.dimensions,
                                 aggregators=self.aggregators,
                                 granularity=self.granularity,
                                 packed_moments=self.packed_moments)
            self.shards[shard] = engine
        return engine

    @property
    def owned_shards(self) -> tuple[int, ...]:
        return tuple(sorted(self.shards))

    @property
    def num_cells(self) -> int:
        return sum(engine.num_cells for engine in self.shards.values())

    def drop_shard(self, shard: int) -> None:
        self.shards.pop(shard, None)
        self._applied.pop(shard, None)

    def export_shard(self, shard: int) -> ShardSnapshot:
        """Snapshot a hosted shard for replication / rebalance."""
        engine = self.shards.get(shard)
        if engine is None:
            raise ClusterError(
                f"node {self.node_id!r} does not host shard {shard}")
        return ShardSnapshot(
            shard=shard,
            segments=[_clone_segment(segment)
                      for segment in engine.segments.values()],
            applied=set(self._applied.get(shard, ())))

    def import_shard(self, snapshot: ShardSnapshot) -> None:
        """Install a snapshot, replacing any existing copy of the shard."""
        engine = DruidEngine(dimensions=self.dimensions,
                             aggregators=self.aggregators,
                             granularity=self.granularity,
                             packed_moments=self.packed_moments)
        for segment in snapshot.segments:
            engine.segments[segment.chunk] = segment
        self.shards[snapshot.shard] = engine
        self._applied[snapshot.shard] = set(snapshot.applied)

    # ------------------------------------------------------------------
    # Segment-granular file replication
    # ------------------------------------------------------------------

    def export_shard_files(self, shard: int, directory) -> dict:
        """Persist a shard as content-named segment files plus a manifest.

        Each ``(chunk, aggregator)`` packed store becomes one
        :mod:`repro.storage.format` segment file named by its content
        checksum, so an unchanged store maps to an unchanged file name —
        a re-export after incremental ingest rewrites only the chunks
        that actually changed, and a replica syncing from the directory
        copies only names it is missing (segment-granular replication,
        vs shipping the full-store blob snapshot every time).  The
        shard manifest (``SHARD.json``, atomic rename) records the live
        file set, chunk mapping, and the idempotency ledger.

        Restricted to all-packed engines: object-layout aggregator
        states have no segment-file form, so such shards must travel as
        :class:`ShardSnapshot` blobs.  Returns ``{"files", "bytes",
        "bytes_written", "manifest"}`` where ``bytes_written`` counts
        only newly materialized segment bytes.
        """
        from ..storage.format import build_segment_bytes, canonical_key

        engine = self.shards.get(shard)
        if engine is None:
            raise ClusterError(
                f"node {self.node_id!r} does not host shard {shard}")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        entries: list[dict] = []
        live_files: set[str] = set()
        total = written = 0
        for chunk in sorted(engine.segments):
            segment = engine.segments[chunk]
            if any(cell for cell in segment.cells.values()):
                raise ClusterError(
                    "segment-file export needs all-packed aggregators; "
                    f"shard {shard} chunk {chunk} holds object states")
            for name in sorted(segment.packed):
                store = segment.packed[name]
                rows = segment.packed_rows.get(name, {})
                keys = [None] * len(store)
                for key, row in rows.items():
                    keys[row] = canonical_key(key)
                if any(key is None for key in keys):
                    raise ClusterError(
                        f"shard {shard} chunk {chunk} aggregator {name!r} "
                        "has unkeyed packed rows; cannot export")
                # first_seen = the store's own row numbering, so import
                # can rebuild rows in the original ingest order.
                blob = build_segment_bytes(store, keys,
                                           np.arange(len(store)))
                file_name = (f"{name}-{zlib.crc32(blob):08x}"
                             f"{len(blob):x}.seg")
                path = directory / file_name
                if not path.is_file():
                    tmp = directory / (file_name + ".tmp")
                    with open(tmp, "wb") as stream:
                        stream.write(blob)
                        stream.flush()
                        os.fsync(stream.fileno())
                    os.replace(tmp, path)
                    written += len(blob)
                total += len(blob)
                live_files.add(file_name)
                entries.append({"chunk": chunk, "aggregator": name,
                                "file": file_name, "rows": len(store),
                                "bytes": len(blob)})
        manifest = {"shard": int(shard), "dimensions": list(self.dimensions),
                    "granularity": self.granularity,
                    "applied": [list(stamp) for stamp
                                in sorted(self._applied.get(shard, ()),
                                          key=repr)],
                    "segments": entries}
        tmp = directory / (SHARD_MANIFEST + ".tmp")
        tmp.write_text(json.dumps(manifest, separators=(",", ":"),
                                  default=str))
        os.replace(tmp, directory / SHARD_MANIFEST)
        for path in directory.iterdir():
            # GC: superseded segment files and stale temp debris.
            if path.name.endswith(".tmp") or (
                    path.name.endswith(".seg")
                    and path.name not in live_files):
                path.unlink()
        return {"files": len(live_files), "bytes": total,
                "bytes_written": written,
                "manifest": str(directory / SHARD_MANIFEST)}

    def import_shard_files(self, shard: int, directory) -> None:
        """Rebuild a shard from :meth:`export_shard_files` output.

        The reconstruction is bit-exact: segment rows are reordered by
        their recorded first-seen stamps back into the store's original
        row numbering, so every post-import fold sees the identical
        operand order.
        """
        from ..storage.format import open_segment

        directory = Path(directory)
        try:
            manifest = json.loads((directory / SHARD_MANIFEST).read_text())
        except (FileNotFoundError, json.JSONDecodeError) as exc:
            raise ClusterError(
                f"no readable shard manifest in {directory}: {exc}") \
                from None
        if int(manifest["shard"]) != int(shard):
            raise ClusterError(
                f"directory {directory} holds shard {manifest['shard']}, "
                f"asked to import shard {shard}")
        if tuple(manifest["dimensions"]) != self.dimensions:
            raise ClusterError(
                f"shard manifest dimensions {manifest['dimensions']} do not "
                f"match node dimensions {list(self.dimensions)}")
        engine = DruidEngine(dimensions=self.dimensions,
                             aggregators=self.aggregators,
                             granularity=self.granularity,
                             packed_moments=self.packed_moments)
        for entry in manifest["segments"]:
            reader = open_segment(directory / entry["file"])
            try:
                order = np.argsort(reader.first_seen)
                store = PackedSketchStore(k=reader.k,
                                          track_log=reader.track_log,
                                          capacity=reader.rows)
                for _ in range(reader.rows):
                    store.new_row()
                store.counts[:reader.rows] = reader.counts[order]
                store.mins[:reader.rows] = reader.mins[order]
                store.maxs[:reader.rows] = reader.maxs[order]
                store.power_sums[:reader.rows] = reader.power_sums[order]
                store.log_sums[:reader.rows] = reader.log_sums[order]
                store.log_valid[:reader.rows] = reader.log_valid[order]
                keys = [reader.keys[i] for i in order]
            finally:
                reader.close()
            chunk = int(entry["chunk"])
            segment = engine.segments.get(chunk)
            if segment is None:
                segment = Segment(chunk=chunk)
                engine.segments[chunk] = segment
            segment.packed[entry["aggregator"]] = store
            segment.packed_rows[entry["aggregator"]] = {
                key: row for row, key in enumerate(keys)}
            for key in keys:
                segment.cells.setdefault(key, {})
        self.shards[int(manifest["shard"])] = engine
        self._applied[int(manifest["shard"])] = {
            tuple(stamp) for stamp in manifest.get("applied", ())}

    # ------------------------------------------------------------------
    # Failure simulation
    # ------------------------------------------------------------------

    def fail(self) -> None:
        """Simulate a crash: the node stops answering until restored."""
        self.alive = False

    def restore(self) -> None:
        """Low-level revive (simulation only): flips the node alive
        without resyncing state.  Use
        :meth:`~repro.cluster.coordinator.ClusterCoordinator.restore_node`
        to rejoin a cluster safely — a node that missed ingests while
        down would otherwise serve stale answers."""
        self.alive = True

    def _check_alive(self) -> None:
        if not self.alive:
            raise ClusterError(f"node {self.node_id!r} is down")

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest_shard(self, shard: int, timestamps: np.ndarray,
                     dimension_columns: Sequence[np.ndarray],
                     values: np.ndarray,
                     sequence: tuple | None = None) -> int | None:
        """Roll one shard sub-batch up through the standard Druid path.

        ``sequence`` is the batch's idempotency stamp (see
        :class:`~repro.ingest.ClusterWriteBackend`): a stamp this shard
        already applied makes the call a no-op, so replayed batches
        cannot double-count on any replica.  Returns the number of
        ``(chunk, key)`` groups touched, or ``None`` when deduplicated.
        """
        self._check_alive()
        check_columns(len(self.dimensions), dimension_columns, values,
                      timestamps, needs_timestamps=True,
                      context=f"shard {shard} ingest")
        if sequence is not None:
            applied = self._applied.setdefault(shard, set())
            if sequence in applied:
                return None
        groups = self._shard_engine(shard)._rollup_rows(
            timestamps, dimension_columns, values)
        if sequence is not None:
            applied.add(sequence)
        return groups

    # ------------------------------------------------------------------
    # Node-local scatter work
    # ------------------------------------------------------------------

    def shard_partials(self, aggregator: str, shards: Sequence[int],
                       filters: Mapping[str, object] | None = None,
                       interval: tuple[float, float] | None = None
                       ) -> list[ShardPartial]:
        """One merged partial per requested shard with matching cells.

        Packed moments aggregators roll each shard's matching rows up
        with one :meth:`~repro.druid.DruidEngine.packed_rollup`; other
        aggregators fold their object states.  Either way a shard's
        partial depends only on the shard's cells and their ingestion
        order, not on which replica computed it.
        """
        self._check_alive()
        # Telemetry rides along only when a broker span is active on this
        # worker thread: each produced partial carries a detached span,
        # and one partial per reply ships the node's latency histogram.
        parent = (TELEMETRY.tracer.current_span()
                  if TELEMETRY.enabled else None)
        hist = LogHistogram() if parent is not None else None
        partials: list[ShardPartial] = []
        for shard in shards:
            engine = self.shards.get(shard)
            if engine is None:
                continue
            span = (TELEMETRY.tracer.span(
                        "cluster.shard", parent=parent, detached=True,
                        node=self.node_id, shard=shard, aggregator=aggregator)
                    if parent is not None else None)
            if aggregator in engine._packed_names:
                # The roll-up DruidBackend.rollup runs on a flat engine,
                # which keeps shard partials bit-exact with shard-aligned
                # single-process execution.
                rollup = engine.packed_rollup(aggregator, filters, interval)
                if rollup is None:
                    continue
                scanned = rollup.cells_scanned
                state = rollup.state
            else:
                states = engine._matching_states(aggregator, filters, interval)
                if not states:
                    continue
                scanned = len(states)
                state = engine._merge_states(states)
            telemetry = None
            if span is not None:
                span.set_attribute("cells_scanned", scanned)
                payload = span.end()
                hist.observe(payload["duration_seconds"])
                telemetry = {"span": payload}
            partials.append(ShardPartial(shard=shard, state=state,
                                         cells_scanned=scanned,
                                         telemetry=telemetry))
        if hist is not None and partials:
            partials[0].telemetry["hist"] = hist.to_partial()
        return partials

    def group_partials(self, aggregator: str, shards: Sequence[int],
                       dimension: str,
                       filters: Mapping[str, object] | None = None
                       ) -> list[tuple[int, dict, int, dict | None]]:
        """Per-shard grouped partials: (shard, {value: state}, cells,
        telemetry) — telemetry as in :meth:`shard_partials`."""
        self._check_alive()
        parent = (TELEMETRY.tracer.current_span()
                  if TELEMETRY.enabled else None)
        hist = LogHistogram() if parent is not None else None
        out: list[tuple[int, dict, int, dict | None]] = []
        for shard in shards:
            engine = self.shards.get(shard)
            if engine is None:
                continue
            span = (TELEMETRY.tracer.span(
                        "cluster.shard", parent=parent, detached=True,
                        node=self.node_id, shard=shard, aggregator=aggregator,
                        dimension=dimension)
                    if parent is not None else None)
            groups = engine.group_states(aggregator, dimension, filters)
            if groups:
                telemetry = None
                if span is not None:
                    span.set_attribute("groups", len(groups))
                    payload = span.end()
                    hist.observe(payload["duration_seconds"])
                    telemetry = {"span": payload}
                out.append((shard, groups, engine.num_cells, telemetry))
        if hist is not None and out:
            out[0][3]["hist"] = hist.to_partial()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.alive else "down"
        return (f"DataNode({self.node_id!r}, shards={len(self.shards)}, "
                f"cells={self.num_cells}, {state})")
