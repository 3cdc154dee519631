"""Memory-budgeted tiered store: hot RAM rows over immutable segments.

:class:`TieredStore` is the LSM facade over :mod:`repro.storage.format`
segments.  The design constraint that shapes everything here is the
acceptance bar of the subsystem: **lossless tiers must answer every
query bit-identically to a RAM-resident**
:class:`~repro.store.PackedSketchStore`.  Floating-point addition is not
associative, so any scheme that folds *partial* per-key sketches across
segments at read time cannot meet that bar.  This store therefore keeps
exactly one live accumulator per cell key — the LSM merge operator is
applied at **write time**:

* A write to a key currently sealed on disk first copies the key's
  newest sealed row into a fresh hot row (an exact float64 copy), then
  accumulates into it with the very same
  :meth:`~repro.store.PackedSketchStore.batch_accumulate` kernel the
  RAM path uses.  Per key there is always a single left fold in input
  order — bit-for-bit the RAM result, by construction.
* Reads resolve each key to its **newest version**: the hot row if one
  exists, else the youngest segment holding the key.  Older versions
  are superseded garbage.
* ``seal`` freezes the hot tier into one immutable sorted segment
  (atomic manifest swap); it runs automatically when the hot tier
  exceeds its byte budget.
* Compaction (driven by :class:`~repro.storage.Compactor`) rewrites a
  contiguous age run of segments keeping only each key's newest version
  in the run — pure garbage collection, so it is trivially bit-exact —
  and demotion rewrites old warm segments in the
  :class:`~repro.storage.format.ColdSpec` low-precision layout.

Cell keys are ordered by *first-seen stamp* exactly as the RAM
:class:`~repro.ingest.backends.PackedStoreWriteBackend` numbers its
rows, so a :meth:`gather` reproduces the RAM store's row order and
every downstream fold (roll-ups, group-bys, top-n) sees the same
operand order.
"""

from __future__ import annotations

import os
import re
import threading
import zlib
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from ..core.errors import StorageError
from ..core.grouping import accumulate_columns
from ..telemetry import TELEMETRY
from ..core.sketch import DEFAULT_ORDER, MomentsSketch
from ..store import PackedSketchStore
from .format import (KIND_COLD, KIND_WARM, ColdSpec, SegmentFile,
                     build_segment_bytes, canonical_key, open_segment,
                     sort_key)
from .manifest import Manifest

#: Shared no-op context manager for disabled-telemetry paths
#: (``nullcontext`` is stateless, so one instance is reusable).
_NULL_CM = nullcontext()

#: Hot-tier byte budget before an automatic seal (4 MiB of SoA buffers).
DEFAULT_HOT_BUDGET = 4 << 20

_SEGMENT_NAME = re.compile(r"^seg-(\d{8})-[0-9a-f]{8}\.rsg$")


class TieredStore:
    """Hot/warm/cold tiered storage for one dimensioned sketch table.

    Parameters
    ----------
    directory:
        The store's home.  A directory with a manifest is *opened* (its
        recorded ``k``/``track_log``/``dimensions`` win; passing
        conflicting values raises); one without is *initialized*.
    k, track_log, dimensions:
        Store schema, persisted in the manifest on creation.
    hot_budget_bytes:
        Hot-tier byte budget: when the live
        :class:`~repro.store.PackedSketchStore` exceeds it after a
        write, the tier seals into a segment automatically.
    cold:
        Default :class:`~repro.storage.format.ColdSpec` for
        :meth:`demote`; ``None`` keeps every sealed segment warm until
        a spec is passed explicitly.
    verify:
        Checksum-verify segment files on open (recovery path).
    """

    def __init__(self, directory, k: int | None = None,
                 track_log: bool | None = None,
                 dimensions=None, hot_budget_bytes: int = DEFAULT_HOT_BUDGET,
                 cold: ColdSpec | None = None, verify: bool = True):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hot_budget_bytes = int(hot_budget_bytes)
        if self.hot_budget_bytes <= 0:
            raise StorageError(f"hot_budget_bytes must be positive, "
                               f"got {hot_budget_bytes}")
        self.cold = cold
        self._lock = threading.RLock()
        self.segments: list[SegmentFile] = []
        self._index: dict[tuple, tuple[int, int]] = {}
        self._seen: dict[tuple, int] = {}
        self._next_seen = 0
        self._file_seq = 0
        self.epoch = 0
        self.stats_counters = {"seals": 0, "compactions": 0, "demotions": 0}
        if Manifest.exists(self.directory):
            self.manifest = Manifest.open(self.directory)
            meta = self.manifest.meta
            for name, given in (("k", k), ("track_log", track_log)):
                if given is not None and given != meta[name]:
                    raise StorageError(
                        f"store at {self.directory} has {name}={meta[name]}, "
                        f"asked for {given}")
            if dimensions is not None \
                    and tuple(dimensions) != tuple(meta["dimensions"]):
                raise StorageError(
                    f"store at {self.directory} has dimensions "
                    f"{tuple(meta['dimensions'])}, asked for "
                    f"{tuple(dimensions)}")
            self.k = int(meta["k"])
            self.track_log = bool(meta["track_log"])
            self.dimensions = tuple(meta["dimensions"])
            self._recover(verify)
        else:
            self.k = int(k) if k is not None else DEFAULT_ORDER
            self.track_log = True if track_log is None else bool(track_log)
            self.dimensions = tuple(dimensions or ())
            self.manifest = Manifest.create(self.directory, {
                "k": self.k, "track_log": self.track_log,
                "dimensions": list(self.dimensions)})
        self.hot = PackedSketchStore(k=self.k, track_log=self.track_log)
        self._hot_rows: dict[tuple, int] = {}
        self._hot_keys: list[tuple] = []

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _recover(self, verify: bool) -> None:
        """Open the manifest's live segments; sweep crash debris."""
        live = set(self.manifest.segments)
        for name in self.manifest.segments:
            path = self.directory / name
            if not path.is_file():
                raise StorageError(
                    f"manifest names missing segment {name}")
            self.segments.append(open_segment(path, verify=verify))
        for path in self.directory.iterdir():
            # Crash debris: half-written .tmp files and segments that
            # were written but never committed to the manifest.
            if path.name.endswith(".tmp") \
                    or (_SEGMENT_NAME.match(path.name)
                        and path.name not in live):
                path.unlink()
        self._rebuild_index_locked()
        for seg in self.segments:
            for key, stamp in zip(seg.keys, seg.first_seen):
                known = self._seen.get(key)
                if known is None or stamp < known:
                    self._seen[key] = int(stamp)
        self._next_seen = max(self._seen.values(), default=-1) + 1
        self._file_seq = max(
            (int(_SEGMENT_NAME.match(name).group(1))
             for name in live if _SEGMENT_NAME.match(name)), default=-1) + 1

    def _rebuild_index_locked(self) -> None:
        """Newest-version-wins key index (age order, later overwrites)."""
        self._index.clear()
        for position, seg in enumerate(self.segments):
            for row, key in enumerate(seg.keys):
                self._index[key] = (position, row)

    # ------------------------------------------------------------------
    # Write path (the RMW hot tier)
    # ------------------------------------------------------------------

    def _ensure_hot_row_locked(self, key: tuple) -> int:
        """The (canonicalized) key's live accumulator row, fetching
        sealed state if any.

        The fetch is an exact float64 copy of the newest sealed version,
        so subsequent accumulates continue the identical single left
        fold a RAM-resident store would have run.
        """
        key = canonical_key(key)
        row = self._hot_rows.get(key)
        if row is not None:
            return row
        row = self.hot.new_row()
        self._hot_rows[key] = row
        self._hot_keys.append(key)
        location = self._index.get(key)
        if location is not None:
            seg = self.segments[location[0]]
            src = location[1]
            self.hot.counts[row] = seg.counts[src]
            self.hot.mins[row] = seg.mins[src]
            self.hot.maxs[row] = seg.maxs[src]
            self.hot.power_sums[row] = seg.power_sums[src]
            self.hot.log_sums[row] = seg.log_sums[src]
            self.hot.log_valid[row] = seg.log_valid[src]
        if key not in self._seen:
            self._seen[key] = self._next_seen
            self._next_seen += 1
        return row

    def ingest_columns(self, dim_columns, values) -> int:
        """Accumulate one columnar batch; returns cells touched.

        Bit-for-bit the
        :class:`~repro.ingest.backends.PackedStoreWriteBackend` write:
        the same :func:`~repro.core.grouping.accumulate_columns` kernel
        and first-seen row numbering in the same group order.
        """
        with self._lock:
            values = np.atleast_1d(np.asarray(values, dtype=float))
            if values.size == 0:
                return 0
            if not self.dimensions:
                if dim_columns:
                    raise StorageError(
                        "this store has no dimensions; drop the columns")
                row = self._ensure_hot_row_locked(())
                self.hot.accumulate_row(row, values)
                cells = 1
            else:
                if len(dim_columns) != len(self.dimensions):
                    raise StorageError(
                        f"expected {len(self.dimensions)} dimension "
                        f"columns, got {len(dim_columns)}")
                cells = accumulate_columns(self.hot,
                                           self._ensure_hot_row_locked,
                                           list(dim_columns), values)
            self.epoch += 1
            self._maybe_seal_locked()
            if TELEMETRY.enabled:
                self._publish_gauges_locked()
            return cells

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------

    def _maybe_seal_locked(self) -> str | None:
        if self.hot.size_bytes() >= self.hot_budget_bytes:
            return self.seal()
        return None

    def _write_new_segment_locked(self, store: PackedSketchStore, keys, seen,
                           cold: ColdSpec | None) -> str:
        """Write + fsync a content-named segment file (not yet committed)."""
        blob = build_segment_bytes(store, keys, seen, cold=cold)
        name = f"seg-{self._file_seq:08d}-{zlib.crc32(blob):08x}.rsg"
        self._file_seq += 1
        tmp = self.directory / (name + ".tmp")
        with open(tmp, "wb") as stream:
            stream.write(blob)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, self.directory / name)
        return name

    def seal(self) -> str | None:
        """Freeze the hot tier into one immutable sorted warm segment.

        Rows sealed here supersede any older on-disk versions of the
        same keys (newest-version-wins reads).  Returns the new segment
        name, or ``None`` when the hot tier is empty.
        """
        with self._lock:
            n = len(self.hot)
            if n == 0:
                return None
            span = (TELEMETRY.tracer.span("storage.seal",
                                          store=self.directory.name, rows=n)
                    if TELEMETRY.enabled else None)
            with span if span is not None else _NULL_CM:
                seen = [self._seen[key] for key in self._hot_keys]
                name = self._write_new_segment_locked(self.hot, self._hot_keys, seen,
                                               cold=None)
                self.manifest.commit(tuple(self.manifest.segments) + (name,))
                seg = open_segment(self.directory / name, verify=False)
                self.segments.append(seg)
                position = len(self.segments) - 1
                for row, key in enumerate(seg.keys):
                    self._index[key] = (position, row)
                self.hot = PackedSketchStore(k=self.k,
                                             track_log=self.track_log)
                self._hot_rows = {}
                self._hot_keys = []
                self.stats_counters["seals"] += 1
                self.epoch += 1
                if span is not None:
                    span.set_attribute("segment", name)
                    TELEMETRY.registry.counter(
                        "storage_seals_total",
                        store=self.directory.name).inc()
                    self._publish_gauges_locked()
            return name

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def keys(self) -> list[tuple]:
        """Every live cell key in first-seen order (the RAM row order)."""
        with self._lock:
            return sorted(self._seen, key=self._seen.get)

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)

    def gather(self, keys=None) -> tuple[PackedSketchStore, list[tuple]]:
        """Materialize newest versions as one RAM store, first-seen order.

        The result is an independent copy (safe across later seals,
        compactions, and segment deletions) whose row ``i`` holds
        ``keys[i]`` — exactly the layout the RAM-resident write path
        builds, so any fold over it is bit-identical to the RAM path.
        """
        with self._lock:
            if keys is None:
                keys = self.keys()
            else:
                keys = [canonical_key(key) for key in keys]
                missing = [key for key in keys
                           if key not in self._seen]
                if missing:
                    raise StorageError(f"unknown cell keys {missing[:3]}")
                keys.sort(key=self._seen.get)
            out = PackedSketchStore(k=self.k, track_log=self.track_log,
                                    capacity=len(keys))
            for _ in keys:
                out.new_row()
            hot_src: list[int] = []
            hot_dst: list[int] = []
            per_segment: dict[int, tuple[list[int], list[int]]] = {}
            for dst, key in enumerate(keys):
                row = self._hot_rows.get(key)
                if row is not None:
                    hot_src.append(row)
                    hot_dst.append(dst)
                    continue
                position, src = self._index[key]
                pairs = per_segment.setdefault(position, ([], []))
                pairs[0].append(src)
                pairs[1].append(dst)
            for position, (src_rows, dst_rows) in per_segment.items():
                self._copy_rows(out, dst_rows, self.segments[position],
                                src_rows)
            if hot_dst:
                self._copy_rows(out, hot_dst, self.hot, hot_src)
            return out, keys

    @staticmethod
    def _copy_rows(out: PackedSketchStore, dst_rows, source, src_rows) -> None:
        """Exact float64 row copy from a segment or store into ``out``."""
        src = np.asarray(src_rows, dtype=np.intp)
        dst = np.asarray(dst_rows, dtype=np.intp)
        out.counts[dst] = source.counts[src]
        out.mins[dst] = source.mins[src]
        out.maxs[dst] = source.maxs[src]
        out.power_sums[dst] = source.power_sums[src]
        out.log_sums[dst] = source.log_sums[src]
        out.log_valid[dst] = source.log_valid[src]

    def probe(self, key) -> MomentsSketch | None:
        """The newest version of one key, or ``None``.

        Unlike :meth:`gather` this walks segments newest-first with
        key-range pruning (no index), which is also how recovery checks
        and the CLI resolve point lookups.
        """
        with self._lock:
            key = canonical_key(key)
            row = self._hot_rows.get(key)
            if row is not None:
                return self.hot.sketch_at(row)
            probe = sort_key(key)
            for seg in reversed(self.segments):
                if not seg.maybe_contains(probe):
                    continue
                row = int(seg.rows_for([probe])[0])
                if row < 0:
                    continue
                out = MomentsSketch(self.k, self.track_log)
                out.count = float(seg.counts[row])
                out.min = float(seg.mins[row])
                out.max = float(seg.maxs[row])
                out.power_sums = np.array(seg.power_sums[row])
                out.log_sums = np.array(seg.log_sums[row])
                out.log_valid = bool(seg.log_valid[row])
                return out
            return None

    # ------------------------------------------------------------------
    # Compaction and demotion
    # ------------------------------------------------------------------

    def compact_run(self, start: int, stop: int) -> dict:
        """Rewrite segments ``[start, stop)`` keeping newest versions.

        Within the run each key's youngest row supersedes the rest;
        surviving rows are copied byte-exactly (no re-folding), so the
        swap cannot change any answer.  All-cold runs stay cold —
        re-encoding values already on the quantization grid is
        bit-stable — while mixed runs come out warm.
        """
        with self._lock:
            if not 0 <= start < stop <= len(self.segments) \
                    or stop - start < 2:
                raise StorageError(
                    f"invalid compaction run [{start}, {stop}) over "
                    f"{len(self.segments)} segments")
            span = (TELEMETRY.tracer.span("storage.compact",
                                          store=self.directory.name,
                                          start=start, stop=stop)
                    if TELEMETRY.enabled else None)
            with span if span is not None else _NULL_CM:
                chosen = self.segments[start:stop]
                newest: dict[tuple, tuple[int, int]] = {}
                for local, seg in enumerate(chosen):
                    for row, key in enumerate(seg.keys):
                        newest[key] = (local, row)
                keys = list(newest)
                merged = PackedSketchStore(k=self.k, track_log=self.track_log,
                                           capacity=len(keys))
                for _ in keys:
                    merged.new_row()
                per_local: dict[int, tuple[list[int], list[int]]] = {}
                for dst, key in enumerate(keys):
                    local, src = newest[key]
                    pairs = per_local.setdefault(local, ([], []))
                    pairs[0].append(src)
                    pairs[1].append(dst)
                for local, (src_rows, dst_rows) in per_local.items():
                    self._copy_rows(merged, dst_rows, chosen[local], src_rows)
                cold = None
                if all(seg.kind == KIND_COLD for seg in chosen):
                    cold = chosen[-1].codec
                seen = [self._seen[key] for key in keys]
                name = self._write_new_segment_locked(merged, keys, seen, cold=cold)
                live = list(self.manifest.segments)
                replaced = live[start:stop]
                live[start:stop] = [name]
                self.manifest.commit(live)
                for seg in chosen:
                    seg.close()
                    seg.path.unlink()
                self.segments[start:stop] = [
                    open_segment(self.directory / name, verify=False)]
                self._rebuild_index_locked()
                self.stats_counters["compactions"] += 1
                self.epoch += 1
                rows_in = sum(seg.rows for seg in chosen)
                if span is not None:
                    span.set_attribute("rows_in", rows_in)
                    span.set_attribute("rows_out", len(keys))
                    span.set_attribute("reclaimed_rows", rows_in - len(keys))
                    registry = TELEMETRY.registry
                    registry.counter("storage_compactions_total",
                                     store=self.directory.name).inc()
                    registry.counter("storage_reclaimed_rows_total",
                                     store=self.directory.name
                                     ).inc(rows_in - len(keys))
                    self._publish_gauges_locked()
                return {"replaced": replaced, "created": name,
                        "rows_in": rows_in, "rows_out": len(keys),
                        "reclaimed_rows": rows_in - len(keys),
                        "kind": "cold" if cold is not None else "warm"}

    def demote(self, count: int = 1, spec: ColdSpec | None = None) -> list:
        """Rewrite the oldest ``count`` warm segments in the cold layout.

        This is the lossy tier boundary: sums are quantized per the
        :class:`~repro.storage.format.ColdSpec` (and the log family is
        dropped unless ``keep_log``), in exchange for the Figure 17
        footprint.  Each segment swaps atomically via its own manifest
        commit.  Returns the new segment names.
        """
        with self._lock:
            spec = spec or self.cold
            if spec is None:
                raise StorageError(
                    "demotion needs a ColdSpec (store-level or explicit)")
            warm = [position for position, seg in enumerate(self.segments)
                    if seg.kind == KIND_WARM]
            created = []
            span = (TELEMETRY.tracer.span("storage.demote",
                                          store=self.directory.name,
                                          requested=int(count))
                    if TELEMETRY.enabled else None)
            with span if span is not None else _NULL_CM:
                for position in warm[:max(int(count), 0)]:
                    seg = self.segments[position]
                    staged = PackedSketchStore(k=self.k,
                                               track_log=self.track_log,
                                               capacity=seg.rows)
                    for _ in range(seg.rows):
                        staged.new_row()
                    rows = list(range(seg.rows))
                    self._copy_rows(staged, rows, seg, rows)
                    name = self._write_new_segment_locked(staged, seg.keys,
                                                   seg.first_seen, cold=spec)
                    live = list(self.manifest.segments)
                    live[position] = name
                    self.manifest.commit(live)
                    seg.close()
                    seg.path.unlink()
                    self.segments[position] = open_segment(
                        self.directory / name, verify=False)
                    created.append(name)
                if created:
                    self._rebuild_index_locked()
                    self.stats_counters["demotions"] += len(created)
                    self.epoch += 1
                if span is not None:
                    span.set_attribute("demoted", len(created))
                    TELEMETRY.registry.counter(
                        "storage_demotions_total",
                        store=self.directory.name).inc(len(created))
                    self._publish_gauges_locked()
            return created

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def disk_bytes(self) -> int:
        with self._lock:
            return sum(seg.size_bytes for seg in self.segments)

    def _publish_gauges_locked(self) -> None:
        """Push tier sizes, hot-budget occupancy, and compaction debt
        into the telemetry registry (caller holds the lock)."""
        if not TELEMETRY.enabled:
            return
        registry = TELEMETRY.registry
        store = self.directory.name
        warm = cold = stored_rows = 0
        for seg in self.segments:
            stored_rows += seg.rows
            if seg.kind == KIND_COLD:
                cold += seg.size_bytes
            else:
                warm += seg.size_bytes
        hot_bytes = self.hot.size_bytes()
        registry.gauge("storage_hot_bytes", store=store).set(hot_bytes)
        registry.gauge("storage_warm_bytes", store=store).set(warm)
        registry.gauge("storage_cold_bytes", store=store).set(cold)
        registry.gauge("storage_segments", store=store).set(
            len(self.segments))
        registry.gauge("storage_hot_budget_occupancy", store=store).set(
            hot_bytes / self.hot_budget_bytes if self.hot_budget_bytes else 0.0)
        # Compaction debt: stored rows superseded by newer versions —
        # what a full compaction pass would reclaim.
        registry.gauge("storage_compaction_debt_rows", store=store).set(
            stored_rows + len(self.hot) - len(self._seen))

    def stats(self) -> dict:
        with self._lock:
            tiers = {"warm": 0, "cold": 0}
            for seg in self.segments:
                tier = "cold" if seg.kind == KIND_COLD else "warm"
                tiers[tier] += seg.size_bytes
            return {
                "directory": str(self.directory),
                "k": self.k, "track_log": self.track_log,
                "dimensions": list(self.dimensions),
                "keys": len(self._seen),
                "hot_rows": len(self.hot),
                "hot_bytes": self.hot.size_bytes(),
                "hot_budget_bytes": self.hot_budget_bytes,
                "segments": [{"name": seg.path.name,
                              "kind": "cold" if seg.kind == KIND_COLD
                              else "warm",
                              "rows": seg.rows, "bytes": seg.size_bytes}
                             for seg in self.segments],
                "warm_bytes": tiers["warm"], "cold_bytes": tiers["cold"],
                "epoch": self.epoch, **self.stats_counters,
            }

    def close(self, seal: bool = True) -> None:
        """Seal any hot rows (unless told not to) and drop the mappings."""
        with self._lock:
            if seal:
                self.seal()
            for seg in self.segments:
                seg.close()
            self.segments = []
            self._index.clear()

    def __enter__(self) -> "TieredStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        with self._lock:
            return (f"TieredStore({str(self.directory)!r}, keys={len(self)}, "
                    f"segments={len(self.segments)}, hot={len(self.hot)})")
