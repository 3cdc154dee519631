"""A self-contained Druid-like analytics engine (Section 7.1).

Implements the subset of Druid's architecture the paper's end-to-end
benchmark exercises:

* **Ingestion** rolls raw (timestamp, dimensions, value) rows up at a
  configurable time granularity: rows in the same time bucket with the
  same dimension tuple collapse into one pre-aggregated cube cell holding
  an aggregator state per configured aggregator (Druid "roll-up").
* **Segments** partition cells by time chunk and are scanned independently.
* The **broker** primitives scan matching cells and merge their states
  (optionally across a small processing-thread pool — the paper's
  quickstart config uses 2).  Queries reach them through
  :class:`~repro.api.QueryService` (``QueryService(druid=engine)``),
  whose :class:`~repro.api.DruidBackend` adapter finalizes once.

The moments sketch and S-Hist enter through the aggregator plug-in API in
:mod:`.aggregators`, so the comparison of Figure 11 runs the same plan for
every aggregator and differs only in merge/finalize cost.

Moments-sketch aggregators are *packed* by default
(``packed_moments=True``): each segment stores their per-cell states as
rows of one :class:`~repro.store.PackedSketchStore` instead of individual
state objects, and the broker merges a segment's matching rows with a
single vectorized reduction (then folds the per-segment partials).  This
is the columnar layout a real Druid historical keeps per segment, and it
removes the per-merge interpreter overhead from the Eq. 2 merge term.
Each segment's reduction is bit-for-bit identical to merging its cells
sequentially; folding the per-segment partials associates the adds
differently than one flat loop over all cells (just like the
thread-pool shard fold does), so cross-segment aggregates can differ
from the object layout at the last-ulp level.  Pass
``packed_moments=False`` to benchmark the object-per-cell layout.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core.errors import QueryError
from ..core.grouping import lexsort_groups
from ..core.sketch import MomentsSketch
from ..store import PackedSketchStore
from .aggregators import (AggregatorFactory, AggregatorState,
                          MomentsSketchAggregator, SummaryState)


@dataclass
class Segment:
    """One time chunk: cube cells keyed by dimension tuple.

    ``cells`` holds the object-per-cell aggregator states; packed
    moments aggregators instead keep one :class:`PackedSketchStore` per
    aggregator name in ``packed``, with ``packed_rows`` mapping each cell
    key to its store row.  Every cell key appears in ``cells`` even when
    all its aggregators are packed, so scans and ``num_cells`` are
    layout-agnostic.
    """

    chunk: int
    cells: dict[tuple, dict[str, AggregatorState]] = field(default_factory=dict)
    packed: dict[str, PackedSketchStore] = field(default_factory=dict)
    packed_rows: dict[str, dict[tuple, int]] = field(default_factory=dict)

    @property
    def num_cells(self) -> int:
        return len(self.cells)


class DruidEngine:
    """Minimal Druid: ingestion, segments, and a broker with a thread pool."""

    def __init__(self, dimensions: Sequence[str],
                 aggregators: Mapping[str, AggregatorFactory],
                 granularity: float = 3600.0,
                 processing_threads: int = 2,
                 packed_moments: bool = True):
        if not dimensions:
            raise QueryError("need at least one dimension")
        self.dimensions = tuple(dimensions)
        self.aggregators = dict(aggregators)
        self.granularity = float(granularity)
        self.processing_threads = max(int(processing_threads), 1)
        self.packed_moments = bool(packed_moments)
        self._packed_names = frozenset(
            name for name, factory in self.aggregators.items()
            if packed_moments and isinstance(factory, MomentsSketchAggregator))
        self.segments: dict[int, Segment] = {}

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(self, timestamps: np.ndarray,
               dimension_columns: Sequence[np.ndarray],
               values: np.ndarray) -> None:
        """Roll up rows into per-(chunk, dimension-tuple) aggregator states.

        Thin shim over the unified ingestion API (:mod:`repro.ingest`):
        the batch is validated (dimension arity *and* aligned column
        lengths, raising :class:`~repro.core.errors.IngestError`) and
        written through :class:`~repro.ingest.DruidWriteBackend` in a
        single flush, bit-for-bit identical to the historical entry
        point.  Use an :class:`~repro.ingest.IngestSession` for buffered
        micro-batched writes.
        """
        from ..ingest import write_columns
        write_columns(self, values, dims=dimension_columns,
                      timestamps=timestamps)

    def _rollup_rows(self, timestamps: np.ndarray,
                     dimension_columns: Sequence[np.ndarray],
                     values: np.ndarray) -> int:
        """One-batch roll-up kernel; returns the (chunk, key) groups hit."""
        timestamps = np.asarray(timestamps, dtype=float)
        values = np.asarray(values, dtype=float)
        chunks = np.floor(timestamps / self.granularity).astype(int)
        order, columns, chunks, starts, ends = \
            lexsort_groups(dimension_columns, primary=chunks)
        values = values[order]
        for start, end in zip(starts, ends):
            chunk = int(chunks[start])
            key = tuple(col[start] for col in columns)
            segment = self.segments.setdefault(chunk, Segment(chunk=chunk))
            cell = segment.cells.get(key)
            if cell is None:
                cell = {name: factory.create()
                        for name, factory in self.aggregators.items()
                        if name not in self._packed_names}
                segment.cells[key] = cell
            batch = values[start:end]
            for state in cell.values():
                state.aggregate(batch)
            for name in self._packed_names:
                store = segment.packed.get(name)
                if store is None:
                    factory = self.aggregators[name]
                    assert isinstance(factory, MomentsSketchAggregator)
                    store = PackedSketchStore(k=factory.k)
                    segment.packed[name] = store
                    segment.packed_rows[name] = {}
                rows = segment.packed_rows[name]
                row = rows.get(key)
                if row is None:
                    row = store.new_row()
                    rows[key] = row
                store.accumulate_row(row, batch)
        return int(starts.size)

    @property
    def num_cells(self) -> int:
        return sum(segment.num_cells for segment in self.segments.values())

    # ------------------------------------------------------------------
    # Broker
    # ------------------------------------------------------------------

    def _filter_positions(self, filters: Mapping[str, object] | None
                          ) -> dict[int, object]:
        positions: dict[int, object] = {}
        if filters:
            for dim, value in filters.items():
                if dim not in self.dimensions:
                    raise QueryError(f"unknown dimension {dim!r}")
                positions[self.dimensions.index(dim)] = value
        return positions

    def _scanned_segments(self, interval: tuple[float, float] | None
                          ) -> list[Segment]:
        if interval is None:
            return list(self.segments.values())
        lo = int(np.floor(interval[0] / self.granularity))
        hi = int(np.floor(interval[1] / self.granularity))
        return [segment for chunk, segment in self.segments.items()
                if lo <= chunk <= hi]

    def _check_aggregator(self, aggregator: str) -> None:
        if aggregator not in self.aggregators:
            raise QueryError(f"unknown aggregator {aggregator!r}; "
                             f"registered: {sorted(self.aggregators)}")

    def _matching_states(self, aggregator: str,
                         filters: Mapping[str, object] | None,
                         interval: tuple[float, float] | None
                         ) -> list[AggregatorState]:
        self._check_aggregator(aggregator)
        positions = self._filter_positions(filters)
        states = []
        for segment in self._scanned_segments(interval):
            for key, cell in segment.cells.items():
                if all(key[pos] == value for pos, value in positions.items()):
                    states.append(cell[aggregator])
        return states

    def _matching_packed_rows(self, aggregator: str,
                              filters: Mapping[str, object] | None,
                              interval: tuple[float, float] | None
                              ) -> list[tuple[PackedSketchStore, np.ndarray]]:
        """Per-segment (store, matching row indices) pairs for a scan."""
        self._check_aggregator(aggregator)
        positions = self._filter_positions(filters)
        refs = []
        for segment in self._scanned_segments(interval):
            store = segment.packed.get(aggregator)
            if store is None:
                continue
            rows = segment.packed_rows[aggregator]
            if positions:
                matching = np.fromiter(
                    (row for key, row in rows.items()
                     if all(key[pos] == value
                            for pos, value in positions.items())),
                    dtype=np.intp)
            else:
                matching = np.fromiter(rows.values(), dtype=np.intp)
            if matching.size:
                refs.append((store, matching))
        return refs

    @staticmethod
    def fold_packed_refs(refs: list[tuple[PackedSketchStore, np.ndarray]]
                         ) -> MomentsSketch | None:
        """Left-fold per-segment packed reductions (``None`` if empty).

        The one fold order shared by the broker adapter and the cluster
        layer's per-shard partials: each segment's rows reduce with one
        vectorized ``batch_merge`` and the per-segment partials merge
        sequentially in ``refs`` order.  Bit-exactness guarantees across
        those layers depend on both using exactly this fold.
        """
        if not refs:
            return None
        sketch = refs[0][0].batch_merge(refs[0][1])
        for store, rows in refs[1:]:
            sketch.merge(store.batch_merge(rows))
        return sketch

    def _wrap_packed(self, aggregator: str, sketch: MomentsSketch
                     ) -> AggregatorState:
        """Wrap a merged sketch in the aggregator's state type."""
        state = self.aggregators[aggregator].create()
        assert isinstance(state, SummaryState)
        state.summary.sketch = sketch
        return state

    def _merge_states(self, states: list[AggregatorState]) -> AggregatorState:
        def fold(shard: list[AggregatorState]) -> AggregatorState:
            aggregate = shard[0].copy()
            for state in shard[1:]:
                aggregate.merge(state)
            return aggregate

        if self.processing_threads == 1 or len(states) < 2 * self.processing_threads:
            return fold(states)
        shard_size = (len(states) + self.processing_threads - 1) // self.processing_threads
        shards = [states[i:i + shard_size]
                  for i in range(0, len(states), shard_size)]
        with ThreadPoolExecutor(max_workers=self.processing_threads) as pool:
            partials = list(pool.map(fold, shards))
        return fold(partials)

    def group_states(self, aggregator: str, dimension: str,
                     filters: Mapping[str, object] | None = None,
                     profile: dict | None = None
                     ) -> dict[object, AggregatorState]:
        """Merged aggregator state per distinct value of ``dimension``.

        The shared machinery behind groupBy and topN.  Packed moments
        aggregators merge each segment's rows group-wise with vectorized
        reductions and fold the per-segment partial sketches.

        ``profile``, when given, receives ``locate_seconds`` (row/group
        selection — planner work) and ``merge_seconds`` (the group-wise
        reductions) so callers can split phase accounting.
        """
        self._check_aggregator(aggregator)
        if dimension not in self.dimensions:
            raise QueryError(f"unknown dimension {dimension!r}")
        position = self.dimensions.index(dimension)
        positions = self._filter_positions(filters)
        if aggregator in self._packed_names:
            locate_seconds = merge_seconds = 0.0
            sketches: dict[object, MomentsSketch] = {}
            for segment in self.segments.values():
                store = segment.packed.get(aggregator)
                if store is None:
                    continue
                start = time.perf_counter()
                rows: list[int] = []
                group_keys: list[object] = []
                for key, row in segment.packed_rows[aggregator].items():
                    if not all(key[pos] == value
                               for pos, value in positions.items()):
                        continue
                    rows.append(row)
                    group_keys.append(key[position])
                locate_seconds += time.perf_counter() - start
                if not rows:
                    continue
                start = time.perf_counter()
                for value, sketch in store.batch_merge_by(
                        rows, group_keys).items():
                    existing = sketches.get(value)
                    if existing is None:
                        sketches[value] = sketch
                    else:
                        existing.merge(sketch)
                merge_seconds += time.perf_counter() - start
            if profile is not None:
                profile["locate_seconds"] = locate_seconds
                profile["merge_seconds"] = merge_seconds
            return {value: self._wrap_packed(aggregator, sketch)
                    for value, sketch in sketches.items()}
        start = time.perf_counter()
        groups: dict[object, AggregatorState] = {}
        for segment in self.segments.values():
            for key, cell in segment.cells.items():
                if not all(key[pos] == value
                           for pos, value in positions.items()):
                    continue
                value = key[position]
                if value in groups:
                    groups[value].merge(cell[aggregator])
                else:
                    groups[value] = cell[aggregator].copy()
        if profile is not None:
            # The object-state loop fuses selection and merging; report
            # it all as merge work.
            profile["locate_seconds"] = 0.0
            profile["merge_seconds"] = time.perf_counter() - start
        return groups
