"""A self-contained Druid-like analytics engine (Section 7.1).

Implements the subset of Druid's architecture the paper's end-to-end
benchmark exercises:

* **Ingestion** rolls raw (timestamp, dimensions, value) rows up at a
  configurable time granularity: rows in the same time bucket with the
  same dimension tuple collapse into one pre-aggregated cube cell holding
  an aggregator state per configured aggregator (Druid "roll-up").
* **Segments** partition cells by time chunk and are scanned independently.
* The **broker** primitives locate the matching cells and fold their
  states left to right.  Queries reach them through
  :class:`~repro.api.QueryService` (``QueryService(druid=engine)``),
  whose :class:`~repro.api.DruidBackend` adapter finalizes once.

The moments sketch and S-Hist enter through the aggregator plug-in API in
:mod:`.aggregators`, so the comparison of Figure 11 runs the same plan for
every aggregator and differs only in merge/finalize cost.

Moments-sketch aggregators are *packed* by default
(``packed_moments=True``): each segment stores their per-cell states as
rows of one :class:`~repro.store.PackedSketchStore` instead of individual
state objects.  This is the columnar layout a real Druid historical
keeps per segment, and it removes the per-merge interpreter overhead
from the Eq. 2 merge term.  A write lands each chunk's groups in that
chunk's store with one keyed accumulate
(:func:`~repro.core.grouping.accumulate_groups`).  A time-range roll-up
(:meth:`DruidEngine.packed_rollup`) locates each scanned segment's
matching rows, one key lookup when the filter names every dimension,
and folds all segments' partials in one stacked reduction, bit for bit
the left fold of one ``batch_merge`` sketch per segment.  That fold
associates the adds per segment, unlike one flat loop over all cells,
so cross-segment aggregates can differ from the object layout at the
last-ulp level.
Pass ``packed_moments=False`` to benchmark the object-per-cell layout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core.errors import QueryError
from ..core.grouping import (accumulate_groups, filter_positions,
                              first_seen_rows, group_keys, label_runs,
                              lexsort_groups, matching_items)
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


@dataclass
class PackedRollup:
    """One :meth:`DruidEngine.packed_rollup`: the merged state, the cells
    and segments it folded, and its locate and fold times."""

    state: AggregatorState
    cells_scanned: int
    segments: int
    locate_seconds: float
    merge_seconds: float


class DruidEngine:
    """Minimal Druid: ingestion, segments, and a broker."""

    def __init__(self, dimensions: Sequence[str],
                 aggregators: Mapping[str, AggregatorFactory],
                 granularity: float = 3600.0,
                 packed_moments: bool = True):
        if not dimensions:
            raise QueryError("need at least one dimension")
        self.dimensions = tuple(dimensions)
        self.aggregators = dict(aggregators)
        self.granularity = float(granularity)
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
        """One-batch roll-up kernel; returns the (chunk, key) groups hit.

        Groups sort by chunk first, so each chunk's groups are one run:
        object states aggregate per cell, and each packed store takes
        the run in one keyed accumulate.
        """
        timestamps = np.asarray(timestamps, dtype=float)
        values = np.asarray(values, dtype=float)
        chunks = np.floor(timestamps / self.granularity).astype(int)
        order, columns, chunks, starts, ends = \
            lexsort_groups(dimension_columns, primary=chunks)
        if not starts.size:
            return 0
        values = values[order]
        keys = group_keys(columns, starts)
        group_chunks = chunks[starts]
        for lo, hi in label_runs(group_chunks):
            chunk = int(group_chunks[lo])
            segment = self.segments.setdefault(chunk, Segment(chunk=chunk))
            for key, start, end in zip(keys[lo:hi], starts[lo:hi],
                                       ends[lo:hi]):
                cell = segment.cells.get(key)
                if cell is None:
                    cell = {name: factory.create()
                            for name, factory in self.aggregators.items()
                            if name not in self._packed_names}
                    segment.cells[key] = cell
                for state in cell.values():
                    state.aggregate(values[start:end])
            for name in self._packed_names:
                store = segment.packed.get(name)
                if store is None:
                    factory = self.aggregators[name]
                    assert isinstance(factory, MomentsSketchAggregator)
                    store = segment.packed[name] = PackedSketchStore(k=factory.k)
                    segment.packed_rows[name] = {}
                accumulate_groups(
                    store, first_seen_rows(store, segment.packed_rows[name]),
                    keys[lo:hi], values, starts[lo:hi], ends[lo:hi])
        return int(starts.size)

    @property
    def num_cells(self) -> int:
        return sum(segment.num_cells for segment in self.segments.values())

    # ------------------------------------------------------------------
    # Broker
    # ------------------------------------------------------------------

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
        positions = filter_positions(self.dimensions, filters)
        ndims = len(self.dimensions)
        return [cell[aggregator]
                for segment in self._scanned_segments(interval)
                for _, cell in matching_items(segment.cells, positions,
                                              ndims)]

    def packed_rollup(self, aggregator: str,
                      filters: Mapping[str, object] | None,
                      interval: tuple[float, float] | None
                      ) -> PackedRollup | None:
        """Roll a packed aggregator's matching cells up in one reduction.

        The one fold shared by the broker adapter and the cluster layer's
        per-shard partials; bit-exactness across those layers depends on
        both using it.  ``None`` when no cell matches.

        * **Locate** walks the scanned segments in insertion order and
          picks each one's matching rows: one ``packed_rows`` lookup when
          ``filters`` name every dimension, a key scan for a partial
          filter, all live rows without one.
        * **Fold** is the left fold of one partial per segment, the
          segment's :meth:`PackedSketchStore.batch_merge`.  Every partial
          but the last adds in one stacked reduction
          (:meth:`PackedSketchStore.merge_selections`); the last one's
          ``batch_merge`` sketch then merges in with
          :meth:`MomentsSketch.merge`.  The result is bit for bit the
          per-segment ``batch_merge``/``merge`` loop, including
          ``merge``'s log rule.
        """
        start = time.perf_counter()
        self._check_aggregator(aggregator)
        positions = filter_positions(self.dimensions, filters)
        ndims = len(self.dimensions)
        picks: list[tuple[PackedSketchStore, object]] = []
        scanned = 0
        for segment in self._scanned_segments(interval):
            store = segment.packed.get(aggregator)
            if store is None:
                continue
            if positions:
                matching = matching_items(segment.packed_rows[aggregator],
                                          positions, ndims)
                n = len(matching)
                if n == 0:
                    continue
                sel = (matching[0][1] if n == 1
                       else np.array([row for _, row in matching],
                                     dtype=np.intp))
            else:
                n = store.size
                if n == 0:
                    continue
                sel = None
            picks.append((store, sel))
            scanned += n
        locate_seconds = time.perf_counter() - start
        if not picks:
            return None
        start = time.perf_counter()
        # The last partial goes through batch_merge and merge, so range
        # roll-ups still reach the store.merge and core.sketch_merge
        # spans that bench/tests/test_bench_runs.py expects of them.
        *head, (store, sel) = picks
        last = store.batch_merge(sel)
        if head:
            sketch = PackedSketchStore.merge_selections(head)
            sketch.merge(last)
        else:
            sketch = last
        state = self._wrap_packed(aggregator, sketch)
        return PackedRollup(state=state, cells_scanned=scanned,
                            segments=len(picks),
                            locate_seconds=locate_seconds,
                            merge_seconds=time.perf_counter() - start)

    def _wrap_packed(self, aggregator: str, sketch: MomentsSketch
                     ) -> AggregatorState:
        """Wrap a merged sketch in the aggregator's state type."""
        state = self.aggregators[aggregator].create()
        assert isinstance(state, SummaryState)
        state.summary.sketch = sketch
        return state

    def _merge_states(self, states: list[AggregatorState]) -> AggregatorState:
        """Fold object states left to right into a copy of the first."""
        aggregate = states[0].copy()
        for state in states[1:]:
            aggregate.merge(state)
        return aggregate

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
        positions = filter_positions(self.dimensions, filters)
        ndims = len(self.dimensions)
        if aggregator in self._packed_names:
            locate_seconds = merge_seconds = 0.0
            sketches: dict[object, MomentsSketch] = {}
            for segment in self.segments.values():
                store = segment.packed.get(aggregator)
                if store is None:
                    continue
                start = time.perf_counter()
                matching = matching_items(segment.packed_rows[aggregator],
                                          positions, ndims)
                rows = [row for _, row in matching]
                group_values = [key[position] for key, _ in matching]
                locate_seconds += time.perf_counter() - start
                if not rows:
                    continue
                start = time.perf_counter()
                for value, sketch in store.batch_merge_by(
                        rows, group_values).items():
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
            for key, cell in matching_items(segment.cells, positions, ndims):
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
