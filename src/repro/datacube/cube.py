"""Pre-aggregated data cube of mergeable summaries (Figure 1, Section 3.3).

A :class:`DataCube` keeps one summary per distinct tuple of dimension
values, exactly like the Druid-style deployment the paper targets: given a
metric column and ``d`` dimension columns, ingestion groups rows by their
d-tuple and accumulates each group into its own summary.  Roll-up queries
then *merge* the summaries of every cell matching a filter — no raw data is
touched, and query cost is ``t_merge * n_merge + t_est`` (Eq. 2).
Quantile and group queries run through :class:`~repro.api.QueryService`
(``QueryService(cube=cube)``); the cube itself only ingests and rolls up.

The cube is engine-agnostic: any :class:`~repro.summaries.base.QuantileSummary`
factory works, which is how the benchmarks compare summary types under
identical aggregation plans.

Backends
--------
Two cell-storage backends drive the same query API:

* ``dict`` — one summary object per cell, merged in a Python loop.  Works
  for every summary type.
* ``packed`` — moments-sketch cells live as rows of one
  :class:`~repro.store.PackedSketchStore`, so a roll-up over ``n_merge``
  matching cells is a single vectorized reduction instead of ``n_merge``
  interpreter round trips (the Eq. 2 merge term at hardware speed).  Only
  available when the factory produces
  :class:`~repro.summaries.moments_summary.MomentsSummary`.

The default ``backend="auto"`` picks ``packed`` for moments summaries and
``dict`` otherwise.  Both backends expose ``cells`` as a mapping from cell
key to summary and produce bit-for-bit identical merge results (the packed
reduction is a strict left fold in cell insertion order).
"""

from __future__ import annotations

import time
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..core.errors import QueryError
from ..core.grouping import lexsort_groups
from ..core.sketch import MomentsSketch
from ..store import PackedSketchStore
from ..summaries.base import QuantileSummary
from ..summaries.moments_summary import MomentsSummary

#: A cube cell key: one value per dimension, in schema order.
CellKey = tuple


@dataclass(frozen=True)
class CubeSchema:
    """Dimension names (categorical) for a cube; the metric is implicit."""

    dimensions: tuple[str, ...]

    def __post_init__(self):
        if not self.dimensions:
            raise QueryError("a cube needs at least one dimension")
        if len(set(self.dimensions)) != len(self.dimensions):
            raise QueryError("duplicate dimension names")

    def index_of(self, dimension: str) -> int:
        try:
            return self.dimensions.index(dimension)
        except ValueError:
            raise QueryError(
                f"unknown dimension {dimension!r}; have {self.dimensions}") from None


class _PackedCellView(MappingABC):
    """Read-only mapping view over a packed cube's cells.

    Materializes an independent :class:`MomentsSummary` copy per access:
    unlike the dict backend, mutating a returned summary never updates
    the cube (the packed store is only written through ``ingest`` /
    ``insert_cell``), and copies stay valid across store growth.
    """

    def __init__(self, cube: "DataCube"):
        self._cube = cube

    def __getitem__(self, key: CellKey) -> QuantileSummary:
        return self._cube._summary_view(self._cube._rows[key])

    def __iter__(self):
        return iter(self._cube._rows)

    def __len__(self) -> int:
        return len(self._cube._rows)


class DataCube:
    """Summary-per-cell data cube with mergeable roll-ups."""

    def __init__(self, schema: CubeSchema,
                 summary_factory: Callable[[], QuantileSummary],
                 backend: str = "auto"):
        if backend not in ("auto", "dict", "packed"):
            raise QueryError(
                f"unknown backend {backend!r}; use 'auto', 'dict', or 'packed'")
        self.schema = schema
        self.summary_factory = summary_factory
        template = summary_factory()
        if backend == "packed" and not isinstance(template, MomentsSummary):
            raise QueryError(
                "packed backend requires a MomentsSummary factory, got "
                f"{type(template).__name__}")
        self._packed = (backend == "packed" or
                        (backend == "auto" and isinstance(template, MomentsSummary)))
        self.cells: Mapping[CellKey, QuantileSummary]
        if self._packed:
            self._template = template
            self._store = PackedSketchStore(k=template.sketch.k,
                                            track_log=template.sketch.track_log)
            self._rows: dict[CellKey, int] = {}
            self.cells = _PackedCellView(self)
        else:
            self.cells = {}

    @property
    def backend(self) -> str:
        """The active cell-storage backend ('dict' or 'packed')."""
        return "packed" if self._packed else "dict"

    @property
    def store(self) -> PackedSketchStore | None:
        """The packed backing store (None on the dict backend)."""
        return self._store if self._packed else None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(self, dimension_columns: Sequence[np.ndarray],
               values: np.ndarray) -> None:
        """Group rows by dimension tuple and accumulate per-cell summaries.

        Thin shim over the unified ingestion API (:mod:`repro.ingest`):
        the batch is validated and written through
        :class:`~repro.ingest.CubeWriteBackend` in a single flush, so
        results are bit-for-bit what this entry point always produced.
        Use an :class:`~repro.ingest.IngestSession` directly for
        buffered micro-batched writes and per-flush reports.
        """
        from ..ingest import write_columns
        write_columns(self, values, dims=dimension_columns)

    def _ingest_columns(self, dimension_columns: Sequence[np.ndarray],
                        values: np.ndarray) -> int:
        """One-batch roll-up kernel; returns the distinct cells touched.

        ``dimension_columns`` holds one array per schema dimension, aligned
        with ``values``.  Grouping is vectorized (lexicographic sort +
        boundary detection), so ingestion is a single pass; on the packed
        backend the per-cell accumulation itself is one shared Vandermonde
        pass via :meth:`PackedSketchStore.batch_accumulate`.
        """
        values = np.asarray(values, dtype=float)
        order, sorted_cols, _, starts, ends = \
            lexsort_groups(dimension_columns)
        sorted_values = values[order]
        if self._packed:
            group_rows = np.empty(starts.size, dtype=np.intp)
            for i, start in enumerate(starts):
                key = tuple(col[start] for col in sorted_cols)
                row = self._rows.get(key)
                if row is None:
                    row = self._store.new_row()
                    self._rows[key] = row
                group_rows[i] = row
            sizes = ends - starts
            # Slab the accumulation at group boundaries so the transient
            # Vandermonde matrix stays bounded (~slab values, or one
            # group if a single group exceeds it) while each cell still
            # receives its whole batch in one call — keeping results
            # bit-for-bit equal to the dict backend's per-cell accumulate.
            slab = 500_000
            span_start = 0
            pending = 0
            for i in range(starts.size):
                pending += sizes[i]
                if pending >= slab or i == starts.size - 1:
                    self._store.batch_accumulate(
                        np.repeat(group_rows[span_start:i + 1],
                                  sizes[span_start:i + 1]),
                        sorted_values[starts[span_start]:ends[i]])
                    span_start = i + 1
                    pending = 0
            return int(starts.size)
        for start, end in zip(starts, ends):
            key = tuple(col[start] for col in sorted_cols)
            cell = self.cells.get(key)
            if cell is None:
                cell = self.summary_factory()
                self.cells[key] = cell
            cell.accumulate(sorted_values[start:end])
        return int(starts.size)

    def insert_cell(self, key: CellKey, summary: QuantileSummary) -> None:
        """Install a pre-built summary (merging if the cell exists)."""
        key = tuple(key)
        if len(key) != len(self.schema.dimensions):
            raise QueryError("cell key arity mismatch")
        if self._packed:
            if not isinstance(summary, MomentsSummary):
                raise QueryError(
                    "packed cube cells must be MomentsSummary, got "
                    f"{type(summary).__name__}")
            row = self._rows.get(key)
            if row is None:
                self._rows[key] = self._store.append(summary.sketch)
            else:
                self._store.merge_into_row(row, summary.sketch)
            return
        existing = self.cells.get(key)
        if existing is None:
            self.cells[key] = summary
        else:
            existing.merge(summary)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def matching_cells(self, filters: Mapping[str, object] | None = None
                       ) -> Iterable[tuple[CellKey, QuantileSummary]]:
        """Cells whose key matches every (dimension == value) filter."""
        if not filters:
            yield from self.cells.items()
            return
        positions = {self.schema.index_of(dim): value
                     for dim, value in filters.items()}
        for key, summary in self.cells.items():
            if all(key[pos] == value for pos, value in positions.items()):
                yield key, summary

    def _matching_rows(self, filters: Mapping[str, object] | None
                       ) -> np.ndarray:
        """Packed-backend row indices matching a filter, insertion order."""
        if not filters:
            rows: Iterable[int] = self._rows.values()
        else:
            positions = {self.schema.index_of(dim): value
                         for dim, value in filters.items()}
            rows = (row for key, row in self._rows.items()
                    if all(key[pos] == value for pos, value in positions.items()))
        return np.fromiter(rows, dtype=np.intp)

    def rollup(self, filters: Mapping[str, object] | None = None) -> QuantileSummary:
        """Merge every matching cell into a fresh aggregate (Figure 1).

        This is the hot path the paper optimizes: on the dict backend one
        ``merge`` per matching cell; on the packed backend a single
        vectorized reduction over the matching store rows.
        """
        return self.rollup_profiled(filters)[0]

    def rollup_profiled(self, filters: Mapping[str, object] | None = None
                        ) -> tuple[QuantileSummary, dict]:
        """:meth:`rollup` plus its execution profile, for the unified API.

        Returns ``(aggregate, profile)`` where ``profile`` carries
        ``cells_scanned``, ``merge_calls`` (vectorized reductions on the
        packed backend, pairwise merges on dict), ``planner_seconds``
        (cell matching), ``merge_seconds``, and ``route``.
        """
        start = time.perf_counter()
        if self._packed:
            rows = self._matching_rows(filters)
            planner = time.perf_counter() - start
            if rows.size == 0:
                raise QueryError(f"no cells match filter {dict(filters or {})}")
            start = time.perf_counter()
            merged = self._store.batch_merge(rows)
            merge_seconds = time.perf_counter() - start
            return self._wrap(merged), {
                "cells_scanned": int(rows.size), "merge_calls": 1,
                "planner_seconds": planner, "merge_seconds": merge_seconds,
                "route": "packed"}
        matching = [summary for _, summary in self.matching_cells(filters)]
        planner = time.perf_counter() - start
        if not matching:
            raise QueryError(f"no cells match filter {dict(filters or {})}")
        start = time.perf_counter()
        aggregate = matching[0].copy()
        for summary in matching[1:]:
            aggregate.merge(summary)
        merge_seconds = time.perf_counter() - start
        return aggregate, {
            "cells_scanned": len(matching),
            "merge_calls": len(matching) - 1, "planner_seconds": planner,
            "merge_seconds": merge_seconds, "route": "loop"}

    def _group_summaries(self, dimension: str,
                         filters: Mapping[str, object] | None = None,
                         profile: dict | None = None
                         ) -> dict[object, QuantileSummary]:
        """Backend primitive behind grouped queries: one merged summary
        per distinct value of ``dimension`` (the packed backend performs
        one vectorized reduction per group).  Reach it through
        :meth:`repro.api.CubeBackend.group_rollup`.

        ``profile``, when given, receives ``locate_seconds`` (row/group
        selection — planner work) and ``merge_seconds`` (the group-wise
        reduction) so callers can split phase accounting.
        """
        position = self.schema.index_of(dimension)
        if self._packed:
            start = time.perf_counter()
            rows: list[int] = []
            group_keys: list[object] = []
            for key, row in self._iter_matching_items(filters):
                rows.append(row)
                group_keys.append(key[position])
            locate_seconds = time.perf_counter() - start
            if not rows:
                raise QueryError(f"no cells match filter {dict(filters or {})}")
            start = time.perf_counter()
            merged = self._store.batch_merge_by(rows, group_keys)
            out = {value: self._wrap(sketch)
                   for value, sketch in merged.items()}
            if profile is not None:
                profile["locate_seconds"] = locate_seconds
                profile["merge_seconds"] = time.perf_counter() - start
            return out
        start = time.perf_counter()
        groups: dict[object, QuantileSummary] = {}
        for key, summary in self.matching_cells(filters):
            value = key[position]
            existing = groups.get(value)
            if existing is None:
                groups[value] = summary.copy()
            else:
                existing.merge(summary)
        if not groups:
            raise QueryError(f"no cells match filter {dict(filters or {})}")
        if profile is not None:
            # The object-summary loop fuses selection and merging; report
            # it all as merge work.
            profile["locate_seconds"] = 0.0
            profile["merge_seconds"] = time.perf_counter() - start
        return groups

    # ------------------------------------------------------------------
    # Packed-backend internals
    # ------------------------------------------------------------------

    def _iter_matching_items(self, filters: Mapping[str, object] | None
                             ) -> Iterable[tuple[CellKey, int]]:
        if not filters:
            yield from self._rows.items()
            return
        positions = {self.schema.index_of(dim): value
                     for dim, value in filters.items()}
        for key, row in self._rows.items():
            if all(key[pos] == value for pos, value in positions.items()):
                yield key, row

    def _wrap(self, sketch: MomentsSketch) -> MomentsSummary:
        out = MomentsSummary(k=sketch.k, track_log=sketch.track_log,
                             config=self._template.config)
        out.sketch = sketch
        return out

    def _summary_view(self, row: int) -> MomentsSummary:
        # A copy, not a zero-copy view: a view would write through to the
        # store on mutation (corrupting counts vs power sums) and detach
        # whenever growth reallocates the buffers.
        return self._wrap(self._store.sketch_at(row, copy=True))
