"""Columnar packed storage for homogeneous moments sketches.

The paper's cost model for a pre-aggregated quantile query is
``t_query = t_merge * n_merge + t_est`` (Eq. 2): a roll-up touches
``n_merge`` cells, merges their summaries, and estimates once.  The
moments sketch wins that race because one merge is a handful of float
adds — but only if those adds run at hardware speed.  Keeping every cell
as its own :class:`~repro.core.sketch.MomentsSketch` forces each merge
through Python attribute lookups and tiny ``(k+1)``-element numpy adds,
so a million-cell roll-up pays a million interpreter round trips.

:class:`PackedSketchStore` removes that bottleneck by packing N
homogeneous sketches (same order ``k``, same ``track_log``) into
structure-of-arrays buffers::

    counts[N]            float64   row counts (duplicated in power_sums[:, 0])
    mins[N], maxs[N]     float64   per-row extrema
    power_sums[N, k+1]   float64   sum(x**i) per row, index 0 = count
    log_sums[N, k+1]     float64   sum(log(x)**i) per row (track_log stores)
    log_valid[N]         bool      per-row log-moment validity

so that

* :meth:`batch_merge` over any row subset is a single ``np.add.reduce``
  along axis 0 plus one min/max reduction — and, because numpy's axis-0
  reduction over a C-contiguous matrix accumulates rows in order, the
  result is *bit-for-bit* identical to the sequential
  :func:`~repro.core.sketch.merge_all` fold over the same sketches;
* :meth:`merge_selections` folds row subsets of many stores (a Druid
  time range's segments) the same way, as one stacked reduction over
  their per-store partials;
* :meth:`batch_accumulate` ingests (row, value) pairs with one shared
  Vandermonde matrix and segmented ``np.add.reduceat`` reductions;
* :meth:`to_bytes` / :meth:`from_bytes` serialize the whole store as one
  header plus one contiguous little-endian payload, instead of N framed
  blobs;
* :meth:`sketch_at` round-trips individual rows to
  :class:`~repro.core.sketch.MomentsSketch` objects, zero-copy when
  ``copy=False`` (the sketch's arrays are views into the store).

Use the packed store when many sketches are merged *together* (data-cube
roll-ups, Druid broker merges, window re-merges); keep individual
sketches for one-off aggregation.  The measured crossover on this
implementation is a few dozen merges — see
``benchmarks/bench_batch_merge.py``.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np

from ..core.errors import EmptySketchError, IncompatibleSketchError, SketchError
from ..core.sketch import (ColumnarMoments, DEFAULT_ORDER, MAX_ORDER,
                           MomentsSketch)

#: Bulk wire format: magic, order k, flags, padding, row count (uint64).
_HEADER = struct.Struct("<4sBBxxQ")
_MAGIC = b"PSS1"

#: Initial capacity for stores created without an explicit one.
_MIN_CAPACITY = 8

#: Largest group :meth:`PackedSketchStore.batch_merge_groups` folds with
#: the other small groups instead of on its own.  Per row, ``np.add.at``
#: and one ``add.reduce`` per group cost the same at about 16 rows a
#: group (2-vCPU x86, k = 10, both columns).
_FOLD_TOGETHER = 16


def _fold(blocks: Sequence[np.ndarray], one_row: bool) -> np.ndarray:
    """Sequential sum of each block's rows, then of the block sums.

    Both levels are axis-0 ``add.reduce`` over C-contiguous matrices,
    which numpy runs as a left fold, row by row.  ``one_row`` says every
    block is one row, so the rows are the block sums.
    """
    if one_row:
        sums = _concat(blocks)
    else:
        sums = np.array([block[0] if len(block) == 1
                         else np.add.reduce(block, axis=0)
                         for block in blocks])
    return np.add.reduce(sums, axis=0)


def _concat(blocks: Sequence[np.ndarray]) -> np.ndarray:
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _extreme(ufunc: np.ufunc, pick, blocks: Sequence[np.ndarray]) -> float:
    """``ufunc`` (``np.minimum``/``np.maximum``) over every row of
    ``blocks``, as per-block reductions folded by strict comparison give
    it.  Only a zero extreme can differ, in its sign, so only then is it
    taken per block; ``pick`` (``min``/``max``) keeps the first of
    equal values."""
    value = float(ufunc.reduce(_concat(blocks)))
    if value == 0.0:
        value = pick(float(ufunc.reduce(block)) for block in blocks)
    return value


class PackedSketchStore:
    """N homogeneous moments sketches in structure-of-arrays layout.

    Parameters
    ----------
    k:
        Moment order shared by every row (Section 4.1's ``k``).
    track_log:
        Whether rows maintain log power sums.  Homogeneous across the
        store; a row fed non-positive data simply flips its
        ``log_valid`` bit, exactly like a standalone sketch.
    capacity:
        Pre-allocated row count.  The store grows geometrically when
        exceeded, so this is an optimization, not a limit.
    """

    __slots__ = ("k", "track_log", "_size", "counts", "mins", "maxs",
                 "power_sums", "log_sums", "log_valid")

    def __init__(self, k: int = DEFAULT_ORDER, track_log: bool = True,
                 capacity: int = 0):
        if not 1 <= k <= MAX_ORDER:
            raise SketchError(f"order k must be in [1, {MAX_ORDER}], got {k}")
        self.k = int(k)
        self.track_log = bool(track_log)
        self._size = 0
        cap = max(int(capacity), 0)
        self.counts = np.zeros(cap)
        self.mins = np.full(cap, np.inf)
        self.maxs = np.full(cap, -np.inf)
        self.power_sums = np.zeros((cap, self.k + 1))
        self.log_sums = np.zeros((cap, self.k + 1))
        self.log_valid = np.full(cap, self.track_log, dtype=bool)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_sketches(cls, sketches: Iterable[MomentsSketch],
                      k: int | None = None,
                      track_log: bool | None = None) -> "PackedSketchStore":
        """Pack an iterable of sketches; parameters default to the first's."""
        sketches = list(sketches)
        if k is None or track_log is None:
            if not sketches:
                raise SketchError(
                    "cannot infer store parameters from zero sketches; "
                    "pass k and track_log explicitly")
            first = sketches[0]
            k = first.k if k is None else k
            track_log = first.track_log if track_log is None else track_log
        store = cls(k=k, track_log=track_log)
        for sketch in sketches:
            store._check_sketch(sketch)
        if not sketches:
            return store
        # Column-wise gathers; a row is what set_row would write.
        store.counts = np.array([s.count for s in sketches], dtype=float)
        store.mins = np.array([s.min for s in sketches], dtype=float)
        store.maxs = np.array([s.max for s in sketches], dtype=float)
        store.power_sums = np.array([s.power_sums for s in sketches],
                                    dtype=float)
        if store.track_log:
            no_log = np.zeros(store.k + 1)
            store.log_sums = np.array(
                [s.log_sums if s.track_log else no_log for s in sketches],
                dtype=float)
            store.log_valid = np.array(
                [s.track_log and s.log_valid for s in sketches], dtype=bool)
        else:
            store.log_sums = np.zeros_like(store.power_sums)
            store.log_valid = np.zeros(len(sketches), dtype=bool)
        store._size = len(sketches)
        return store

    # ------------------------------------------------------------------
    # Row management
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def size(self) -> int:
        """Number of live rows."""
        return self._size

    @property
    def capacity(self) -> int:
        return self.counts.shape[0]

    def new_row(self) -> int:
        """Allocate one empty row and return its index."""
        row = self._size
        if row == self.capacity:
            self._grow(row + 1)
        self._size = row + 1
        return row

    def append(self, sketch: MomentsSketch | None = None) -> int:
        """Append a row (empty, or a copy of ``sketch``'s state)."""
        row = self.new_row()
        if sketch is not None:
            self.set_row(row, sketch)
        return row

    def set_row(self, row: int, sketch: MomentsSketch) -> None:
        """Overwrite a row with ``sketch``'s state (the sketch is copied)."""
        self._check_row(row)
        self._check_sketch(sketch)
        self.counts[row] = sketch.count
        self.mins[row] = sketch.min
        self.maxs[row] = sketch.max
        self.power_sums[row] = sketch.power_sums
        if self.track_log:
            if sketch.track_log:
                self.log_sums[row] = sketch.log_sums
                self.log_valid[row] = sketch.log_valid
            else:
                # A non-log sketch carries no usable log state; mirroring
                # MomentsSketch.merge, the row's log moments are poisoned.
                self.log_sums[row] = 0.0
                self.log_valid[row] = False

    def clear_row(self, row: int) -> None:
        """Reset a row to the empty-sketch state (for ring reuse)."""
        self._check_row(row)
        self.counts[row] = 0.0
        self.mins[row] = np.inf
        self.maxs[row] = -np.inf
        self.power_sums[row] = 0.0
        self.log_sums[row] = 0.0
        self.log_valid[row] = self.track_log

    def sketch_at(self, row: int, copy: bool = True) -> MomentsSketch:
        """Materialize one row as a :class:`MomentsSketch`.

        With ``copy=False`` the sketch's ``power_sums``/``log_sums`` are
        zero-copy *views* into the store: cheap, but in-place mutation of
        the returned sketch writes through to the row (and scalar fields
        like ``count`` do not write back).  Use views for read paths only.
        """
        self._check_row(row)
        out = MomentsSketch(self.k, self.track_log)
        out.count = float(self.counts[row])
        out.min = float(self.mins[row])
        out.max = float(self.maxs[row])
        if copy:
            out.power_sums = self.power_sums[row].copy()
            out.log_sums = self.log_sums[row].copy()
        else:
            out.power_sums = self.power_sums[row]
            out.log_sums = self.log_sums[row]
        out.log_valid = bool(self.log_valid[row])
        return out

    def sketches(self, copy: bool = True) -> list[MomentsSketch]:
        """Every live row as a sketch (see :meth:`sketch_at` for ``copy``)."""
        return [self.sketch_at(row, copy=copy) for row in range(self._size)]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def accumulate_row(self, row: int, values) -> None:
        """Accumulate raw values into one row (Algorithm 1's ``Accumulate``).

        Bit-for-bit identical to ``MomentsSketch.accumulate`` fed the same
        chunk, so packed and standalone ingestion stay interchangeable.
        """
        self._check_row(row)
        x = np.atleast_1d(np.asarray(values, dtype=float))
        if x.size == 0:
            return
        if not np.isfinite(x).all():
            raise SketchError("cannot accumulate NaN or infinite values")
        self.counts[row] += x.size
        self.mins[row] = min(self.mins[row], float(x.min()))
        self.maxs[row] = max(self.maxs[row], float(x.max()))
        self.power_sums[row] += np.vander(x, self.k + 1, increasing=True).sum(axis=0)
        if self.track_log:
            if (x <= 0).any():
                self.log_valid[row] = False
            if self.log_valid[row]:
                logs = np.log(x)
                self.log_sums[row] += np.vander(
                    logs, self.k + 1, increasing=True).sum(axis=0)

    def batch_accumulate(self, rows, values) -> None:
        """Accumulate aligned (row, value) pairs with one Vandermonde pass.

        ``rows[i]`` is the destination row of ``values[i]``.  Values are
        grouped by row with a stable sort, so per-row update order matches
        feeding each row's values to ``accumulate_row`` in input order.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.intp))
        x = np.atleast_1d(np.asarray(values, dtype=float))
        if rows.shape != x.shape or rows.ndim != 1:
            raise SketchError(
                f"rows and values must be aligned 1-d arrays, got "
                f"{rows.shape} vs {x.shape}")
        if x.size == 0:
            return
        if not np.isfinite(x).all():
            raise SketchError("cannot accumulate NaN or infinite values")
        if rows.size and (rows.min() < 0 or rows.max() >= self._size):
            raise SketchError(
                f"row index out of range [0, {self._size})")
        order = np.argsort(rows, kind="stable")
        r = rows[order]
        xs = x[order]
        starts = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))
        bounds = np.concatenate((starts, [r.size]))
        target = r[starts]
        sizes = bounds[1:] - starts
        # One shared Vandermonde matrix for the whole batch; the per-group
        # fold below uses np.add.reduce on contiguous slices, which is a
        # strict left fold and therefore bit-for-bit identical to feeding
        # each group to MomentsSketch.accumulate (reduceat is not: its
        # segment sums differ in associativity by ~1 ulp).
        vander = np.vander(xs, self.k + 1, increasing=True)
        for i in range(target.size):
            self.power_sums[target[i]] += np.add.reduce(
                vander[starts[i]:bounds[i + 1]], axis=0)
        self.counts[target] += sizes
        self.mins[target] = np.minimum(self.mins[target],
                                       np.minimum.reduceat(xs, starts))
        self.maxs[target] = np.maximum(self.maxs[target],
                                       np.maximum.reduceat(xs, starts))
        if self.track_log:
            poisoned = np.logical_or.reduceat(xs <= 0, starts)
            live = self.log_valid[target] & ~poisoned
            self.log_valid[target[poisoned]] = False
            if live.any():
                # Only the values of still-valid rows may enter np.log.
                keep = np.repeat(live, sizes)
                logs = np.vander(np.log(xs[keep]), self.k + 1, increasing=True)
                live_rows = target[live]
                stops = np.cumsum(sizes[live])
                starts_live = stops - sizes[live]
                for j in range(live_rows.size):
                    self.log_sums[live_rows[j]] += np.add.reduce(
                        logs[starts_live[j]:stops[j]], axis=0)

    def merge_into_row(self, row: int, sketch: MomentsSketch) -> None:
        """Merge a standalone sketch into one row (Algorithm 1's ``Merge``)."""
        self._check_row(row)
        self._check_sketch(sketch)
        self.counts[row] += sketch.count
        if sketch.min < self.mins[row]:
            self.mins[row] = sketch.min
        if sketch.max > self.maxs[row]:
            self.maxs[row] = sketch.max
        self.power_sums[row] += sketch.power_sums
        if self.track_log:
            if sketch.track_log and sketch.log_valid:
                if self.log_valid[row]:
                    self.log_sums[row] += sketch.log_sums
            else:
                self.log_valid[row] = False

    # ------------------------------------------------------------------
    # Vectorized merges (the hot path)
    # ------------------------------------------------------------------

    def batch_merge(self, indices=None) -> MomentsSketch:
        """Merge a row subset into a fresh sketch with one reduction.

        ``indices`` may repeat rows and dictates the fold order; ``None``
        merges every live row in storage order.  The result is bit-for-bit
        identical (count and power sums) to ``merge_all`` over the same
        sketches in the same order, because numpy's axis-0 ``add.reduce``
        over a C-contiguous matrix is a sequential left fold.

        Raises :class:`EmptySketchError` for an empty selection, matching
        ``merge_all`` on an empty iterable.
        """
        if indices is None:
            sel: slice | np.ndarray = slice(0, self._size)
            n = self._size
        else:
            sel = np.atleast_1d(np.asarray(indices, dtype=np.intp))
            if sel.ndim != 1:
                raise SketchError("indices must be one-dimensional")
            n = sel.size
            if n:
                if sel.min() < 0 or sel.max() >= self._size:
                    raise SketchError(
                        f"row index out of range [0, {self._size})")
                first = int(sel[0])
                # A contiguous ascending run (full scans, window ranges)
                # reduces over a zero-copy slice instead of a gather.
                if (int(sel[-1]) - first == n - 1
                        and np.all(np.diff(sel) == 1)):
                    sel = slice(first, first + n)
        if n == 0:
            raise EmptySketchError("batch_merge needs at least one row")
        return self.merge_selections([(self, sel)])

    @staticmethod
    def merge_selections(selections: Sequence[tuple["PackedSketchStore",
                                                    object]]
                         ) -> MomentsSketch:
        """Left-fold row subsets of one or more stores into a fresh sketch.

        ``selections`` pairs stores of one order ``k`` with a non-empty
        row selection each: one row, a slice, a validated index array,
        or ``None`` for every live row.  The result is bit for
        bit the sequential ``merge`` of each pair's :meth:`batch_merge`:
        a pair's rows and then the pairs' partial sums stack into
        matrices that axis-0 ``add.reduce`` folds in order, and log sums
        stop adding at the first pair holding a log-invalid row, as
        ``MomentsSketch.merge`` does.  :meth:`batch_merge` is its
        one-pair case.
        """
        blocks, sizes = [], []
        for store, sel in selections:
            if sel is None:
                sel = slice(0, store._size)
            elif isinstance(sel, (int, np.integer)):
                sel = slice(sel, sel + 1)
            columns = (store.power_sums, store.log_sums, store.mins,
                       store.maxs, store.log_valid)
            if isinstance(sel, slice):
                blocks.append([column[sel] for column in columns])
            else:
                blocks.append([store._rows_of(column, sel)
                               for column in columns])
            sizes.append(len(blocks[-1][2]))
        power, logs, mins, maxs, valid = zip(*blocks)
        one_row = len(sizes) == sum(sizes)
        first = selections[0][0]
        out = MomentsSketch(first.k, first.track_log)
        out.power_sums = _fold(power, one_row)
        out.count = float(out.power_sums[0])
        out.min = _extreme(np.minimum, min, mins)
        out.max = _extreme(np.maximum, max, maxs)
        if out.track_log:
            flags = _concat(valid)
            if flags.all():
                prefix = len(sizes)
            else:
                # Pairs before the one holding the first invalid row.
                prefix = int(np.searchsorted(np.cumsum(sizes),
                                             np.argmin(flags), side="right"))
            out.log_valid = prefix == len(sizes)
            if prefix:
                out.log_sums = _fold(logs[:prefix], one_row)
        return out

    @staticmethod
    def _rows_of(buffer: np.ndarray, sel) -> np.ndarray:
        """Row selection: zero-copy for slices, np.take for index arrays.

        ``np.take(mode="clip")`` skips the per-element bounds re-check —
        callers have already validated the index range — and is measurably
        faster than fancy indexing on large gathers.
        """
        if isinstance(sel, slice):
            return buffer[sel]
        return np.take(buffer, sel, axis=0, mode="clip")

    def batch_merge_groups(self, rows, group_ids) -> dict[int, MomentsSketch]:
        """Group-wise :meth:`batch_merge`, every group in one reduction.

        ``rows[i]`` contributes to group ``group_ids[i]``.  The rows are
        stably sorted by group and each column is reduced for all groups
        at once, as a sequential left fold in input order, so every group
        result is bit-for-bit :meth:`batch_merge` of its rows (and a
        sequential merge).  Returns a dict keyed by group id.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.intp))
        gids = np.atleast_1d(np.asarray(group_ids, dtype=np.intp))
        if rows.shape != gids.shape or rows.ndim != 1:
            raise SketchError("rows and group_ids must be aligned 1-d arrays")
        if rows.size == 0:
            return {}
        if rows.min() < 0 or rows.max() >= self._size:
            raise SketchError(f"row index out of range [0, {self._size})")
        order = np.argsort(gids, kind="stable")
        r = rows[order]
        g = gids[order]
        first = np.r_[True, g[1:] != g[:-1]]
        starts = np.flatnonzero(first)
        stops = np.append(starts[1:], r.size)
        group_of = np.cumsum(first) - 1
        # Small groups fold together through np.add.at, which adds each
        # group's rows to its first in input order; a large group is one
        # add.reduce over its slice, faster per row (Figure 12's roll-up,
        # 500 groups of ~5 cells and 5 of ~500, takes 1.0 ms this way,
        # 1.5 ms all through add.at and 2.2 ms all through add.reduce).
        # Both are the left fold batch_merge runs (add.reduceat would sum
        # pairwise).
        large = np.flatnonzero(stops - starts > _FOLD_TOGETHER)
        together = ~first & (stops - starts <= _FOLD_TOGETHER)[group_of]

        def fold(column: np.ndarray) -> np.ndarray:
            rows_of = self._rows_of(column, r)
            out = rows_of[starts]
            np.add.at(out, group_of[together], rows_of[together])
            for group in large:
                out[group] = np.add.reduce(
                    rows_of[starts[group]:stops[group]], axis=0)
            return out

        power_sums = fold(self.power_sums)
        mins = np.minimum.reduceat(self._rows_of(self.mins, r), starts)
        maxs = np.maximum.reduceat(self._rows_of(self.maxs, r), starts)
        if self.track_log:
            valid = np.logical_and.reduceat(self._rows_of(self.log_valid, r),
                                            starts)
            log_sums = fold(self.log_sums)
        out: dict[int, MomentsSketch] = {}
        for group, start in enumerate(starts):
            sketch = MomentsSketch(self.k, self.track_log)
            sketch.power_sums = power_sums[group]
            sketch.count = float(power_sums[group, 0])
            sketch.min = float(mins[group])
            sketch.max = float(maxs[group])
            if self.track_log:
                sketch.log_valid = bool(valid[group])
                if sketch.log_valid:
                    sketch.log_sums = log_sums[group]
            out[int(g[start])] = sketch
        return out

    def batch_merge_by(self, rows: Sequence[int],
                       keys: Sequence) -> dict:
        """Group rows by arbitrary hashable keys, batch-merge each group.

        The dict maps each distinct key, in first-seen order, to the
        merge of its rows (input order within a group).  This is the
        group-by building block the cube and Druid backends share.
        """
        key_ids: dict = {}
        gids = [key_ids.setdefault(key, len(key_ids)) for key in keys]
        merged = self.batch_merge_groups(rows, gids)
        ordered = list(key_ids)
        return {ordered[gid]: sketch for gid, sketch in merged.items()}

    # ------------------------------------------------------------------
    # Batched estimation feeds
    # ------------------------------------------------------------------

    def moment_columns(self, indices=None) -> ColumnarMoments:
        """Columnar view of rows for the batched estimation layer.

        With ``indices=None`` the block covers every live row zero-copy
        (the arrays are views into the store — read-only use only); a
        row subset gathers copies.  The result feeds the vectorized
        bound kernels (:func:`repro.core.bounds.markov_bound_batch`) and
        :meth:`repro.core.cascade.ThresholdCascade.evaluate_batch`
        without materializing per-row sketch objects.
        """
        if indices is None:
            sel: slice | np.ndarray = slice(0, self._size)
        else:
            sel = np.atleast_1d(np.asarray(indices, dtype=np.intp))
            if sel.size and (sel.min() < 0 or sel.max() >= self._size):
                raise SketchError(f"row index out of range [0, {self._size})")
        return ColumnarMoments(
            k=self.k, track_log=self.track_log, counts=self.counts[sel],
            mins=self.mins[sel], maxs=self.maxs[sel],
            power_sums=self.power_sums[sel], log_sums=self.log_sums[sel],
            log_valid=self.log_valid[sel])

    # ------------------------------------------------------------------
    # Bulk serialization
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """One header plus one contiguous little-endian float64 payload.

        Layout after the 16-byte header: ``counts[N]``, ``mins[N]``,
        ``maxs[N]``, ``power_sums[:, 1:]`` row-major, then (log stores
        only) ``log_sums[:, 1:]`` row-major and ``log_valid`` as N raw
        bytes.  Index 0 of each sums row duplicates the count, so it is
        reconstructed rather than shipped — the same convention as the
        per-sketch ``MSK1`` format.
        """
        n = self._size
        flags = 1 if self.track_log else 0
        parts = [self.counts[:n], self.mins[:n], self.maxs[:n],
                 self.power_sums[:n, 1:].ravel()]
        if self.track_log:
            parts.append(self.log_sums[:n, 1:].ravel())
        payload = np.concatenate(parts) if n else np.zeros(0)
        blob = _HEADER.pack(_MAGIC, self.k, flags, n)
        blob += payload.astype("<f8", copy=False).tobytes()
        if self.track_log:
            blob += self.log_valid[:n].astype(np.uint8).tobytes()
        return blob

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PackedSketchStore":
        """Inverse of :meth:`to_bytes`."""
        if len(blob) < _HEADER.size:
            raise SketchError("buffer too short for a packed sketch store")
        magic, k, flags, n = _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise SketchError(f"bad magic {magic!r}")
        if not 1 <= k <= MAX_ORDER:
            raise SketchError(f"corrupt header: order {k} out of range")
        track_log = bool(flags & 1)
        families = 2 if track_log else 1
        floats = n * (3 + families * k)
        tail = n if track_log else 0
        expected = _HEADER.size + 8 * floats + tail
        if len(blob) != expected:
            raise SketchError(
                f"payload holds {len(blob) - _HEADER.size} bytes, "
                f"expected {expected - _HEADER.size}")
        store = cls(k=k, track_log=track_log, capacity=n)
        store._size = n
        values = np.frombuffer(blob, dtype="<f8", count=floats,
                               offset=_HEADER.size)
        store.counts[:] = values[:n]
        store.mins[:] = values[n:2 * n]
        store.maxs[:] = values[2 * n:3 * n]
        store.power_sums[:, 1:] = values[3 * n:3 * n + n * k].reshape(n, k)
        store.power_sums[:, 0] = store.counts
        if track_log:
            store.log_sums[:, 1:] = values[3 * n + n * k:].reshape(n, k)
            store.log_sums[:, 0] = store.counts
            bits = np.frombuffer(blob, dtype=np.uint8, count=n,
                                 offset=_HEADER.size + 8 * floats)
            store.log_valid[:] = bits.astype(bool)
        return store

    def size_bytes(self) -> int:
        """Serialized footprint of the whole store in bytes."""
        families = 2 if self.track_log else 1
        return (_HEADER.size + 8 * self._size * (3 + families * self.k)
                + (self._size if self.track_log else 0))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _grow(self, needed: int) -> None:
        cap = max(2 * self.capacity, needed, _MIN_CAPACITY)
        extra = cap - self.capacity
        self.counts = np.concatenate([self.counts, np.zeros(extra)])
        self.mins = np.concatenate([self.mins, np.full(extra, np.inf)])
        self.maxs = np.concatenate([self.maxs, np.full(extra, -np.inf)])
        self.power_sums = np.concatenate(
            [self.power_sums, np.zeros((extra, self.k + 1))])
        self.log_sums = np.concatenate(
            [self.log_sums, np.zeros((extra, self.k + 1))])
        self.log_valid = np.concatenate(
            [self.log_valid, np.full(extra, self.track_log, dtype=bool)])

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self._size:
            raise SketchError(
                f"row {row} out of range [0, {self._size})")

    def _check_sketch(self, sketch: MomentsSketch) -> None:
        if not isinstance(sketch, MomentsSketch):
            raise IncompatibleSketchError(
                f"expected MomentsSketch, got {type(sketch).__name__}")
        if sketch.k != self.k:
            raise IncompatibleSketchError(
                f"order mismatch: store k={self.k} vs sketch k={sketch.k}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"PackedSketchStore(k={self.k}, rows={self._size}, "
                f"log={'on' if self.track_log else 'off'})")


def pack(sketches: Sequence[MomentsSketch]) -> PackedSketchStore:
    """Convenience alias for :meth:`PackedSketchStore.from_sketches`."""
    return PackedSketchStore.from_sketches(sketches)
