"""The cell-key kernels shared by every keyed layout.

Every keyed cube in this repository — the data cube, Druid's
``(chunk, key)`` segments, packed-store key->row sessions, the tiered
store's hot tier, MacroBase's cells and cluster shard routing — turns a
dimension tuple into a cell the same way, through these kernels:

* :func:`lexsort_groups` groups a row batch by its dimension tuple with
  one stable lexsort + boundary-detection pass; :func:`group_keys`
  reads each group's key tuple.  The group visit order and the
  per-group value order are identical everywhere, so the same rows
  accumulate the same float adds in the same association no matter
  which layer ingested them.
* :func:`accumulate_groups` lands sorted groups in a
  :class:`~repro.store.PackedSketchStore`: each key maps to a row
  (:func:`first_seen_rows` numbers new keys in first-seen order) and
  the batch goes in with slabbed ``batch_accumulate`` calls.
  :func:`accumulate_columns` is lexsort plus that kernel, the whole
  write of the packed cube, the keyed packed-store session and the
  tiered store; Druid calls it once per chunk store.
* :func:`filter_positions` and :func:`matching_items` are the filter
  locate of every roll-up: the cube, Druid, and the packed and tiered
  read adapters.

:func:`check_columns` is the matching uniform boundary validation:
every write path raises the same :class:`~repro.core.errors
.IngestError` for wrong dimension arity, misaligned column lengths, or
missing timestamps.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from .errors import IngestError, QueryError

T = TypeVar("T")

#: Most values one ``batch_accumulate`` call takes (more when a single
#: group is larger), which bounds its transient Vandermonde matrix.
SLAB_VALUES = 500_000


def check_columns(ndims: int, dims: Sequence, values,
                  timestamps=None, *, needs_timestamps: bool = False,
                  context: str = "ingest") -> None:
    """Uniform ingest-boundary validation (arity + aligned lengths).

    Every write path — legacy entry points, write backends, and cluster
    shard sub-batches — funnels through this check so a malformed batch
    raises the same :class:`~repro.core.errors.IngestError` everywhere.
    A zero-row batch is valid as long as every column is empty too
    (idle polls are no-ops, matching the legacy cluster entry point).
    """
    n = np.shape(values)[0] if np.ndim(values) else 1
    if len(dims) != ndims:
        raise IngestError(
            f"{context}: expected {ndims} dimension columns, got {len(dims)}")
    for position, column in enumerate(dims):
        m = np.shape(column)[0] if np.ndim(column) else 1
        if m != n:
            raise IngestError(
                f"{context}: dimension column {position} has {m} rows, "
                f"values has {n}")
    if needs_timestamps and timestamps is None:
        raise IngestError(f"{context}: this backend rolls up by time and "
                          "needs a timestamps column")
    if timestamps is not None:
        m = np.shape(timestamps)[0] if np.ndim(timestamps) else 1
        if m != n:
            raise IngestError(
                f"{context}: timestamps has {m} rows, values has {n}")


def lexsort_groups(columns: Sequence, primary=None):
    """Stable-sort rows by their key tuple and locate group boundaries.

    Sort keys follow the engines' convention: ``np.lexsort`` over the
    reversed dimension columns (first dimension most significant), with
    ``primary`` (e.g. Druid's time chunk) as the overall most
    significant key when given.  Returns ``(order, sorted_columns,
    sorted_primary, starts, ends)``: groups are the
    ``[starts[i], ends[i])`` slices of the sorted arrays, and the sort
    stability makes each group's row order the input order — the
    invariant the bit-exactness gates rest on.
    """
    arrays = [np.asarray(col) for col in columns]
    keys = tuple(reversed(arrays))
    if primary is not None:
        primary = np.asarray(primary)
        keys = keys + (primary,)
    if not keys:
        raise IngestError("grouping needs at least one key column")
    n = keys[0].shape[0]
    order = np.lexsort(keys)
    sorted_columns = [col[order] for col in arrays]
    sorted_primary = primary[order] if primary is not None else None
    if n == 0:
        empty = np.empty(0, dtype=np.intp)
        return order, sorted_columns, sorted_primary, empty, empty
    boundary = np.zeros(n, dtype=bool)
    boundary[0] = True
    if sorted_primary is not None:
        boundary[1:] |= sorted_primary[1:] != sorted_primary[:-1]
    for col in sorted_columns:
        boundary[1:] |= col[1:] != col[:-1]
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], n)
    return order, sorted_columns, sorted_primary, starts, ends


def group_keys(sorted_columns: Sequence[np.ndarray], starts) -> list[tuple]:
    """The key tuple of each group :func:`lexsort_groups` found."""
    return list(zip(*(col[starts] for col in sorted_columns)))


def label_runs(labels: np.ndarray) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds of each run of equal values in a non-empty,
    sorted ``labels``."""
    if labels[0] == labels[-1]:
        return [(0, labels.size)]
    cuts = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, labels.size]))


def first_seen_rows(store, rows: dict) -> Callable[[tuple], int]:
    """``row_of`` over a key->row dict: a new key gets the store's next
    row, so rows are numbered first-seen and dict order is row order."""
    def row_of(key: tuple) -> int:
        row = rows.get(key)
        if row is None:
            row = rows[key] = store.new_row()
        return row
    return row_of


def accumulate_groups(store, row_of: Callable[[tuple], int],
                      keys: Sequence[tuple], sorted_values: np.ndarray,
                      starts: np.ndarray, ends: np.ndarray) -> None:
    """Land sorted groups in ``store``: group ``i`` (``keys[i]``, values
    ``sorted_values[starts[i]:ends[i]]``) accumulates into row
    ``row_of(keys[i])``.

    The groups must be adjacent and their keys distinct.  They go in
    with one :meth:`~repro.store.PackedSketchStore.batch_accumulate`
    call per slab of whole groups (about :data:`SLAB_VALUES` values), so
    every row receives its whole group in one call and the bits do not
    depend on the slab.
    """
    if len(keys) <= 1:
        # One group is the same arithmetic as a one-group batch, without
        # the batch's set-up.
        for key, start, end in zip(keys, starts, ends):
            store.accumulate_row(row_of(key), sorted_values[start:end])
        return
    rows = np.fromiter(map(row_of, keys), dtype=np.intp, count=len(keys))
    sizes = ends - starts
    for lo, hi in label_runs((starts - starts[0]) // SLAB_VALUES):
        store.batch_accumulate(np.repeat(rows[lo:hi], sizes[lo:hi]),
                               sorted_values[starts[lo]:ends[hi - 1]])


def accumulate_columns(store, row_of: Callable[[tuple], int],
                       columns: Sequence, values: np.ndarray) -> int:
    """Group a columnar batch by key and land it with
    :func:`accumulate_groups`; returns the groups (cells) touched."""
    order, sorted_columns, _, starts, ends = lexsort_groups(columns)
    accumulate_groups(store, row_of, group_keys(sorted_columns, starts),
                      np.asarray(values, dtype=float)[order], starts, ends)
    return int(starts.size)


def filter_positions(dimensions: Sequence[str],
                     filters: Mapping[str, object] | None
                     ) -> dict[int, object]:
    """Map each ``{dimension: value}`` filter to its key position, in
    key order; an unknown dimension raises :class:`QueryError`."""
    positions = {}
    for dim, value in (filters or {}).items():
        try:
            positions[dimensions.index(dim)] = value
        except ValueError:
            raise QueryError(f"unknown dimension {dim!r}; "
                             f"have {tuple(dimensions)}") from None
    return dict(sorted(positions.items()))


def matching_items(table: Mapping[tuple, T], positions: Mapping[int, object],
                   ndims: int) -> list[tuple[tuple, T]]:
    """The ``(key, value)`` items of a cell-keyed ``table`` whose key
    passes the filter ``positions``, in table order.

    A filter naming all ``ndims`` dimensions is one lookup (the item's
    key is then the filter's tuple), no filter takes every item, and a
    partial filter scans the keys.
    """
    if not positions:
        return list(table.items())
    if len(positions) == ndims:
        key = tuple(positions.values())
        hit = table.get(key)
        return [] if hit is None else [(key, hit)]
    return [(key, value) for key, value in table.items()
            if all(key[pos] == want for pos, want in positions.items())]
