"""IngestSession: buffered, micro-batched writes over any write backend.

The session is the write-side twin of
:class:`~repro.api.QueryService`: rows (or columnar arrays) are appended
into a structure-of-arrays :class:`~repro.ingest.buffer.WriteBuffer`
and flushed through the target's :class:`~repro.ingest.backends
.WriteBackend` as vectorized micro-batches.  Flushes trigger on a
buffered row count, a byte budget, an explicit :meth:`IngestSession
.flush`, or session close, and each returns an
:class:`~repro.ingest.spec.IngestReport`.  After any flush the
session's backend is immediately queryable:
:meth:`IngestSession.query_service` wires the freshly written engine
into a :class:`~repro.api.QueryService`, closing the read+write loop
behind one declarative surface.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..core.errors import BackpressureError, IngestError
from ..optimizer.epochs import EPOCHS
from ..telemetry import TELEMETRY
from .backends import WriteBackend, as_write_backend
from .buffer import WriteBuffer, make_batch
from .spec import IngestReport, IngestSpec


def _bump_epochs(backend: WriteBackend, batch, outcome) -> None:
    """Advance the optimizer's flush-epoch clock for a landed write.

    Every engine the write touched gets its counter bumped — whole
    engine, or only the touched shards for replicated cluster writes —
    which is what lazily invalidates the multi-query optimizer's cached
    partials and responses.
    """
    for target, shards in backend.invalidation_targets(batch, outcome):
        if shards is None:
            EPOCHS.bump(target)
        elif shards:
            EPOCHS.bump_shards(target, shards)


class IngestSession:
    """One buffered write session against a single (or fan-out) target.

    Parameters
    ----------
    target:
        A storage engine (adapted via
        :func:`~repro.ingest.backends.as_write_backend`), an explicit
        :class:`~repro.ingest.backends.WriteBackend`, or a list of
        targets (fan-out).
    spec:
        The session's :class:`~repro.ingest.spec.IngestSpec` (or a dict
        / JSON string of one).  Field overrides may also be passed as
        keyword arguments.
    auto_flush:
        When True (default) the session flushes itself whenever a
        configured row/byte trigger fires; when False only explicit
        :meth:`flush` / :meth:`close` drain the buffer, and
        ``spec.max_pending_rows`` enforces backpressure.
    """

    def __init__(self, target, spec: IngestSpec | None = None, *,
                 auto_flush: bool = True, **overrides):
        spec = self._coerce_spec(spec, overrides)
        self.spec = spec
        self.backend: WriteBackend = as_write_backend(target, spec=spec)
        if spec.backend is not None and spec.backend != self.backend.name:
            raise IngestError(
                f"spec targets backend {spec.backend!r} but the session "
                f"was opened over {self.backend.name!r}")
        if (spec.dimensions and self.backend.dimensions
                and spec.dimensions != self.backend.dimensions):
            raise IngestError(
                f"spec dimensions {spec.dimensions} do not match the "
                f"target's schema {self.backend.dimensions}")
        self.auto_flush = bool(auto_flush)
        #: Guards the buffer and the flush bookkeeping.  Reentrant
        #: because append triggers flush inside the same critical
        #: section; flushes serialize deliberately — _flush_index
        #: stamps each drained batch for replica dedup, so two
        #: interleaved flushes must not race for the same stamp.
        self._lock = threading.RLock()
        self.buffer = WriteBuffer()
        self.reports: list[IngestReport] = []
        self.total_rows = 0
        self.total_cells = 0
        self.closed = False
        self._flush_index = 0

    @staticmethod
    def _coerce_spec(spec, overrides: dict) -> IngestSpec:
        if spec is None:
            return IngestSpec(**overrides)
        if isinstance(spec, str):
            spec = IngestSpec.from_json(spec)
        elif isinstance(spec, Mapping):
            spec = IngestSpec.from_dict(spec)
        if not isinstance(spec, IngestSpec):
            raise IngestError(
                f"cannot interpret {type(spec).__name__} as an IngestSpec")
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
        return spec

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @property
    def pending_rows(self) -> int:
        with self._lock:
            return self.buffer.rows

    def append_columns(self, values, dims: Sequence = (),
                       timestamps=None) -> int:
        """Append aligned columnar arrays; returns the rows buffered."""
        with self._lock:
            if self.closed:
                raise IngestError("cannot append to a closed ingest session")
            if not self.auto_flush and self.spec.max_pending_rows is not None:
                incoming = np.shape(values)[0] if np.ndim(values) else 1
                if self.buffer.rows + incoming > self.spec.max_pending_rows:
                    if TELEMETRY.enabled:
                        TELEMETRY.registry.counter(
                            "ingest_backpressure_total",
                            backend=self.backend.name).inc()
                    # Rejected *before* buffering, so the caller can flush
                    # and re-send these rows without double-counting.
                    raise BackpressureError(
                        f"appending {incoming} rows to {self.buffer.rows} "
                        f"pending would exceed max_pending_rows="
                        f"{self.spec.max_pending_rows}; flush first")
            added = self.buffer.append(values, dims=dims,
                                       timestamps=timestamps)
            self._after_append_locked()
            return added

    def append(self, rows: Iterable) -> int:
        """Append row objects — mappings or tuples — columnarized in one pass.

        A mapping row uses the backend's dimension names plus ``"value"``
        and (for time-bucketed backends) ``"timestamp"``.  A tuple row is
        ``(*dims, value)`` or ``(timestamp, *dims, value)``.
        """
        rows = list(rows)
        if not rows:
            return 0
        dimensions = self.backend.dimensions or self.spec.dimensions
        ndims = len(dimensions)
        if isinstance(rows[0], Mapping):
            with_time = "timestamp" in rows[0]
            needed = ((*dimensions, "value", "timestamp") if with_time
                      else (*dimensions, "value"))
            try:
                values = [row["value"] for row in rows]
                dims = [[row[d] for row in rows] for d in dimensions]
                timestamps = ([row["timestamp"] for row in rows]
                              if with_time else None)
            except KeyError as exc:
                raise IngestError(
                    f"every row mapping needs keys {list(needed)}; "
                    f"a row is missing {exc}") from None
        else:
            width = len(rows[0])
            if width not in (ndims + 1, ndims + 2):
                raise IngestError(
                    f"row tuples must be (*dims, value) or "
                    f"(timestamp, *dims, value) for {ndims} dimensions, "
                    f"got width {width}")
            if any(len(row) != width for row in rows):
                raise IngestError("row tuples have inconsistent widths")
            timestamps = ([row[0] for row in rows] if width == ndims + 2
                          else None)
            offset = 0 if timestamps is None else 1
            values = [row[-1] for row in rows]
            dims = [[row[offset + position] for row in rows]
                    for position in range(ndims)]
        return self.append_columns(values, dims=dims, timestamps=timestamps)

    def _after_append_locked(self) -> None:
        spec = self.spec
        if not self.auto_flush:
            return
        if spec.flush_rows is not None \
                and self.buffer.rows >= spec.flush_rows:
            self.flush(trigger="rows")
        elif spec.flush_bytes is not None \
                and self.buffer.nbytes >= spec.flush_bytes:
            self.flush(trigger="bytes")

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    def flush(self, trigger: str = "explicit") -> IngestReport | None:
        """Drain the buffer through one vectorized write (None if empty).

        A failed write loses nothing: the rows are restored to the
        buffer and the flush index is not consumed, so retrying the
        flush re-sends the identical batch under the identical sequence
        stamp — shards that already applied it deduplicate instead of
        double-counting.  (Append nothing between a failed flush and its
        retry; new rows would change the batch behind a stamp some
        replicas may have recorded.)
        """
        with self._lock:
            if self.buffer.is_empty:
                return None
            sequence = self.spec.sequence_for(self._flush_index)
            batch = self.buffer.drain(sequence=sequence)
            # An *active* span around the write, so storage-layer spans
            # (tiered seal/compact) parent under the flush that caused them.
            span = (TELEMETRY.tracer.span("ingest.flush",
                                          backend=self.backend.name,
                                          trigger=trigger, rows=batch.rows,
                                          flush_index=self._flush_index)
                    if TELEMETRY.enabled else None)
            start = time.perf_counter()
            try:
                if span is None:
                    outcome = self.backend.write(batch)
                else:
                    with span:
                        outcome = self.backend.write(batch)
            except Exception:
                self.buffer.append(batch.values, dims=batch.dims,
                                   timestamps=batch.timestamps)
                if TELEMETRY.enabled:
                    TELEMETRY.registry.counter(
                        "ingest_write_errors_total",
                        backend=self.backend.name).inc()
                raise
            write_seconds = time.perf_counter() - start
            _bump_epochs(self.backend, batch, outcome)
            report = IngestReport(
                backend=self.backend.name, flush_index=self._flush_index,
                rows=batch.rows, cells=outcome.cells, trigger=trigger,
                route_seconds=outcome.route_seconds,
                pack_seconds=outcome.pack_seconds, write_seconds=write_seconds,
                sequence=sequence,
                alerts=(len(outcome.alerts) if outcome.alerts is not None
                        else None),
                shards=outcome.shards, replicas=outcome.replicas)
            self._flush_index += 1
            self.reports.append(report)
            self.total_rows += report.rows
            self.total_cells += report.cells
            if span is not None:
                registry = TELEMETRY.registry
                name = self.backend.name
                registry.counter("ingest_rows_total", backend=name).inc(report.rows)
                registry.counter("ingest_cells_total",
                                 backend=name).inc(report.cells)
                registry.counter("ingest_flushes_total", backend=name,
                                 trigger=trigger).inc()
                registry.histogram("ingest_flush_seconds",
                                   backend=name).observe(write_seconds)
            return report

    def close(self) -> IngestReport | None:
        """Flush any pending rows and seal the session against appends."""
        with self._lock:
            report = self.flush(trigger="close") if not self.closed else None
            self.closed = True
            return report

    def __enter__(self) -> "IngestSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Read-side wiring
    # ------------------------------------------------------------------

    def query_service(self, config=None):
        """A :class:`~repro.api.QueryService` over this session's target(s).

        Pending rows are flushed first, so everything appended is
        visible; fan-out sessions register every child under its name.
        """
        from ..api import QueryService
        with self._lock:
            if not self.closed:
                self.flush()
        service = QueryService(config=config)
        for name, target in self.backend.read_targets().items():
            service.register(name, target)
        return service

    def query(self, spec, backend: str | None = None):
        """Flush, then execute one :class:`~repro.api.QuerySpec`."""
        return self.query_service().execute(spec, backend=backend)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        with self._lock:
            state = ("closed" if self.closed
                     else f"{self.buffer.rows} pending")
            return (f"IngestSession(backend={self.backend.name!r}, "
                    f"flushes={len(self.reports)}, rows={self.total_rows}, "
                    f"{state})")


# ----------------------------------------------------------------------
# One-shot helpers (the legacy entry points' shim target)
# ----------------------------------------------------------------------

def write_columns(target, values, dims: Sequence = (), timestamps=None,
                  sequence: tuple | None = None,
                  spec: IngestSpec | None = None) -> IngestReport:
    """Write one columnar batch to a target in a single flush.

    This is what the legacy per-engine ``ingest`` signatures shim to:
    exactly one batch, no buffering, so results are bit-for-bit what the
    pre-API entry points produced.  An all-empty batch is validated
    (arity, topology) and then written as a no-op — the legacy cluster
    entry point accepted zero-row polls.
    """
    backend = as_write_backend(target, spec=spec)
    batch = make_batch(values, dims=dims, timestamps=timestamps,
                       sequence=sequence)
    start = time.perf_counter()
    outcome = backend.write(batch)
    write_seconds = time.perf_counter() - start
    if batch.rows:
        _bump_epochs(backend, batch, outcome)
    return IngestReport(
        backend=backend.name, flush_index=0, rows=batch.rows,
        cells=outcome.cells, trigger="explicit",
        route_seconds=outcome.route_seconds,
        pack_seconds=outcome.pack_seconds, write_seconds=write_seconds,
        sequence=sequence,
        alerts=len(outcome.alerts) if outcome.alerts is not None else None,
        shards=outcome.shards, replicas=outcome.replicas)


def write_rows(target, rows: Iterable, spec: IngestSpec | None = None,
               **session_kwargs) -> list[IngestReport]:
    """Open a session, append row objects, close; returns the reports."""
    with IngestSession(target, spec=spec, **session_kwargs) as session:
        session.append(rows)
    return session.reports
