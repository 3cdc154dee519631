"""Exception hierarchy for the moments-sketch library.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class at system boundaries (e.g. the Druid aggregator layer
converts any :class:`ReproError` into a query-level error response).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SketchError(ReproError):
    """Invalid sketch state or invalid operation on a sketch."""


class IncompatibleSketchError(SketchError):
    """Raised when merging/subtracting sketches of different orders."""


class EmptySketchError(SketchError):
    """Raised when an estimate is requested from a sketch with count == 0."""


class ConvergenceError(ReproError):
    """The maximum-entropy solver failed to converge.

    The paper observes this on very low cardinality datasets (fewer than
    about five distinct values, Figure 8); callers such as the cascade fall
    back to bound midpoints when this is raised.
    """

    def __init__(self, message: str, iterations: int = 0, grad_norm: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.grad_norm = grad_norm


class EstimationError(ReproError):
    """A quantile estimator could not produce an estimate."""


class BoundError(ReproError):
    """A moment-based bound routine could not produce a valid bound."""


class EncodingError(ReproError):
    """Invalid low-precision encoding parameters or corrupt payload."""


class DatasetError(ReproError):
    """Unknown dataset name or invalid generator parameters."""


class QueryError(ReproError):
    """Malformed query against the cube / engine layers."""


class IngestError(QueryError):
    """Malformed or inconsistent write at an ingest boundary.

    Raised uniformly by every ingest entry point (cube, Druid engine,
    packed store sessions, window monitors, cluster routing) for
    mismatched column lengths, wrong dimension arity, missing
    timestamps, and invalid ingest specs.  Subclasses
    :class:`QueryError` so callers that already guard engine boundaries
    with ``except QueryError`` keep working.
    """


class BackpressureError(IngestError):
    """An ingest buffer exceeded its configured pending-row budget.

    Raised by :class:`~repro.ingest.IngestSession` when auto-flush is
    disabled and an append would push the buffered row count past
    ``max_pending_rows`` — the caller must flush (or drop) before
    appending more.
    """


class ClusterError(ReproError):
    """Invalid cluster topology operation or unroutable shard."""


class StorageError(ReproError):
    """Invalid tiered-storage operation or corrupt on-disk state.

    Raised by :mod:`repro.storage` for malformed segment files (bad
    magic, checksum mismatch, truncated columns), unreplayable
    manifests, and tier-configuration errors.  Corruption is always an
    explicit error — the storage layer never silently serves a damaged
    segment.
    """


class TelemetryError(ReproError, ValueError):
    """Invalid telemetry configuration, observation, or partial payload.

    Raised by :mod:`repro.telemetry` for malformed histogram layouts,
    non-finite observations, corrupt wire partials, and metric dumps
    that carry no telemetry.  Subclasses :class:`ValueError` so callers
    that guarded the pre-taxonomy surface with ``except ValueError``
    keep working.
    """


class AnalysisError(ReproError):
    """Invalid static-analysis invocation or unreadable baseline.

    Raised by :mod:`repro.analysis` for unparseable target paths, a
    corrupt baseline document, or a malformed checker configuration.
    """


class HarnessError(ReproError):
    """Invalid request to the exact oracle.

    Raised by :class:`~repro.harness.ExactOracle` for a batch whose cell
    and value columns differ in length, and for a quantile or rank asked
    of a cell that holds no rows.
    """
