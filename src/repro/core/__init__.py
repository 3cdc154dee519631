"""Core moments-sketch package: the paper's primary contribution."""

from .sketch import ColumnarMoments, MomentsSketch, merge_all, DEFAULT_ORDER
from .params import check_q
from .quantile import QuantileEstimator, estimate_quantile, estimate_quantiles, safe_estimate_quantiles
from .solver import SolverConfig
from .batch_solver import (BatchEstimationReport, BatchSolveOutcome,
                           estimate_quantiles_batch, fit_estimators,
                           solve_batch)
from .errors import (
    ReproError, SketchError, IncompatibleSketchError, EmptySketchError,
    ConvergenceError, EstimationError, BoundError, EncodingError,
    DatasetError, QueryError, IngestError, BackpressureError,
    TelemetryError, AnalysisError,
)

__all__ = [
    "ColumnarMoments", "MomentsSketch", "merge_all", "DEFAULT_ORDER",
    "check_q",
    "QuantileEstimator", "estimate_quantile", "estimate_quantiles",
    "safe_estimate_quantiles", "SolverConfig",
    "BatchEstimationReport", "BatchSolveOutcome", "estimate_quantiles_batch",
    "fit_estimators", "solve_batch",
    "ReproError", "SketchError", "IncompatibleSketchError", "EmptySketchError",
    "ConvergenceError", "EstimationError", "BoundError", "EncodingError",
    "DatasetError", "QueryError", "IngestError", "BackpressureError",
    "TelemetryError", "AnalysisError",
]
