"""Benchmark workload harness: cells, timing runner, calibration, parallel."""

from .cells import (PHI_GRID, CellSet, PackedCellSet, build_cells,
                    build_packed_cells, ingest_packed_cells, mean_error,
                    merge_cells, quantile_errors)
from .runner import (QueryTiming, run_packed_query, run_query,
                     time_estimation, time_merges)
from .calibrate import CalibrationResult, calibrate, calibrate_all, parameter_ladders
from .parallel import (ParallelMergeResult, parallel_merge,
                       parallel_merge_packed, strong_scaling, weak_scaling)

__all__ = [
    "PHI_GRID", "CellSet", "PackedCellSet", "build_cells",
    "build_packed_cells", "ingest_packed_cells", "mean_error", "merge_cells",
    "quantile_errors", "QueryTiming", "run_query", "run_packed_query",
    "time_estimation", "time_merges", "CalibrationResult", "calibrate",
    "calibrate_all", "parameter_ladders", "ParallelMergeResult",
    "parallel_merge", "parallel_merge_packed", "strong_scaling",
    "weak_scaling",
]
