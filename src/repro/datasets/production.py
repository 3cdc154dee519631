"""Production-workload substitute (Appendix D.4).

The paper's production benchmark uses 165M rows of Microsoft application
telemetry for an integer performance metric, grouped by four columns
(version, network type, location, time) into ~400k *variable-sized* cells —
minimum 5 rows, maximum 722k, mean ~2380 — with a long-tailed integer value
distribution (App. D.4, Figure 21).

This module synthesizes that workload: cell sizes follow a heavy-tailed
lognormal matching the published min/mean/max spread, and each cell draws
integer latency-like values from a shared long-tailed distribution whose
location varies by cell (so cells are heterogeneous, which is what makes
GK grow when merging them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProductionCell:
    """One pre-aggregation group of the telemetry workload."""

    key: tuple[int, int, int, int]
    values: np.ndarray


def cell_sizes(num_cells: int, rng: np.random.Generator,
               minimum: int = 5, mean_target: float = 2380.0) -> np.ndarray:
    """Heavy-tailed cell sizes: lognormal with min clamp, mean ~ target."""
    # sigma chosen to give a max/mean ratio in the hundreds at 400k cells.
    sigma = 2.0
    mu = np.log(mean_target) - sigma ** 2 / 2.0
    sizes = np.maximum(rng.lognormal(mu, sigma, num_cells), minimum)
    return sizes.astype(int)


def generate_cells(num_cells: int = 4000, seed: int = 0,
                   mean_cell_size: float = 400.0) -> list[ProductionCell]:
    """Synthesize the variable-cell-size telemetry workload.

    ``mean_cell_size`` is scaled down from the paper's 2380 by default so
    test workloads run quickly; pass a larger value to approach the original.
    Values are positive integers spanning ~5 decades (Figure 21 left).
    """
    rng = np.random.default_rng(seed)
    sizes = cell_sizes(num_cells, rng, mean_target=mean_cell_size)
    # Dimension coordinates: version x network x location x time-bucket.
    versions = rng.integers(0, 8, num_cells)
    networks = rng.integers(0, 4, num_cells)
    locations = rng.integers(0, 50, num_cells)
    times = rng.integers(0, 250, num_cells)
    cells = []
    for i in range(num_cells):
        # Per-cell latency scale varies by an order of magnitude so the
        # workload is heterogeneous across cells.
        scale = np.exp(rng.normal(4.0, 0.8))
        values = np.ceil(rng.lognormal(np.log(scale), 1.1, sizes[i]))
        values = np.clip(values, 1.0, 10 ** 5.5)
        cells.append(ProductionCell(
            key=(int(versions[i]), int(networks[i]), int(locations[i]), int(times[i])),
            values=values))
    return cells


def all_values(cells: list[ProductionCell]) -> np.ndarray:
    """Concatenate every cell's rows (ground truth for accuracy checks)."""
    return np.concatenate([cell.values for cell in cells])


def production_columns(num_cells: int, total_rows: int, seed: int = 0
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the telemetry workload into shuffled ingest columns.

    Returns ``(cell_ids, values)`` of exactly ``total_rows`` rows: cell
    ``i`` is the i-th :class:`ProductionCell` (heavy-tailed sizes,
    heterogeneous long-tailed values), rows are shuffled into a single
    arrival stream, and the stream is tiled when the generated workload
    is shorter than requested.  This is the production-shaped row
    source of the exact-oracle tests.
    """
    mean_size = max(total_rows / num_cells, 8.0)
    cells = generate_cells(num_cells=num_cells, seed=seed,
                           mean_cell_size=mean_size)
    cell_ids = np.concatenate(
        [np.full(cell.values.size, index, dtype=np.int64)
         for index, cell in enumerate(cells)])
    values = all_values(cells)
    order = np.random.default_rng(seed + 1).permutation(values.size)
    cell_ids, values = cell_ids[order], values[order]
    if values.size < total_rows:
        reps = -(-total_rows // values.size)
        cell_ids = np.tile(cell_ids, reps)
        values = np.tile(values, reps)
    return cell_ids[:total_rows], values[:total_rows]
