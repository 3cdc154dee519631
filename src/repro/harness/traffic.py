"""Zipf-skewed cell popularity for oracle-graded test workloads.

Cell ``i`` has Zipfian weight ``(i + 1) ** -s``: lower-numbered cells
are strictly hotter, and the rows assigned to them make them the
biggest, the production workload shape the paper evaluates.
"""

from __future__ import annotations

import numpy as np


def zipf_weights(cells: int, s: float) -> np.ndarray:
    """Normalized Zipfian popularity over ``cells`` ranks (rank 0 hottest)."""
    weights = (np.arange(cells, dtype=float) + 1.0) ** -float(s)
    return weights / weights.sum()


def assign_cells(n_rows: int, cells: int, s: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Zipf-skewed cell assignment for ingested rows.

    The first ``cells`` rows are dealt round-robin so every cell exists
    (group queries and the oracle need non-empty groups); the rest
    follow the Zipf popularity law, so hot cells are also the biggest.
    """
    cell_column = np.empty(n_rows, dtype=np.int64)
    head = min(cells, n_rows)
    cell_column[:head] = np.arange(head)
    if n_rows > head:
        cell_column[head:] = rng.choice(cells, size=n_rows - head,
                                        p=zipf_weights(cells, s))
    return cell_column
