"""Exact ground truth for grading sketch estimates.

:class:`ExactOracle` answers quantile and rank questions exactly over a
stdlib-sqlite mirror of the ingested rows, so tests can grade every
estimate with the paper's Eq. 1 rank error.  :func:`assign_cells` deals
rows into Zipf-skewed cells (:func:`zipf_weights`) for those tests.
The repository benchmark (``bench/``) is the end-to-end measurement.
"""

from .oracle import ExactOracle
from .traffic import assign_cells, zipf_weights

__all__ = ["ExactOracle", "assign_cells", "zipf_weights"]
