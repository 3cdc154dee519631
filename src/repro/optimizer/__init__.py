"""Multi-query optimizer: an epoch-invalidated cache of scans and their fits.

:mod:`repro.ingest.session` advances the flush-epoch clock
(``EPOCHS``/``FlushEpochs``); :class:`Optimizer` caches each cold scan
under the epoch it read; :func:`rank_metrics` is the offline advice
behind ``repro optimizer advise``.
"""

from __future__ import annotations

from .advisor import rank_metrics
from .cache import DEFAULT_BUDGET_BYTES, MergeCache
from .epochs import EPOCHS, FlushEpochs
from .planner import Optimizer

__all__ = [
    "DEFAULT_BUDGET_BYTES",
    "EPOCHS",
    "FlushEpochs",
    "MergeCache",
    "Optimizer",
    "rank_metrics",
]
