"""Multi-query optimizer: shared scans, epoch-invalidated caches, advisor.

Import surface is deliberately split: :mod:`repro.ingest.session` needs
only the flush-epoch clock, so ``EPOCHS``/``FlushEpochs`` and the cache
load eagerly, while :class:`Optimizer` and the advisor (which import the
api layer) resolve lazily to keep ``repro.ingest`` -> ``repro.optimizer``
-> ``repro.api`` from becoming an import cycle.
"""

from __future__ import annotations

from .cache import DEFAULT_BUDGET_BYTES, MergeCache
from .epochs import EPOCHS, FlushEpochs

__all__ = [
    "DEFAULT_BUDGET_BYTES",
    "EPOCHS",
    "FlushEpochs",
    "MergeCache",
    "MaterializedRollup",
    "Optimizer",
    "RollupAdvisor",
    "WorkloadProfile",
    "rank_metrics",
]

_LAZY = {
    "Optimizer": ("planner", "Optimizer"),
    "MaterializedRollup": ("advisor", "MaterializedRollup"),
    "RollupAdvisor": ("advisor", "RollupAdvisor"),
    "WorkloadProfile": ("advisor", "WorkloadProfile"),
    "rank_metrics": ("advisor", "rank_metrics"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module
    module = import_module(f".{module_name}", __name__)
    value = getattr(module, attr)
    globals()[name] = value
    return value
