"""Repo-invariant static analysis for the moments-sketch codebase.

Four rule families encode the invariants the test suite cannot cheaply
observe:

* lock discipline (LOCK001/LOCK002) — declared guarded state is only
  touched under its lock, including closure escapes into thread pools;
* determinism discipline (DET001–DET003) — no hash-order iteration or
  unordered float folds in merge-order-sensitive modules;
* telemetry guards (TEL001/TEL002) — data-plane calls dominated by
  ``TELEMETRY.enabled``, spans managed by context managers;
* API hygiene (API002) — public errors from the ``core.errors``
  taxonomy.

Run it as ``repro analysis lint src/`` (or ``make lint``); suppress a
single finding with ``# repro: noqa[RULE]`` and accepted legacy debt
with the baseline file (:mod:`repro.analysis.baseline`).
"""

from .api_hygiene import ApiHygieneChecker, BARE_ERROR
from .baseline import (apply_baseline, load_baseline, save_baseline,
                       BASELINE_VERSION)
from .config import (AnalysisConfig, DEFAULT_CONFIG, DEFAULT_GUARDED_BY,
                     LockSpec)
from .core import (Checker, Finding, ModuleContext, PARSE_RULE, RuleSpec,
                   all_rules, analyze_paths, iter_python_files)
from .determinism import (DeterminismChecker, DICT_VIEW_ITER, FLOAT_SUM,
                          SET_ITER)
from .locks import LOCK_HELPER, LOCK_OUTSIDE, LockDisciplineChecker
from .telemetry_guard import SPAN_LIFECYCLE, TelemetryGuardChecker, UNGUARDED

#: Checker classes run by default (order = report grouping preference).
DEFAULT_CHECKERS = (
    LockDisciplineChecker,
    DeterminismChecker,
    TelemetryGuardChecker,
    ApiHygieneChecker,
)

__all__ = [
    "AnalysisConfig", "ApiHygieneChecker", "Checker", "DeterminismChecker",
    "Finding", "LockDisciplineChecker", "LockSpec", "ModuleContext",
    "RuleSpec", "TelemetryGuardChecker",
    "DEFAULT_CHECKERS", "DEFAULT_CONFIG", "DEFAULT_GUARDED_BY",
    "BASELINE_VERSION", "PARSE_RULE",
    "LOCK_OUTSIDE", "LOCK_HELPER", "SET_ITER", "DICT_VIEW_ITER", "FLOAT_SUM",
    "UNGUARDED", "SPAN_LIFECYCLE", "BARE_ERROR",
    "all_rules", "analyze_paths", "apply_baseline", "iter_python_files",
    "load_baseline", "save_baseline",
]
