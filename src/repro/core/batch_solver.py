"""Batched maximum-entropy estimation: one Newton loop for many sketches.

The paper's profiling (Section 5.2, Figure 5) puts the per-group solve at
the top of every high-cardinality aggregation's cost profile, and a loop
of one-problem solves pays the whole numpy dispatch overhead once per
group.  :func:`solve_batch` groups problems by basis shape ``(k1, k2,
domain, grid)`` and runs the stacked Newton kernel of
:mod:`repro.core.solver` once per shape: each iteration is one stacked
matmul per contraction plus one stacked LAPACK solve, with per-problem
convergence and line-search masks, and every settled problem is
fine-grid verified in one batched pass.  :func:`repro.core.solver.solve`
is the same kernel on one row, so a problem's result — or the
:class:`ConvergenceError` that says why it failed — is the same alone
or in any batch.  Numpy runs stacked matmuls and LAPACK solves slice by
slice, so a problem's trajectory is independent of its batch-mates, the
property the cross-backend bit-exactness suite leans on.

:func:`fit_estimators` is the high-level entry point: it batches moment
selection (:func:`repro.core.selector.select_moments_batch`, which also
builds each problem's basis), the Newton solves, and the CDF build
(:func:`repro.core.quantile._cdf_tables`), and returns per-sketch
:class:`~repro.core.quantile.QuantileEstimator` objects.  These are the
kernels ``QuantileEstimator.fit`` runs on one row, and a problem that
fails takes the same moment-backoff ladder
(:func:`repro.core.quantile._back_off`), so a batched estimator equals
the one-row fit bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EstimationError
from .quantile import (QuantileEstimator, _back_off, _cdf_tables,
                       two_point_quantiles)
from .selector import MomentSelection, select_moments_batch
from .solver import MaxEntBasis, MaxEntResult, SolverConfig, _newton


@dataclass
class BatchSolveOutcome:
    """Per-problem results of one :func:`solve_batch` call.

    ``results[i]`` is the solved :class:`MaxEntResult` for ``bases[i]`` or
    ``None`` when the solve failed; ``errors[i]`` then holds the
    :class:`ConvergenceError` that says why (the one
    :func:`repro.core.solver.solve` raises on ``bases[i]``).
    ``stragglers`` lists the indices the stack could not settle;
    ``batched`` counts the problems it settled.
    """

    results: list
    errors: list
    stragglers: tuple
    batched: int


@dataclass(frozen=True)
class BatchEstimationReport:
    """How one :func:`fit_estimators` call split its work."""

    problems: int
    point_masses: int
    batched: int
    stragglers: int
    failures: int


def solve_batch(bases, config: SolverConfig | None = None) -> BatchSolveOutcome:
    """Solve many max-entropy duals with one stacked Newton loop per shape.

    Problems are grouped by ``(k1, k2, domain, grid size)``; each group
    runs :func:`repro.core.solver._newton`, the masked stacked iteration
    and fine-grid verification that :func:`repro.core.solver.solve` runs on
    one row, so each problem's result or :class:`ConvergenceError` is
    exactly the one ``solve`` gives it.
    """
    config = config or SolverConfig()
    bases = list(bases)
    results: list = [None] * len(bases)
    errors: list = [None] * len(bases)
    groups: dict[tuple, list[int]] = {}
    for index, basis in enumerate(bases):
        key = (basis.k1, basis.k2, basis.domain, basis.matrix.shape[1])
        groups.setdefault(key, []).append(index)
    for indices in groups.values():
        solved, failed = _newton([bases[i] for i in indices], config)
        for index, result, error in zip(indices, solved, failed):
            results[index] = result
            errors[index] = error
    stragglers = tuple(i for i, error in enumerate(errors) if error is not None)
    return BatchSolveOutcome(results=results, errors=errors,
                             stragglers=stragglers,
                             batched=len(bases) - len(stragglers))


# ----------------------------------------------------------------------
# Batched estimator construction
# ----------------------------------------------------------------------

def fit_estimators(sketches, config: SolverConfig | None = None,
                   allow_backoff: bool = False
                   ) -> tuple[list, list, BatchEstimationReport]:
    """Fit a :class:`QuantileEstimator` per sketch with one batched solve.

    The batched counterpart of ``QuantileEstimator.fit`` called in a
    loop: selection, Newton, CDF construction, and tabulation all run
    stacked.  Returns ``(estimators, errors, report)`` aligned with the
    input; ``estimators[i]`` is ``None`` exactly when ``errors[i]`` holds
    the :class:`ConvergenceError` the one-row fit would have raised.
    ``allow_backoff`` steps each problem the batch could not settle down
    the moment-backoff ladder from the rung that failed (matching
    ``QuantileEstimator.fit(..., allow_backoff=True)``).
    """
    config = config or SolverConfig()
    sketches = list(sketches)
    estimators: list = [None] * len(sketches)
    errors: list = [None] * len(sketches)
    solvable: list[int] = []
    point_masses = 0
    for index, sketch in enumerate(sketches):
        sketch.require_nonempty()
        if not sketch.max > sketch.min:
            estimators[index] = QuantileEstimator._point_mass(sketch, config)
            point_masses += 1
        else:
            solvable.append(index)
    if not solvable:
        return estimators, errors, BatchEstimationReport(
            problems=len(sketches), point_masses=point_masses,
            batched=0, stragglers=0, failures=0)

    selections = select_moments_batch([sketches[i] for i in solvable], config)
    bases = [selection.basis for selection in selections]
    outcome = solve_batch(bases, config)

    stragglers = len(outcome.stragglers)
    failures = 0
    pending: list[tuple[int, MaxEntBasis, MaxEntResult, MomentSelection]] = []
    for position, index in enumerate(solvable):
        selection = selections[position]
        basis, result = bases[position], outcome.results[position]
        error = outcome.errors[position]
        if result is None and allow_backoff:
            # Step down the backoff ladder from the rung that failed.
            try:
                basis, result = _back_off(sketches[index], selection.k1,
                                          selection.k2, error, config)
            except ConvergenceError as exc:
                error = exc
        if result is None:
            errors[index] = error
            failures += 1
        else:
            pending.append((index, basis, result, selection))
    cdfs = _cdf_tables([entry[1] for entry in pending],
                       [entry[2].theta for entry in pending], config)
    for (index, basis, result, selection), cdf in zip(pending, cdfs):
        if cdf is None:
            raise EstimationError("solved density integrates to zero")
        estimators[index] = QuantileEstimator(sketches[index], basis, result,
                                              selection, *cdf)
    return estimators, errors, BatchEstimationReport(
        problems=len(sketches), point_masses=point_masses,
        batched=outcome.batched, stragglers=stragglers, failures=failures)


def estimate_quantiles_batch(sketches, qs, config: SolverConfig | None = None,
                             allow_backoff: bool = True) -> np.ndarray:
    """Quantile estimates for many sketches, ``(N, len(qs))``, batched.

    Convenience wrapper over :func:`fit_estimators` with the production
    degradation of ``MomentsSummary``: problems that stay non-convergent
    even after backoff are answered by the two-point-mass model
    (:func:`repro.core.quantile.two_point_quantiles`), without a re-fit.
    """
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    estimators, _, _ = fit_estimators(sketches, config,
                                      allow_backoff=allow_backoff)
    out = np.empty((len(estimators), qs.size))
    for row, (sketch, estimator) in enumerate(zip(sketches, estimators)):
        if estimator is None:
            out[row] = two_point_quantiles(sketch, qs)
        else:
            out[row] = estimator.quantiles(qs)
    return out
