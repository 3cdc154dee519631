"""Heuristic selection of how many moments to use (Section 4.3.1).

The sketch stores up to ``k`` standard and ``k`` log moments, but using all
of them can leave the Newton Hessian ill-conditioned or numerically void
(Section 4.3.2).  At query time the paper "greedily increments k1 and k2,
favoring moments which are closer to the moments expected from a uniform
distribution", subject to the Hessian condition number staying below
``kappa_max``.

This module implements that heuristic plus the two stability backstops from
Appendix B:

* the closed-form cap ``k <= 13.35 / (0.78 + log10(|c| + 1))`` on usable
  order given the data's center offset, and
* an empirical prefix check that discards scaled moments whose magnitude
  escaped [-1, 1] (a sure sign of catastrophic cancellation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moments import (max_stable_orders, scaled_moment_rows,
                      stable_orders_rows, uniform_chebyshev_moments)
from .sketch import MomentsSketch
from .solver import SolverConfig, build_bases_batch


@dataclass(frozen=True)
class MomentSelection:
    """Outcome of the k1/k2 search: counts plus diagnostics."""

    k1: int
    k2: int
    condition: float
    max_stable_k1: int
    max_stable_k2: int


def stable_moment_counts(sketch: MomentsSketch) -> tuple[int, int]:
    """Numerically usable prefix lengths for standard and log moments.

    Combines the Appendix-B closed form (driven by the center offset of each
    support) with an empirical sanity check on the scaled moments.
    """
    k1, k2 = _stable_counts([sketch], use_log=True)
    return int(k1[0]), int(k2[0])


def _stable_counts(sketches: list, use_log: bool
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`stable_moment_counts`, one stacked pass per order.

    Degenerate supports get (1, 0); log counts are 0 where the log
    moments are unusable or ``use_log`` is off.
    """
    k1s = np.ones(len(sketches), dtype=int)
    k2s = np.zeros(len(sketches), dtype=int)
    by_order: dict[int, list[int]] = {}
    for index, sketch in enumerate(sketches):
        sketch.require_nonempty()
        by_order.setdefault(sketch.k, []).append(index)
    for order, rows in by_order.items():
        group = [sketches[i] for i in rows]
        counts = np.array([s.count for s in group])
        mins = np.array([s.min for s in group])
        maxs = np.array([s.max for s in group])
        live = maxs > mins
        usable = live & np.array([use_log and s.has_log_moments
                                  for s in group])
        with np.errstate(divide="ignore", invalid="ignore"):
            log_lo = np.log(np.where(usable, mins, 1.0))
            log_hi = np.log(np.where(usable, maxs, 1.0))
        usable &= log_hi > log_lo
        # Both families in one stacked pass: standard rows, then log rows.
        m = len(group)
        lows = np.concatenate([mins, log_lo])
        highs = np.concatenate([maxs, log_hi])
        scaled = scaled_moment_rows(
            np.concatenate([np.stack([s.power_sums for s in group]),
                            np.stack([s.log_sums for s in group])]),
            np.concatenate([counts, counts]), lows, highs)
        halves = 0.5 * (highs - lows)
        with np.errstate(divide="ignore", invalid="ignore"):
            offsets = np.where(halves > 0, 0.5 * (highs + lows) / halves, 0.0)
        floors = np.repeat([1, 0], m)
        usable_orders = np.minimum(
            np.minimum(order, max_stable_orders(offsets)),
            np.maximum(stable_orders_rows(scaled), floors))
        k1s[rows] = np.where(live, usable_orders[:m], 1)
        k2s[rows] = np.where(usable, usable_orders[m:], 0)
    return k1s, k2s


def select_moments(sketch: MomentsSketch, config: SolverConfig | None = None,
                   use_log: bool = True) -> MomentSelection:
    """Greedy k1/k2 search under the condition-number budget.

    Starting from (k1, k2) = (0, 0), repeatedly tries to add the next
    standard or the next log moment.  A candidate is feasible if the uniform
    Hessian restricted to the enlarged basis keeps
    ``cond < config.max_condition_number``; among feasible candidates the one
    whose *new* Chebyshev moment lies closest to its uniform-distribution
    expectation wins (moments near the uniform value constrain the solution
    gently and are the safest to include).  Starting from the empty
    selection matters in the log integration domain, where the standard
    basis functions are nearly collinear with the constant and even one of
    them can blow the condition number past the budget.  When nothing fits
    the budget the selection falls back to one standard moment.

    The one-sketch case of :func:`select_moments_batch`.
    """
    return select_moments_batch([sketch], config, use_log)[0]


def select_moments_batch(sketches, config: SolverConfig | None = None,
                         use_log: bool = True) -> list[MomentSelection]:
    """:func:`select_moments` for many sketches, searched in lockstep.

    Every candidate sub-Hessian is a principal submatrix of its problem's
    full uniform Gram matrix (``H_sub = Gram[rows, rows]``).  The Gram
    matrices are computed with one stacked matmul per basis shape and laid
    out on a shared row layout (constant, standard orders, log orders), so
    each round gathers every still-growing problem's candidates with one
    index and evaluates their condition numbers with one stacked SVD
    (all problems grow by one moment per round, so a round's candidates
    share one size).  numpy runs the stacked SVD slice by slice with the
    same LAPACK routine, so a problem's selection does not depend on its
    batch-mates.

    A family (standard or log) whose candidate breaks the budget is
    dropped for the rest of the search.  This is exact: every later
    candidate of the family contains that sub-Hessian as a principal
    submatrix, so by Cauchy interlacing its condition number is no
    smaller.  The per-problem decisions are plain Python on a few floats;
    the matrix work is stacked.
    """
    config = config or SolverConfig()
    sketches = list(sketches)
    if not sketches:
        return []
    cap_k1, cap_k2 = _stable_counts(sketches, use_log)
    fulls = build_bases_batch(sketches, np.maximum(cap_k1, 1).tolist(),
                              cap_k2.tolist(), config)
    caps = [(b.k1, b.k2) for b in fulls]  # k2 zeroed when log is unusable
    wide1 = max(cap[0] for cap in caps)
    gram, distance = _search_tables(fulls, wide1, max(cap[1] for cap in caps))
    distance = distance.tolist()

    # Family f of a problem: 0 standard, 1 log.
    budget = config.max_condition_number
    k = [[0, 0] for _ in caps]
    cond = [1.0] * len(caps)
    open_ = [[cap > 0 for cap in pair] for pair in caps]
    live: list[int] = list(range(len(caps)))
    while True:
        tried = [(i, f) for i in live for f in (0, 1)
                 if open_[i][f] and k[i][f] < caps[i][f]]
        if not tried:
            break
        counts = np.array([[k[i][0] + (f == 0) for i, f in tried],
                           [k[i][1] + (f == 1) for i, f in tried]])
        conds = _sub_conditions(gram, np.array([i for i, _ in tried]),
                                counts, wide1)
        feasible: dict[int, dict[int, float]] = {}
        for (i, f), value in zip(tried, conds.tolist()):
            if value >= budget:
                open_[i][f] = False
            else:
                feasible.setdefault(i, {})[f] = value
        # A problem with no feasible candidate is finished.
        live = list(feasible)
        for i, options in feasible.items():
            # Closest new moment to its uniform expectation wins; ties go
            # to the log moment.
            f = int(1 in options and (
                0 not in options
                or distance[1][i][k[i][1] + 1] <= distance[0][i][k[i][0] + 1]))
            k[i][f] += 1
            cond[i] = options[f]
    empty = [i for i, pair in enumerate(k) if pair == [0, 0]]
    if empty:
        # Nothing fit the budget; fall back to the first standard moment.
        ones = np.ones(len(empty), dtype=int)
        fallback = _sub_conditions(gram, np.array(empty),
                                   np.stack([ones, 0 * ones]), wide1)
        for i, value in zip(empty, fallback.tolist()):
            k[i], cond[i] = [1, 0], value
    return [MomentSelection(k1=pair[0], k2=pair[1], condition=value,
                            max_stable_k1=cap[0], max_stable_k2=cap[1])
            for pair, value, cap in zip(k, cond, caps)]


def _search_tables(fulls: list, wide1: int, wide2: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices and candidate distances on the shared row layout.

    Returns ``gram`` ``(n, 1 + wide1 + wide2, same)`` with row 0 the
    constant, rows ``1..wide1`` the standard and rows ``wide1 + 1..`` the
    log orders (one stacked matmul per basis shape), and ``distance``
    ``(2, n, max(wide1, wide2) + 2)``: ``|moment - uniform expectation|``
    of standard (``distance[0, :, j]``) and log (``distance[1, :, j]``)
    order j.
    """
    n = len(fulls)
    size = 1 + wide1 + wide2
    gram = np.zeros((n, size, size))
    distance = np.zeros((2, n, max(wide1, wide2) + 2))
    uniform_std = uniform_chebyshev_moments(wide1)
    weights = np.asarray(fulls[0].weights)
    half_weights = 0.5 * weights
    shapes: dict[tuple, list[int]] = {}
    for index, basis in enumerate(fulls):
        shapes.setdefault((basis.k1, basis.k2), []).append(index)
    for (k1, k2), members in shapes.items():
        std_moments = np.stack([fulls[i].std_moments for i in members])
        distance[0, members, :k1 + 1] = np.abs(std_moments
                                               - uniform_std[:k1 + 1])
        stack = np.stack([fulls[i].matrix for i in members])
        layout = np.concatenate([np.arange(k1 + 1),
                                 wide1 + np.arange(1, k2 + 1)])
        gram[np.ix_(members, layout, layout)] = np.matmul(
            stack * half_weights, np.swapaxes(stack, 1, 2))
        if k2 > 0:
            # E_uniform[T_j(log-basis)]: no closed form, so quadrature on
            # the shared Clenshaw-Curtis grid.
            uniform_log = 0.5 * np.matmul(stack[:, k1 + 1:, :], weights)
            log_moments = np.stack([fulls[i].log_moments[1:] for i in members])
            distance[1, members, 1:k2 + 1] = np.abs(log_moments - uniform_log)
    return gram, distance


def _sub_conditions(gram: np.ndarray, owners: np.ndarray,
                    counts: np.ndarray, wide1: int) -> np.ndarray:
    """Condition numbers of ``gram[owner]`` restricted to each (k1, k2).

    ``counts`` is ``(2, c)``: the candidates' k1 and k2.  All candidates
    share one size ``1 + k1 + k2``; the sub-matrices are gathered with one
    index and measured with one stacked SVD.
    """
    k1 = counts[0][:, None]
    position = np.arange(1 + counts[:, 0].sum())[None, :]
    layout = np.where(position <= k1, position, wide1 + position - k1)
    return _conditions(gram[owners[:, None, None], layout[:, :, None],
                            layout[:, None, :]])


def _conditions(stack: np.ndarray) -> np.ndarray:
    """2-norm condition numbers of a stack of Gram matrices, one SVD call."""
    try:
        singular = np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError:  # pragma: no cover - gesdd rarely fails
        return np.full(len(stack), np.inf)
    # Gram matrices are finite with H_00 = 1, so only a singular one
    # divides by zero: condition number inf, as np.linalg.cond reports.
    with np.errstate(divide="ignore"):
        return singular[:, 0] / singular[:, -1]


