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

The search measures only the condition numbers it cannot know: a
candidate of the constant and its domain's native family (standard in
the linear domain, log in the log domain) has one Gram matrix for every
sketch, so its condition comes from a table; the rest are measured by
``eigvalsh``, and by the SVD near the budget.  The selection carries its
basis, so the fit that follows builds none.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .chebyshev import chebyshev_nodes, clenshaw_curtis_weights
from .moments import (max_stable_orders, scaled_moment_rows,
                      stable_orders_rows, uniform_chebyshev_moments)
from .sketch import MomentsSketch
from .solver import (MaxEntBasis, SolverConfig, _chebyshev_rows_into,
                     build_bases_batch)

#: Relative distance from the budget within which a table or ``eigvalsh``
#: condition is measured again with the SVD.  On these Gram matrices the
#: two differ by at most ~4e-15 * kappa relative (~18 ulps of kappa), so
#: above budgets of ~7e9 the margin widens to 64 ulps of the budget, and
#: every accept/reject decision is the SVD's.
_RECHECK_MARGIN = 1e-4


@dataclass(frozen=True)
class MomentSelection:
    """Outcome of the k1/k2 search: counts plus diagnostics."""

    k1: int
    k2: int
    condition: float
    max_stable_k1: int
    max_stable_k2: int
    #: The solver basis at ``(k1, k2)``.
    basis: MaxEntBasis = field(compare=False, repr=False)


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
    out on a shared row layout (constant, standard orders, log orders).
    Each round measures only the conditions it cannot know
    (:func:`_candidate_conditions`): native-only candidates read a table,
    and the rest (all problems grow by one moment per round, so a round's
    candidates share one size) are gathered with one index and measured
    with one stacked ``eigvalsh``, or the SVD near the budget.  numpy runs
    stacked LAPACK calls slice by slice with the same routine, so a
    problem's selection does not depend on its batch-mates.

    A family (standard or log) whose candidate breaks the budget is
    dropped for the rest of the search.  This is exact: every later
    candidate of the family contains that sub-Hessian as a principal
    submatrix, so by Cauchy interlacing its condition number is no
    smaller.  The per-problem decisions are plain Python on a few floats;
    the matrix work is stacked.  Each selection carries its basis, built
    by :func:`build_bases_batch` at the selected orders.
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
    # The family whose basis rows are T_j(nodes) in the problem's domain.
    native = [b.domain == "log" for b in fulls]

    def conditions(candidates: list) -> list:
        return _candidate_conditions(gram, candidates, native, wide1, config)

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
        conds = conditions([(i, k[i][0] + (f == 0), k[i][1] + (f == 1))
                            for i, f in tried])
        feasible: dict[int, dict[int, float]] = {}
        for (i, f), value in zip(tried, conds):
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
        for i, value in zip(empty, conditions([(i, 1, 0) for i in empty])):
            k[i], cond[i] = [1, 0], value
    bases = build_bases_batch(sketches, [pair[0] for pair in k],
                              [pair[1] for pair in k], config)
    return [MomentSelection(k1=pair[0], k2=pair[1], condition=value,
                            max_stable_k1=cap[0], max_stable_k2=cap[1],
                            basis=basis)
            for pair, value, cap, basis in zip(k, cond, caps, bases)]


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


def _candidate_conditions(gram: np.ndarray, candidates: list, native: list,
                          wide1: int, config: SolverConfig) -> list:
    """Conditions of candidate sub-Grams ``(owner, k1, k2)`` of one size.

    Native-only candidates read :func:`_native_conditions`, the others
    take one stacked ``eigvalsh`` (the Gram matrices are symmetric PSD),
    and a value that is not finite and positive, or lies within
    :data:`_RECHECK_MARGIN` (or 64 ulps) of the budget, is measured again
    by the SVD.
    """
    table = _native_conditions(config.grid_size)
    budget = config.max_condition_number
    margin = budget * max(_RECHECK_MARGIN, 64 * np.finfo(float).eps * budget)
    values = [math.nan if (k1, k2)[not native[i]] else table[k1 + k2]
              for i, k1, k2 in candidates]

    def measure(kernel, positions: list) -> None:
        if positions:
            found = _conditions(_sub_grams(
                gram, [candidates[p] for p in positions], wide1), kernel)
            for position, value in zip(positions, found.tolist()):
                values[position] = value

    measure(np.linalg.eigvalsh,
            [p for p, value in enumerate(values) if math.isnan(value)])
    measure(np.linalg.svdvals,
            [p for p, value in enumerate(values)
             if not 0.0 < value < math.inf
             or abs(value - budget) <= margin])
    return values


@functools.lru_cache(maxsize=8)
def _native_conditions(grid_size: int) -> tuple:
    """Condition of each native-only candidate, by its native order c.

    The native family's basis rows are ``T_j(nodes)`` for every sketch
    (standard in the linear domain, log in the log domain), so the uniform
    Gram of the constant and native orders ``1..c`` is one matrix per
    grid size.  Orders stop at 16, the Appendix-B cap.
    """
    nodes = chebyshev_nodes(grid_size)
    rows = np.ones((1, 17, nodes.size))
    _chebyshev_rows_into(rows, nodes[None, :], offset=0, orders=16)
    gram = np.matmul(rows * (0.5 * clenshaw_curtis_weights(grid_size)),
                     np.swapaxes(rows, 1, 2))
    return tuple(float(_conditions(gram[:, :c + 1, :c + 1])[0])
                 for c in range(17))


def _sub_grams(gram: np.ndarray, candidates: list, wide1: int) -> np.ndarray:
    """``gram[owner]`` restricted to each ``(owner, k1, k2)``, one gather."""
    owners, k1, k2 = np.array(candidates).T
    position = np.arange(1 + k1[0] + k2[0])[None, :]
    layout = np.where(position <= k1[:, None], position,
                      wide1 + position - k1[:, None])
    return gram[owners[:, None, None], layout[:, :, None], layout[:, None, :]]


def _conditions(stack: np.ndarray, measure=np.linalg.svdvals) -> np.ndarray:
    """2-norm condition numbers of a stack of Gram matrices, one call.

    ``measure`` is the SVD or, for symmetric matrices, ``eigvalsh``.  Only
    a singular matrix divides by zero: condition number inf, as
    ``np.linalg.cond`` reports; an indefinite one reads non-positive.
    """
    try:
        values = measure(stack)
    except np.linalg.LinAlgError:  # pragma: no cover - LAPACK rarely fails
        return np.full(len(stack), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        return values.max(axis=1) / values.min(axis=1)
