"""Moment-based rank and CDF bounds (Section 5.1, Appendix E).

Two families of worst-case bounds derived from the statistics in a moments
sketch.  Both hold for *every* dataset matching the sketch, so they can
short-circuit threshold queries (the cascade) and certify quantile-estimate
error (Figure 23).

``markov_bound``
    Markov's inequality applied to the transforms T+ = x - xmin,
    T- = xmax - x and T^log = log(x) (paper Section 5.1).  Cheap: a handful
    of flops per moment order.

``rtt_bound``
    The Racz-Tari-Telek procedure [66]: the canonical (principal)
    representation of the moment sequence with an atom pinned at the query
    point t.  A discrete distribution with atoms {t} union roots(q) matches
    all stored moments exactly, and classical Chebyshev-Markov theory makes
    its partial weight sums the extremal values of F(t).  Tighter than
    Markov but needs a Hankel solve + root finding.  Runs on the standard
    and the log moments separately, keeping the tighter result (Section 5.1).

Both bounds also come in *batched* array forms —
:func:`markov_bound_batch` and :func:`rtt_bound_batch` — operating on a
:class:`~repro.core.sketch.ColumnarMoments` block (packed power-sum
matrices) so a threshold cascade can filter a whole cell set before its
one batched max-entropy solve.  Every step is stacked over the rows,
the RTT core included: rows sharing a system size share one LAPACK call
each for the Hankel solve, the companion-matrix eigenvalues and the
Vandermonde weight solve.  LAPACK runs the same routine on every matrix
of a stack, so a row's bounds are bit-identical alone or in any batch.
The scalar entry points delegate to the batched kernels with a one-row
block, so scalar and vectorized results are equal element-wise by
construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BoundError
from .sketch import ColumnarMoments, MomentsSketch
from .moments import max_stable_orders, shifted_moments, stable_orders_rows


@dataclass(frozen=True)
class RankBounds:
    """Bounds on ``rank(t)`` = number of elements strictly below ``t``.

    ``lower <= rank(t) <= upper`` for every dataset matching the sketch.
    ``fraction()`` converts to CDF bounds.
    """

    lower: float
    upper: float
    count: float

    def fraction(self) -> tuple[float, float]:
        return self.lower / self.count, self.upper / self.count

    def intersect(self, other: "RankBounds") -> "RankBounds":
        return RankBounds(max(self.lower, other.lower),
                          min(self.upper, other.upper), self.count)

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class RankBoundsBatch:
    """Per-row :class:`RankBounds` over a columnar block of sketches."""

    lower: np.ndarray
    upper: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return self.lower.shape[0]

    def row(self, index: int) -> RankBounds:
        return RankBounds(float(self.lower[index]), float(self.upper[index]),
                          float(self.counts[index]))

    def fractions(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row CDF bounds (the array form of ``RankBounds.fraction``)."""
        return self.lower / self.counts, self.upper / self.counts

    def take(self, rows) -> "RankBoundsBatch":
        """The bounds of a row subset, in ``rows`` order."""
        return RankBoundsBatch(lower=self.lower[rows], upper=self.upper[rows],
                               counts=self.counts[rows])


def _require_nonempty_rows(moments: ColumnarMoments) -> None:
    if np.any(moments.counts <= 0):
        from .errors import EmptySketchError
        raise EmptySketchError("columnar block holds an empty row")


def _cheap_order_caps_rows(moments: ColumnarMoments, rows: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Usable moment orders from the closed-form Appendix-B caps only.

    The bounds run once per subgroup inside cascades, so they avoid the
    full empirical stability scan; per-order validity guards below reject
    any residually garbage moment.  Row-wise mirror of the scalar rule:
    degenerate supports cap at (1, 0).
    """
    mins = moments.mins[rows]
    maxs = moments.maxs[rows]
    k1 = np.ones(rows.size, dtype=int)
    k2 = np.zeros(rows.size, dtype=int)
    nondegenerate = maxs > mins
    if nondegenerate.any():
        centers = 0.5 * (maxs + mins)
        halves = 0.5 * (maxs - mins)
        with np.errstate(divide="ignore", invalid="ignore"):
            offsets = np.where(nondegenerate, centers / halves, 0.0)
        k1 = np.where(nondegenerate,
                      np.minimum(moments.k, max_stable_orders(offsets)), k1)
    usable = moments.usable_log()[rows] & nondegenerate
    if usable.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            log_lo = np.log(np.where(usable, mins, 1.0))
            log_hi = np.log(np.where(usable, maxs, 2.0))
            log_ok = usable & (log_hi > log_lo)
            log_offsets = np.where(
                log_ok, (0.5 * (log_hi + log_lo)) / (0.5 * (log_hi - log_lo)),
                0.0)
        k2 = np.where(log_ok,
                      np.minimum(moments.k, max_stable_orders(log_offsets)),
                      k2)
    return np.maximum(k1, 1), k2


def _markov_rows(mu: np.ndarray, lows: np.ndarray, highs: np.ndarray,
                 points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Markov bounds on ``F(point)`` per row of raw moments on [low, high].

    ``F(t) >= 1 - min_j E[(X - low)**j] / (t - low)**j`` and
    ``F(t) <= min_j E[(high - X)**j] / (high - t)**j``, both sides in one
    stacked pass (lower rows, then upper rows).  Every step is element-wise
    or a reduction along a row, so a row's bounds do not depend on the
    rows stacked with it.
    """
    rows = len(mu)
    transform = shifted_moments(np.concatenate([mu, mu]),
                                np.concatenate([lows, highs]))
    # E[(high - X)**j] = (-1)**j E[(X - high)**j].
    transform[rows:, 1::2] = -transform[rows:, 1::2]
    gaps = np.concatenate([points - lows, highs - points])
    spans = np.concatenate([highs - lows, highs - lows])[:, None]
    powers = np.arange(transform.shape[1], dtype=float)
    # A genuine moment of data on [0, span] is finite, non-negative and at
    # most span**j; anything else is debris from the binomial shift and
    # must not feed an inequality.  gap**j can underflow to zero for tiny
    # gaps at high order; the resulting inf ratio is never the minimum.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        valid = (np.isfinite(transform) & (transform >= 0.0)
                 & (transform <= spans ** powers * (1.0 + 1e-9)))
        ratios = transform[:, 1:] / gaps[:, None] ** powers[1:]
    usable = valid[:, 1:] & np.isfinite(ratios)
    best = np.minimum(
        np.where(usable, ratios, np.inf).min(axis=1, initial=1.0), 1.0)
    positive = gaps > 0
    return (np.where(positive[:rows], 1.0 - best[:rows], 0.0),
            np.where(positive[rows:], best[rows:], 1.0))


def _raw_moment_rows(sums: np.ndarray, counts: np.ndarray, order: int
                     ) -> np.ndarray:
    """Row-wise ``raw_moments``: ``mu_i = sums[:, i] / count``, ``mu_0 = 1``."""
    mu = sums[:, : order + 1] / counts[:, None]
    mu[:, 0] = 1.0
    return mu


def _thresholds(t, counts: np.ndarray) -> np.ndarray:
    """``t`` broadcast to one threshold per row; NaN has no rank to bound."""
    ts = np.broadcast_to(np.asarray(t, dtype=float), counts.shape)
    if np.isnan(ts).any():
        raise BoundError("thresholds must not be NaN")
    return ts


def markov_bound_batch(moments: ColumnarMoments, t,
                       max_order: int | None = None) -> RankBoundsBatch:
    """Markov-inequality bounds on rank(t) for every row of a block.

    The array form of :func:`markov_bound` over packed power-sum
    matrices: rows are grouped by their usable moment order and each
    group's binomial shifts, ratio tests, and min-reductions run
    stacked.  ``t`` may be one threshold for the whole block or a
    per-row array (a ``cdf`` query probes one threshold per row).
    Every operation is element-wise per row, so
    ``markov_bound_batch(cm, t).row(i) == markov_bound(cm.sketch_at(i), t)``
    exactly, so a cell's Markov-stage cascade decision does not depend
    on its batch-mates.
    """
    _require_nonempty_rows(moments)
    counts = moments.counts
    size = len(moments)
    ts = _thresholds(t, counts)
    below = ts <= moments.mins
    above = ts > moments.maxs
    lower_frac = np.zeros(size)
    upper_frac = np.ones(size)
    middle = np.flatnonzero(~below & ~above)
    if middle.size:
        k1, k2 = _cheap_order_caps_rows(moments, middle)
        if max_order is not None:
            k1 = np.minimum(k1, max_order)
            k2 = np.minimum(k2, max_order)
        k1 = np.maximum(k1, 1)
        mins = moments.mins[middle]
        maxs = moments.maxs[middle]
        ts_mid = ts[middle]
        # Standard rows on [min, max], then log rows on [log min, log max]:
        # rows of one order share one stacked pass whatever their family.
        log_rows = np.flatnonzero((k2 > 0) & (ts_mid > 0))
        sources = np.concatenate([middle, middle[log_rows]])
        sums = np.concatenate([moments.power_sums[middle],
                               moments.log_sums[middle[log_rows]]])
        lows = np.concatenate([mins, np.log(mins[log_rows])])
        highs = np.concatenate([maxs, np.log(maxs[log_rows])])
        points = np.concatenate([ts_mid, np.log(ts_mid[log_rows])])
        orders = np.concatenate([k1, k2[log_rows]])
        bounds_lo = np.empty(orders.size)
        bounds_hi = np.empty(orders.size)
        for order in np.unique(orders).tolist():
            members = np.flatnonzero(orders == order)
            mu = _raw_moment_rows(sums[members], counts[sources[members]],
                                  order)
            bounds_lo[members], bounds_hi[members] = _markov_rows(
                mu, lows[members], highs[members], points[members])
        std_count = middle.size
        lf = bounds_lo[:std_count]
        uf = bounds_hi[:std_count]
        lf[log_rows] = np.maximum(lf[log_rows], bounds_lo[std_count:])
        uf[log_rows] = np.minimum(uf[log_rows], bounds_hi[std_count:])
        lf = np.clip(lf, 0.0, 1.0)
        uf = np.clip(uf, lf, 1.0)
        lower_frac[middle] = lf
        upper_frac[middle] = uf
    lower = np.where(below, 0.0, np.where(above, counts, lower_frac * counts))
    upper = np.where(below, 0.0, np.where(above, counts, upper_frac * counts))
    return RankBoundsBatch(lower=lower, upper=upper, counts=counts.copy())


def markov_bound(sketch: MomentsSketch, t: float,
                 max_order: int | None = None) -> RankBounds:
    """Markov-inequality bounds on rank(t) (Section 5.1).

    Lower bound from T+ = x - xmin (non-negative):
    ``P(X >= t) <= E[(X - xmin)**j] / (t - xmin)**j`` so
    ``rank(t) >= n (1 - min_j ...)``.  Upper bound symmetrically from
    T- = xmax - x, and both again on log-transformed data when available.

    Delegates to :func:`markov_bound_batch` with a one-row block, so the
    scalar and vectorized forms cannot drift apart.
    """
    sketch.require_nonempty()
    batch = markov_bound_batch(ColumnarMoments.from_sketches([sketch]), t,
                               max_order=max_order)
    return batch.row(0)


# ----------------------------------------------------------------------
# RTT canonical-representation bounds
# ----------------------------------------------------------------------

#: Tolerance (in scaled units) within which an atom counts as sitting *at*
#: the query point rather than strictly below it.
_ATOM_TOL = 1e-9


def _stacked(routine, *stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run a stacked LAPACK ``routine``, retrying row by row on failure.

    numpy raises :class:`numpy.linalg.LinAlgError` for the whole stack
    when one matrix is singular (or, for ``eigvals``, not finite), so the
    stack is then retried one row at a time.  Returns the results and a
    mask of the rows that succeeded; a failed row's result is zeros.
    LAPACK runs the same routine on each matrix either way, so a row's
    result does not depend on its stack-mates.
    """
    rows = stacks[0].shape[0]
    try:
        return routine(*stacks), np.ones(rows, dtype=bool)
    except np.linalg.LinAlgError:
        pass
    ok = np.zeros(rows, dtype=bool)
    results: list = [None] * rows
    for row in range(rows):
        try:
            results[row] = routine(*(stack[row:row + 1] for stack in stacks))[0]
        except np.linalg.LinAlgError:
            continue
        ok[row] = True
    solved = [result for result in results if result is not None]
    if not solved:
        return np.zeros((rows,)), ok
    out = np.zeros((rows,) + solved[0].shape, dtype=np.result_type(*solved))
    out[ok] = solved
    return out, ok


def _solve_vectors(systems: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked ``solve(systems[i], rhs[i])`` (numpy 2 wants ``rhs[..., None]``)."""
    return np.linalg.solve(systems, rhs[..., None])[..., 0]


def _rtt_cdf_rows(moments: np.ndarray, points: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extremal F(point) over distributions matching each moment row.

    ``moments[r, i] = E[u**i]`` for i = 0..2n (the same odd size 2n + 1
    for every row).  Per row this builds the monic degree-n polynomial q
    orthogonal to ``(u - point) * u**i`` for i < n; its roots plus
    ``point`` carry a discrete distribution matching all 2n + 1 moments
    (the principal representation), whose partial weight sums are the
    bounds.  The Hankel solve, the root finding (``eigvals`` of the
    companion matrices, exactly what ``polyroots`` runs per row) and the
    Vandermonde weight solve each run as one stacked LAPACK call.

    Returns ``(lower, upper, solved)``.  A row is not solved when its
    Hankel or Vandermonde matrix is singular (e.g. the data has fewer
    distinct values than atoms), its roots are complex or not finite,
    its weights are negative or not finite, or its total mass is not
    positive; its bounds are then meaningless.
    """
    rows, size = moments.shape
    n = (size - 1) // 2
    hankel, tail, sub_rows, sub_cols = _rtt_indices(n)
    pts = points[:, None]
    # sum_j a_j (m_{i+j+1} - point * m_{i+j}) = -(m_{i+n+1} - point * m_{i+n})
    # from orthogonality of the monic q against (u - point) u**i, each
    # row's system one shifted-Hankel gather.
    systems = moments[:, hankel + 1] - pts[:, :, None] * moments[:, hankel]
    rhs = -(moments[:, tail + 1] - pts * moments[:, tail])
    coeffs, live = _stacked(_solve_vectors, systems, rhs)
    lower = np.zeros(rows)
    upper = np.ones(rows)
    if not live.any():
        return lower, upper, live
    if n == 1:
        roots = -coeffs[live]  # the degree-1 root -c0 / c1 with c1 = 1
    else:
        companion = np.zeros((int(live.sum()), n, n))
        companion[:, sub_rows, sub_cols] = 1.0  # the subdiagonal
        companion[:, :, -1] -= coeffs[live]
        roots, found = _stacked(np.linalg.eigvals, companion)
        live[live] = found
        if not found.any():
            return lower, upper, live
        roots = np.sort(roots[found], axis=-1)
    real = (np.abs(roots.imag) <= 1e-7).all(axis=-1)
    live[live] = real
    if not live.any():
        return lower, upper, live
    near = pts[live]
    atoms = np.concatenate([roots[real].real, near], axis=1)
    # Weights from the (n+1)-moment Vandermonde systems: np.vander's
    # cumulative products, transposed.
    powers = np.empty(atoms.shape + (n + 1,))
    powers[..., 0] = 1.0
    powers[..., 1:] = atoms[..., None]
    np.multiply.accumulate(powers[..., 1:], axis=-1, out=powers[..., 1:])
    weights, found = _stacked(_solve_vectors, powers.swapaxes(-1, -2),
                              moments[live, : n + 1])
    if not found.any():
        live[live] = found
        return lower, upper, live
    # non-negative (to -1e-6) and finite; NaN fails both comparisons
    found &= ((weights >= -1e-6) & (weights < np.inf)).all(axis=-1)
    weights = np.maximum(weights, 0.0)
    below = _masked_sums(weights, atoms < near - _ATOM_TOL)
    at = _masked_sums(weights, np.abs(atoms - near) <= _ATOM_TOL)
    total = weights.sum(axis=-1)
    found &= total > 0
    live[live] = found
    below, at, total = below[found], at[found], total[found]
    lower[live] = below / total
    upper[live] = np.minimum(1.0, (below + at) / total)
    return lower, upper, live


def _masked_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row, the float numpy gives for ``values[row][mask[row]].sum()``.

    Summing zeros in place of the unselected entries is not the same:
    from eight entries on, numpy sums pairwise, and the pairing depends
    on the entry count.  So each row's selected entries are packed to the
    front and rows are summed in groups of equal count, one contiguous
    slice per group.
    """
    order = np.argsort(~mask, axis=-1, kind="stable")
    packed = np.take_along_axis(values, order, axis=-1)
    counts = mask.sum(axis=-1)
    out = np.zeros(values.shape[0])
    for count in np.unique(counts):
        rows = counts == count
        out[rows] = packed[rows, :count].sum(axis=-1)
    return out


@functools.lru_cache(maxsize=None)
def _rtt_indices(n: int) -> tuple[np.ndarray, ...]:
    """Hankel gather, right-hand-side and companion subdiagonal indices
    for systems of size n (read-only: every caller shares them)."""
    indices = (np.arange(n)[:, None] + np.arange(n)[None, :],
               np.arange(n) + n, np.arange(1, n), np.arange(n - 1))
    for index in indices:
        index.setflags(write=False)
    return indices


def _shifted_scaled_rows(mu: np.ndarray, centers: np.ndarray,
                         halves: np.ndarray) -> np.ndarray:
    """Row-wise ``moments.shifted_scaled_moments`` with per-row supports."""
    with np.errstate(all="ignore"):
        out = shifted_moments(mu, centers)
        out /= halves[:, None] ** np.arange(mu.shape[1], dtype=float)
    out[:, 0] = 1.0
    return out


def _rtt_family_rows(sums: np.ndarray, counts: np.ndarray, orders: np.ndarray,
                     members: np.ndarray, lows: np.ndarray, highs: np.ndarray,
                     points: np.ndarray, lo_frac: np.ndarray,
                     hi_frac: np.ndarray, solved: np.ndarray) -> None:
    """One moment family's RTT pass over eligible rows, updating in place.

    The moment preparation (raw moments, binomial shift, scaling,
    stability truncation) runs stacked per distinct order.  Each row's
    truncation leaves its own longest odd prefix of moments 0..2n, so
    the rows are then grouped by prefix size and each group's canonical
    representations run stacked (:func:`_rtt_cdf_rows`).
    """
    for order in np.unique(orders[members]):
        group = members[orders[members] == order]
        mu = _raw_moment_rows(sums[group], counts[group], int(order))
        centers = 0.5 * (highs[group] + lows[group])
        halves = 0.5 * (highs[group] - lows[group])
        scaled = _shifted_scaled_rows(mu, centers, halves)
        usable = np.maximum(stable_orders_rows(scaled), 1) + 1
        sizes = usable - 1 + usable % 2  # longest odd prefix
        scaled_points = (points[group] - centers) / halves
        for size in np.unique(sizes[sizes >= 3]):
            at = np.flatnonzero(sizes == size)
            lo, hi, ok = _rtt_cdf_rows(scaled[at, :size], scaled_points[at])
            rows = group[at[ok]]
            lo_frac[rows] = np.maximum(lo_frac[rows], lo[ok])
            hi_frac[rows] = np.minimum(hi_frac[rows], hi[ok])
            solved[rows] = True


def rtt_bound_batch(moments: ColumnarMoments, t,
                    max_order: int | None = None) -> RankBoundsBatch:
    """RTT bounds on rank(t) for every row of a columnar block.

    The array form of :func:`rtt_bound`: early range classification, the
    Appendix-B order caps, each family's moment conditioning and the
    canonical representations themselves run stacked over the packed
    power-sum matrices, and every row intersects with its Markov bound
    (:func:`markov_bound_batch`).  ``t`` may be one threshold or a
    per-row array.  Rows where both Hankel solves degenerate keep their
    Markov rows.
    """
    markov = markov_bound_batch(moments, t, max_order=max_order)
    return _rtt_bound_rows(moments, t, markov, max_order)


def _rtt_bound_rows(moments: ColumnarMoments, t, markov: RankBoundsBatch,
                    max_order: int | None = None) -> RankBoundsBatch:
    """:func:`rtt_bound_batch` given the block's Markov bounds at the
    same ``t`` and ``max_order``.

    The threshold cascade holds those from its Markov stage; both kernels
    are row-wise, so handing them over gives the same bounds as
    recomputing them.
    """
    _require_nonempty_rows(moments)
    counts = moments.counts
    ts = _thresholds(t, counts)
    below = ts <= moments.mins
    above = ts > moments.maxs
    lower = np.where(below, 0.0, np.where(above, counts, markov.lower))
    upper = np.where(below, 0.0, np.where(above, counts, markov.upper))
    middle = np.flatnonzero(~below & ~above)
    if middle.size:
        k1, k2 = _cheap_order_caps_rows(moments, middle)
        if max_order is not None:
            k1 = np.minimum(k1, max_order)
            k2 = np.minimum(k2, max_order)
        mins = moments.mins[middle]
        maxs = moments.maxs[middle]
        ts_mid = ts[middle]
        lo_frac = np.zeros(middle.size)
        hi_frac = np.ones(middle.size)
        solved = np.zeros(middle.size, dtype=bool)
        std_members = np.flatnonzero((maxs > mins) & (k1 >= 2))
        if std_members.size:
            _rtt_family_rows(moments.power_sums[middle], counts[middle], k1,
                             std_members, mins, maxs,
                             ts_mid, lo_frac, hi_frac, solved)
        log_eligible = moments.usable_log()[middle] & (k2 >= 2) & (ts_mid > 0)
        if log_eligible.any():
            log_mins = np.log(np.where(log_eligible, mins, 1.0))
            log_maxs = np.log(np.where(log_eligible, maxs, 2.0))
            log_members = np.flatnonzero(log_eligible & (log_maxs > log_mins))
            if log_members.size:
                _rtt_family_rows(moments.log_sums[middle], counts[middle], k2,
                                 log_members, log_mins, log_maxs,
                                 np.log(np.where(log_eligible, ts_mid, 1.0)),
                                 lo_frac, hi_frac, solved)
        hi_frac = np.where(solved, np.maximum(hi_frac, lo_frac), hi_frac)
        rows = middle[solved]
        # intersect with the Markov rows, exactly like the scalar path
        lower[rows] = np.maximum(lo_frac[solved] * counts[rows], lower[rows])
        upper[rows] = np.minimum(hi_frac[solved] * counts[rows], upper[rows])
    return RankBoundsBatch(lower=lower, upper=upper, counts=counts.copy())


def rtt_bound(sketch: MomentsSketch, t: float,
              max_order: int | None = None) -> RankBounds:
    """RTT bounds on rank(t), intersected across moment families.

    Scales data onto [-1, 1] first (the Hankel systems are hopeless in raw
    units), runs the canonical-representation bound on the standard moments
    and, when available, on the log moments, and keeps the tighter bounds.
    Falls back to :func:`markov_bound` when both solves degenerate.

    Delegates to :func:`rtt_bound_batch` with a one-row block, so the
    scalar and vectorized forms cannot drift apart.
    """
    sketch.require_nonempty()
    batch = rtt_bound_batch(ColumnarMoments.from_sketches([sketch]), t,
                            max_order=max_order)
    return batch.row(0)


def quantile_error_bounds(sketch: MomentsSketch, estimates, phis
                          ) -> np.ndarray:
    """Guaranteed quantile error of each ``estimates[i]`` as a
    ``phis[i]``-quantile (App. E), from one :func:`rtt_bound_batch`.

    Every dataset matching the sketch has F(estimate) inside the RTT bounds,
    so the rank error of ``estimate`` is at most the distance from phi to
    the far end of those bounds.  This is the ``epsilon_bound`` series of
    Figure 23.
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    outside = ~((phis >= 0.0) & (phis <= 1.0))
    if outside.any():
        raise BoundError(f"phi must be in [0, 1], got {phis[outside][0]}")
    sketch.require_nonempty()
    # the sketch once per estimate, each row with its own threshold
    block = ColumnarMoments.from_sketches([sketch]).take(
        np.zeros(phis.size, dtype=int))
    lo, hi = rtt_bound_batch(block, estimates).fractions()
    return np.maximum(np.maximum(hi - phis, phis - lo), 0.0)


def quantile_error_bound(sketch: MomentsSketch, estimate: float, phi: float) -> float:
    """:func:`quantile_error_bounds` for one estimate."""
    return float(quantile_error_bounds(sketch, [estimate], [phi])[0])
