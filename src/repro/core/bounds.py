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
one batched max-entropy solve.  The scalar entry points delegate to the
batched kernels with a one-row block, so scalar and vectorized results
are equal element-wise by construction.
"""

from __future__ import annotations

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


def _valid_transform_moments_rows(values: np.ndarray, span: np.ndarray
                                  ) -> np.ndarray:
    """Row-wise mask of usable moments of a non-negative transform.

    A genuine moment of data on [0, span] is finite, non-negative, and at
    most span**j; anything else is floating-point debris from the binomial
    shift and must not feed an inequality.
    """
    j = np.arange(values.shape[1], dtype=float)
    with np.errstate(over="ignore"):
        ceiling = span[:, None] ** j * (1.0 + 1e-9)
    return np.isfinite(values) & (values >= 0.0) & (values <= ceiling)


def _markov_lower_rows(mu: np.ndarray, xmins: np.ndarray, t,
                       spans: np.ndarray) -> np.ndarray:
    """``F(t) >= 1 - min_j E[(X - xmin)**j] / (t - xmin)**j``, per row."""
    gaps = t - xmins
    plus = shifted_moments(mu, xmins)
    valid = _valid_transform_moments_rows(plus, spans)
    # gap**j can underflow to zero for tiny gaps at high order; the
    # resulting inf ratio is simply never the minimum.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratios = plus[:, 1:] / gaps[:, None] ** np.arange(
            1, plus.shape[1], dtype=float)
    usable = valid[:, 1:] & np.isfinite(ratios)
    best = np.where(usable, ratios, np.inf).min(axis=1, initial=1.0)
    return np.where(gaps > 0, 1.0 - np.minimum(best, 1.0), 0.0)


def _markov_upper_rows(mu: np.ndarray, xmaxs: np.ndarray, t,
                       spans: np.ndarray) -> np.ndarray:
    """``F(t) <= min_j E[(xmax - X)**j] / (xmax - t)**j``, per row."""
    gaps = xmaxs - t
    minus = shifted_moments(mu, xmaxs)
    minus[:, 1::2] = -minus[:, 1::2]
    valid = _valid_transform_moments_rows(minus, spans)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratios = minus[:, 1:] / gaps[:, None] ** np.arange(
            1, minus.shape[1], dtype=float)
    usable = valid[:, 1:] & np.isfinite(ratios)
    best = np.where(usable, ratios, np.inf).min(axis=1, initial=1.0)
    return np.where(gaps > 0, np.minimum(best, 1.0), 1.0)


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
    per-row array (the top-n bracket bisection probes per-row
    midpoints).  Every operation is element-wise per row, so
    ``markov_bound_batch(cm, t).row(i) == markov_bound(cm.sketch_at(i), t)``
    exactly — the equivalence that keeps batched cascade decisions
    bit-identical to the scalar cascade's.
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
        spans = maxs - mins
        lf = np.zeros(middle.size)
        uf = np.ones(middle.size)
        for order in np.unique(k1):
            members = np.flatnonzero(k1 == order)
            rows = middle[members]
            mu = _raw_moment_rows(moments.power_sums[rows], counts[rows],
                                  int(order))
            lf[members] = _markov_lower_rows(mu, mins[members],
                                             ts_mid[members], spans[members])
            uf[members] = _markov_upper_rows(mu, maxs[members],
                                             ts_mid[members], spans[members])
        log_rows = np.flatnonzero((k2 > 0) & (ts_mid > 0))
        if log_rows.size:
            for order in np.unique(k2[log_rows]):
                members = log_rows[k2[log_rows] == order]
                rows = middle[members]
                nu = _raw_moment_rows(moments.log_sums[rows], counts[rows],
                                      int(order))
                log_t = np.log(ts_mid[members])
                log_mins = np.log(mins[members])
                log_maxs = np.log(maxs[members])
                log_spans = log_maxs - log_mins
                lf[members] = np.maximum(
                    lf[members],
                    _markov_lower_rows(nu, log_mins, log_t, log_spans))
                uf[members] = np.minimum(
                    uf[members],
                    _markov_upper_rows(nu, log_maxs, log_t, log_spans))
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


def _canonical_representation(moments: np.ndarray, point: float) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and weights of the principal representation pinned at ``point``.

    ``moments[i] = E[u**i]`` for i = 0..2n must hold 2n + 1 values.  Builds
    the monic degree-n polynomial q orthogonal to ``(u - point) * u**i`` for
    i < n; its roots plus ``point`` are the support of a discrete
    distribution matching all 2n + 1 moments.  Raises :class:`BoundError`
    when the moment matrix is numerically degenerate (e.g. the underlying
    data has fewer distinct values than atoms).
    """
    size = moments.size
    if size < 3 or size % 2 == 0:
        raise BoundError(f"need an odd number of moments >= 3, got {size}")
    n = (size - 1) // 2
    # Linear system sum_j a_j (m_{i+j+1} - point * m_{i+j}) = -(rhs) from
    # orthogonality of the monic q against (u - point) u**i, assembled as
    # one shifted-Hankel gather.
    index = np.arange(n)[:, None] + np.arange(n)[None, :]
    system = moments[index + 1] - point * moments[index]
    tail = np.arange(n) + n
    rhs = -(moments[tail + 1] - point * moments[tail])
    try:
        coeffs = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise BoundError("degenerate Hankel system in RTT bound") from exc
    monic = np.concatenate([coeffs, [1.0]])  # ascending powers, degree n
    roots = np.polynomial.polynomial.polyroots(monic)
    if np.any(np.abs(roots.imag) > 1e-7):
        raise BoundError("complex atoms in RTT canonical representation")
    atoms = np.concatenate([roots.real, [point]])
    # Weights from the (n+1)-moment Vandermonde system.
    vander = np.vander(atoms, len(atoms), increasing=True).T
    try:
        weights = np.linalg.solve(vander, moments[: len(atoms)])
    except np.linalg.LinAlgError as exc:
        raise BoundError("singular Vandermonde in RTT bound") from exc
    if np.any(weights < -1e-6):
        raise BoundError("negative weights in RTT canonical representation")
    return atoms, np.clip(weights, 0.0, None)


def _rtt_cdf_bounds(moments: np.ndarray, point: float) -> tuple[float, float]:
    """Extremal values of F(point) over distributions matching ``moments``."""
    atoms, weights = _canonical_representation(moments, point)
    below = float(weights[atoms < point - _ATOM_TOL].sum())
    at = float(weights[np.abs(atoms - point) <= _ATOM_TOL].sum())
    total = float(weights.sum())
    if total <= 0:
        raise BoundError("zero total mass in RTT representation")
    return below / total, min(1.0, (below + at) / total)


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
    stability truncation) runs stacked per distinct order; the
    Hankel-solve + root-finding core is inherently per-row (each row's
    truncation yields its own system size) and reuses the scalar
    :func:`_rtt_cdf_bounds` verbatim.
    """
    for order in np.unique(orders[members]):
        group = members[orders[members] == order]
        mu = _raw_moment_rows(sums[group], counts[group], int(order))
        centers = 0.5 * (highs[group] + lows[group])
        halves = 0.5 * (highs[group] - lows[group])
        scaled = _shifted_scaled_rows(mu, centers, halves)
        usable = np.maximum(stable_orders_rows(scaled), 1) + 1
        scaled_points = (points[group] - centers) / halves
        for position, row in enumerate(group):
            prefix = _odd_prefix(scaled[position, : usable[position]])
            try:
                lo, hi = _rtt_cdf_bounds(prefix, float(scaled_points[position]))
            except BoundError:
                continue
            lo_frac[row] = max(lo_frac[row], lo)
            hi_frac[row] = min(hi_frac[row], hi)
            solved[row] = True


def rtt_bound_batch(moments: ColumnarMoments, t,
                    max_order: int | None = None) -> RankBoundsBatch:
    """RTT bounds on rank(t) for every row of a columnar block.

    The array form of :func:`rtt_bound`: early range classification, the
    Appendix-B order caps, and each family's moment conditioning run
    stacked over the packed power-sum matrices; the per-row canonical
    representation reuses the scalar solver, and every row intersects
    with its (vectorized) Markov bound exactly as the scalar path does.
    ``t`` may be one threshold or a per-row array.  Rows where both
    Hankel solves degenerate fall back to their Markov rows, mirroring
    the scalar fallback.
    """
    _require_nonempty_rows(moments)
    counts = moments.counts
    size = len(moments)
    ts = _thresholds(t, counts)
    markov = markov_bound_batch(moments, ts, max_order=max_order)
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


def _odd_prefix(moments: np.ndarray) -> np.ndarray:
    """Longest odd-length prefix (the RTT solve needs moments 0..2n)."""
    usable = moments.size if moments.size % 2 == 1 else moments.size - 1
    return moments[:usable]


def quantile_error_bound(sketch: MomentsSketch, estimate: float, phi: float) -> float:
    """Guaranteed quantile error of ``estimate`` as a phi-quantile (App. E).

    Every dataset matching the sketch has F(estimate) inside the RTT bounds,
    so the rank error of ``estimate`` is at most the distance from phi to
    the far end of those bounds.  This is the ``epsilon_bound`` series of
    Figure 23.
    """
    if not 0.0 <= phi <= 1.0:
        raise BoundError(f"phi must be in [0, 1], got {phi}")
    bounds = rtt_bound(sketch, estimate)
    lo, hi = bounds.fraction()
    return max(hi - phi, phi - lo, 0.0)
