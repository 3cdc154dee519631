"""Conversions between sketch power sums and solver-ready moment vectors.

The sketch stores *unscaled power sums* ``sum(x**i)`` and ``sum(log(x)**i)``
(Section 4.1, "implementation detail").  The solver and the bound routines
need moments of data shifted and scaled onto [-1, 1] (Section 4.4), and
ultimately *Chebyshev moments* ``E[T_i(s(x))]`` (Section 4.3.1 / Appendix A).

This module implements those conversions:

``raw_moments``          power sums -> sample moments mu_i = (1/n) sum x**i
``shifted_scaled_moments``  mu_i of x -> mu_i of (x - c) / r  (binomial shift)
``chebyshev_moments``    mu_i of scaled data -> E[T_i(u)]

It also implements the Appendix-B floating point stability analysis:
``shift_error_bound`` bounds the absolute error of the shifted moments and
``max_stable_order`` reproduces Eq. (21)'s conservative usable-order cutoff
(k <= 13.35 / (0.78 + log10(|c| + 1))), used by the k1/k2 selector and the
Figure 15 benchmark.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import comb

from .chebyshev import _cached_coefficient_table

#: Relative error assumed for each stored power sum (Appendix B's eps_s);
#: float64 machine epsilon.
POWER_SUM_RELATIVE_ERROR = 2.0 ** -53


@dataclass(frozen=True)
class ScaledSupport:
    """Affine map taking a data interval [lo, hi] onto [-1, 1].

    ``scale(x) = (x - center) / half_width``.  ``center_offset`` is the
    quantity the paper calls ``c``: the midpoint of the *scaled* data when
    only the half-width scaling (not the shift) has been applied, i.e.
    ``center / half_width``.  It controls how much precision the binomial
    shift burns (Appendix B).
    """

    lo: float
    hi: float

    @property
    def center(self) -> float:
        return 0.5 * (self.hi + self.lo)

    @property
    def half_width(self) -> float:
        return 0.5 * (self.hi - self.lo)

    @property
    def degenerate(self) -> bool:
        """True when the support is a single point (constant data)."""
        return not (self.hi > self.lo)

    @property
    def center_offset(self) -> float:
        """Appendix B's ``c``: center measured in half-width units."""
        if self.degenerate:
            return 0.0
        return self.center / self.half_width

    def scale(self, x: np.ndarray) -> np.ndarray:
        """Map data values onto [-1, 1]."""
        x = np.asarray(x, dtype=float)
        if self.degenerate:
            return np.zeros_like(x)
        return (x - self.center) / self.half_width

    def unscale(self, u: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`scale`."""
        u = np.asarray(u, dtype=float)
        return self.center + self.half_width * u


def raw_moments(power_sums: np.ndarray, count: float) -> np.ndarray:
    """Sample moments ``mu_i = power_sums[i] / count`` with ``mu_0 = 1``.

    ``power_sums[i]`` must be ``sum(x**i)`` with ``power_sums[0] == count``
    permitted but not required (index 0 is overwritten with 1 exactly).
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    mu = np.asarray(power_sums, dtype=float) / float(count)
    mu = mu.copy()
    mu[0] = 1.0
    return mu


@functools.lru_cache(maxsize=64)
def binomial_table(size: int) -> np.ndarray:
    """Lower-triangular Pascal matrix ``C[k, i] = comb(k, i)`` (read-only)."""
    k = np.arange(size)[:, None]
    i = np.arange(size)[None, :]
    table = comb(k, i) * (i <= k)
    table.setflags(write=False)
    return table


def shifted_moments(mu: np.ndarray, shift) -> np.ndarray:
    """``E[(x - shift)**k]`` for every k, from raw moments of ``x``.

    One vectorized binomial expansion (Appendix B):
    ``E[(x - shift)**k] = sum_i C(k, i) mu_i (-shift)**(k - i)``.  This sits
    on the hot path of the moment bounds, which the threshold cascade calls
    once per subgroup.

    Stacked form: ``mu`` may be ``(rows, size)`` with a matching
    ``(rows,)`` array of shifts, evaluating every row in one pass.  The
    stacked contraction is a cumulative sum over the moment index
    (``add.accumulate``, a sequential left fold, never pairwise), so every
    row of a stacked call is bit-for-bit identical regardless of which
    other rows share the batch — the property the vectorized cascade
    bounds are gated on.  (The
    scalar bound entry points delegate to the batched kernels, so the
    1-D fast path below serves the one-row conversions such as
    :func:`power_sums_to_chebyshev_moments`;
    :func:`scaled_moment_rows` rounds the same way row by row.)
    """
    mu = np.asarray(mu, dtype=float)
    size = mu.shape[-1]
    pascal, exponent_index = _shift_structure(size)
    if mu.ndim == 1:
        with np.errstate(all="ignore"):
            powers = (-float(shift)) ** np.arange(size)
            out = (pascal * powers[exponent_index]) @ mu
        out[0] = 1.0
        return out
    with np.errstate(all="ignore"):
        powers = (-np.asarray(shift, dtype=float))[..., None] ** np.arange(size)
        matrix = pascal * powers[..., exponent_index]
        matrix *= mu[..., None, :]
        out = np.cumsum(matrix, axis=-1)[..., -1].copy()
    out[..., 0] = 1.0
    return out


@functools.lru_cache(maxsize=64)
def _shift_structure(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Pascal matrix and exponent-index matrix for one size.

    ``pascal[k, i] * powers[k - i]`` realizes the binomial shift; the
    exponent index is clamped at zero where the Pascal entry is already
    zero, so no masking is needed at call time.
    """
    pascal = binomial_table(size)
    exponents = np.arange(size)[:, None] - np.arange(size)[None, :]
    index = np.clip(exponents, 0, size - 1)
    index.setflags(write=False)
    return pascal, index


def shifted_scaled_moments(mu: np.ndarray, support: ScaledSupport) -> np.ndarray:
    """Moments of ``u = (x - center) / half_width`` from moments of ``x``.

    Binomial shift (see :func:`shifted_moments`) followed by the power
    scaling.  This is the step that loses floating-point precision when the
    data is centered far from zero; see :func:`shift_error_bound`.  Extreme
    supports can overflow intermediates; the resulting non-finite moments
    are recognized downstream by the stability checks.
    """
    mu = np.asarray(mu, dtype=float)
    k_max = mu.size - 1
    if support.degenerate:
        out = np.zeros(k_max + 1)
        out[0] = 1.0
        return out
    with np.errstate(all="ignore"):
        out = shifted_moments(mu, support.center)
        out /= support.half_width ** np.arange(k_max + 1, dtype=float)
    out[0] = 1.0
    return out


def chebyshev_moments(scaled_mu: np.ndarray) -> np.ndarray:
    """Chebyshev moments ``E[T_i(u)]`` from monomial moments of ``u``.

    Linear map through the Chebyshev coefficient table:
    ``E[T_i(u)] = sum_j C[i, j] E[u**j]``.
    """
    scaled_mu = np.asarray(scaled_mu, dtype=float)
    order = scaled_mu.size - 1
    table = _cached_coefficient_table(max(order, 0))
    return table[: order + 1, : order + 1] @ scaled_mu


def power_sums_to_chebyshev_moments(
    power_sums: np.ndarray, count: float, support: ScaledSupport
) -> np.ndarray:
    """Full pipeline: unscaled power sums -> ``E[T_i(u)]`` on [-1, 1]."""
    return chebyshev_moments(shifted_scaled_moments(raw_moments(power_sums, count), support))


def scaled_moment_rows(sums: np.ndarray, counts: np.ndarray,
                       lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Row-wise ``shifted_scaled_moments(raw_moments(...))``.

    Row ``p`` holds the moments of ``u`` for the power sums ``sums[p]`` of
    ``counts[p]`` values on the support ``[lows[p], highs[p]]``; a
    degenerate support gives the point ``u = 0``.  The binomial shift is
    one matrix-vector product per row, as in :func:`shifted_moments` on
    one row (numpy's stacked matmul runs the same kernel slice by slice),
    so the shift's cancellation rounds the same way and a row does not
    depend on the other rows.
    """
    size = sums.shape[1]
    mu = sums / np.asarray(counts, dtype=float)[:, None]
    mu[:, 0] = 1.0
    halves = 0.5 * (highs - lows)
    pascal, exponent_index = _shift_structure(size)
    with np.errstate(all="ignore"):
        powers = (-0.5 * (highs + lows))[:, None] ** np.arange(size)
        # C order whatever the row count, so every row takes the same
        # matmul kernel.
        shift = np.ascontiguousarray(pascal * powers[:, exponent_index])
        scaled = np.matmul(shift, mu[:, :, None])[:, :, 0]
        scaled /= halves[:, None] ** np.arange(size, dtype=float)
    scaled[:, 0] = 1.0
    scaled[~(halves > 0), 1:] = 0.0
    return scaled


def chebyshev_moment_rows(sums: np.ndarray, counts: np.ndarray,
                          lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Row-wise :func:`power_sums_to_chebyshev_moments`.

    Takes the arguments of :func:`scaled_moment_rows`; the Chebyshev map
    is one matrix-vector product per row, as on one row.
    """
    table = _cached_coefficient_table(sums.shape[1] - 1)
    scaled = scaled_moment_rows(sums, counts, lows, highs)
    return np.matmul(table, scaled[:, :, None])[:, :, 0]


def shift_error_bound(order: int, center_offset: float,
                      relative_error: float = POWER_SUM_RELATIVE_ERROR) -> float:
    """Appendix-B bound on the absolute error of the k-th shifted moment.

    ``delta_k <= 2**k (|c| + 1)**k * eps_s`` where ``c`` is the center offset
    in half-width units and ``eps_s`` the relative error of the stored power
    sums.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return (2.0 * (abs(center_offset) + 1.0)) ** order * relative_error


def max_stable_order(center_offset: float) -> int:
    """Eq. (21): conservative highest usable moment order for float64 sums.

    ``k <= 13.35 / (0.78 + log10(|c| + 1))``.  Data centered at zero gives
    k ~ 17; data at ``c = 2`` (range ``[xmin, 3 xmin]``) gives k ~ 10.  The
    library additionally hard-caps usable order at 16, matching the paper's
    empirical observation that k >= 16 is unstable even for centered data.
    """
    denom = 0.78 + np.log10(abs(center_offset) + 1.0)
    return int(min(np.floor(13.35 / denom), 16))


def max_stable_orders(center_offsets: np.ndarray) -> np.ndarray:
    """Vectorized :func:`max_stable_order`."""
    denom = 0.78 + np.log10(np.abs(center_offsets) + 1.0)
    return np.minimum(np.floor(13.35 / denom), 16).astype(int)


def stable_order_empirical(scaled_mu: np.ndarray,
                           tolerance: float = 1.0) -> int:
    """Highest order whose shifted moment is numerically meaningful.

    A scaled moment must satisfy ``|mu_k| <= 1`` (the data lives on [-1, 1]);
    precision loss shows up as violations of this invariant or as wild
    magnitudes.  Returns the largest prefix length whose moments all satisfy
    ``|mu_k| <= tolerance`` (tolerance slightly above 1 allows for harmless
    rounding).  Used by the selector as a data-driven backstop on top of
    :func:`max_stable_order`.
    """
    scaled_mu = np.asarray(scaled_mu, dtype=float)
    limit = 1.0 + 1e-9 if tolerance == 1.0 else tolerance
    for k in range(scaled_mu.size):
        if not np.isfinite(scaled_mu[k]) or abs(scaled_mu[k]) > limit:
            return k - 1
    return scaled_mu.size - 1


def stable_orders_rows(scaled: np.ndarray, tolerance: float = 1.0
                       ) -> np.ndarray:
    """Row-wise :func:`stable_order_empirical` over scaled-moment rows."""
    limit = 1.0 + 1e-9 if tolerance == 1.0 else tolerance
    violation = ~np.isfinite(scaled) | (np.abs(scaled) > limit)
    any_violation = violation.any(axis=1)
    first = np.argmax(violation, axis=1)
    return np.where(any_violation, first - 1, scaled.shape[1] - 1)


def uniform_chebyshev_moments(order: int) -> np.ndarray:
    """``E[T_i(U)]`` for ``U`` uniform on [-1, 1].

    Closed form: 0 for odd i, ``1 / (1 - i**2)`` for even i.  The k1/k2
    selection heuristic prefers observed Chebyshev moments close to these
    values (Section 4.3.1).
    """
    out = np.zeros(order + 1)
    i = np.arange(0, order + 1, 2)
    out[::2] = 1.0 / (1.0 - i.astype(float) ** 2)
    return out
