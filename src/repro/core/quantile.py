"""Quantile estimation from a moments sketch (Section 4.2).

This is the user-facing entry point tying the pieces together:

1. pick usable moment counts (``selector``),
2. solve for the maximum entropy density (``solver``),
3. re-interpolate the density on a fine Chebyshev grid and integrate it
   into a CDF in closed form (Chebyshev antiderivative), then tabulate the
   CDF and invert the table.  :meth:`QuantileEstimator.quantile_brent`
   keeps the paper's recipe ("numeric integration and the Brent's method
   for root finding") for verification.

All three steps run on the same stacked kernels as the batched estimator
(:func:`repro.core.batch_solver.fit_estimators`): a single fit is their
one-row case, and both take the same moment-backoff ladder
(:func:`_back_off`) when a solve fails.  The result object keeps the
solved density around so callers (the cascade, the bound evaluation,
tests) can interrogate the CDF without re-solving.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct
from scipy.optimize import brentq

from .chebyshev import chebyshev_nodes, eval_chebyshev_series
from .errors import ConvergenceError, EstimationError
from .selector import MomentSelection, select_moments
from .sketch import MomentsSketch
from .solver import (
    MaxEntBasis,
    MaxEntResult,
    SolverConfig,
    _basis_matrices_stacked,
    build_basis,
    solve,
)

#: Fewest intervals of the Lobatto grid a CDF is tabulated on.
_MIN_TABLE_INTERVALS = 2048


@dataclass
class QuantileEstimator:
    """Solved maximum-entropy model for one sketch.

    Construction runs the full fit (moment selection, Newton solve and CDF
    build: 1-2 ms for k = 10 on one core of a shared 2-vCPU x86 host);
    afterwards ``quantiles`` is a table lookup and ``cdf`` a Chebyshev
    series evaluation.
    """

    sketch: MomentsSketch
    basis: MaxEntBasis
    result: MaxEntResult
    selection: MomentSelection | None
    _cdf_coeffs: np.ndarray
    _cdf_offset: float
    _cdf_scale: float
    _grid_u: np.ndarray
    _grid_cdf: np.ndarray

    # ------------------------------------------------------------------
    # Factory
    # ------------------------------------------------------------------

    @classmethod
    def fit(cls, sketch: MomentsSketch, config: SolverConfig | None = None,
            k1: int | None = None, k2: int | None = None,
            domain: str | None = None,
            allow_backoff: bool = False) -> "QuantileEstimator":
        """Solve the max-entropy problem for ``sketch``.

        ``k1``/``k2`` override the automatic moment selection (used by the
        ablation benchmarks); ``domain`` overrides the integration-variable
        choice.  Raises :class:`ConvergenceError` when Newton fails, e.g. on
        near-discrete data (Figure 8).

        ``allow_backoff`` retries with progressively fewer moments when the
        solve fails.  Noisy moments (low-precision storage, extreme shift
        amplification) can leave the *high* orders mutually inconsistent
        while the low orders remain fine; production paths prefer a coarser
        answer over an exception.  Left off by default so benchmarks and
        tests observe raw solver behaviour.
        """
        config = config or SolverConfig()
        sketch.require_nonempty()
        if not sketch.max > sketch.min:
            return cls._point_mass(sketch, config)
        selection = None
        if k1 is None or k2 is None:
            selection = select_moments(sketch, config)
            if k1 is None:
                k1 = selection.k1
            if k2 is None:
                k2 = selection.k2
        basis = build_basis(sketch, k1, k2, config, domain=domain)
        try:
            result = solve(basis, config)
        except ConvergenceError as error:
            if not allow_backoff:
                raise
            basis, result = _back_off(sketch, k1, k2, error, config, domain)
        (cdf,) = _cdf_tables([basis], [result.theta], config)
        if cdf is None:
            raise EstimationError("solved density integrates to zero")
        return cls(sketch, basis, result, selection, *cdf)

    @classmethod
    def _point_mass(cls, sketch: MomentsSketch, config: SolverConfig) -> "QuantileEstimator":
        """Degenerate support: every quantile is the single value."""
        estimator = cls.__new__(cls)
        estimator.sketch = sketch
        estimator.basis = None  # type: ignore[assignment]
        estimator.result = None  # type: ignore[assignment]
        estimator.selection = None
        estimator._cdf_coeffs = np.zeros(0)
        estimator._cdf_offset = 0.0
        estimator._cdf_scale = 1.0
        estimator._grid_u = np.zeros(0)
        estimator._grid_cdf = np.zeros(0)
        return estimator

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    @property
    def is_point_mass(self) -> bool:
        return self._cdf_coeffs.size == 0

    def cdf_scaled(self, u: np.ndarray) -> np.ndarray:
        """CDF in integration-domain coordinates (u on [-1, 1])."""
        if self.is_point_mass:
            return (np.asarray(u) >= 0).astype(float)
        raw = eval_chebyshev_series(self._cdf_coeffs, np.clip(u, -1.0, 1.0))
        return np.clip((raw - self._cdf_offset) / self._cdf_scale, 0.0, 1.0)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Estimated CDF in data units."""
        x = np.asarray(x, dtype=float)
        if self.is_point_mass:
            return (x >= self.sketch.min).astype(float)
        below = x < self.sketch.min
        above = x > self.sketch.max
        u = self._to_domain(np.clip(x, self.sketch.min, self.sketch.max))
        values = self.cdf_scaled(u)
        values = np.where(below, 0.0, values)
        values = np.where(above, 1.0, values)
        return values

    def quantile(self, phi: float) -> float:
        """The phi-quantile of the max-entropy distribution."""
        return float(self.quantiles(np.asarray([phi]))[0])

    def quantiles(self, phis: np.ndarray) -> np.ndarray:
        """Vectorized quantiles via inverse interpolation of the CDF table.

        Raises :class:`EstimationError` for fractions outside [0, 1],
        NaN included.
        """
        phis = np.asarray(phis, dtype=float)
        if not np.all((phis >= 0.0) & (phis <= 1.0)):
            raise EstimationError("phi values must be in [0, 1]")
        if self.is_point_mass:
            return np.full(phis.shape, self.sketch.min)
        u = np.interp(phis, self._grid_cdf, self._grid_u)
        x = self._from_domain(u)
        return np.clip(x, self.sketch.min, self.sketch.max)

    def quantile_brent(self, phi: float) -> float:
        """Quantile by Brent root finding on the Chebyshev CDF.

        This is the estimation procedure exactly as described in
        Section 4.2 ("numeric integration and the Brent's method for root
        finding"); :meth:`quantile` tabulates the same CDF instead.  Kept
        for verification — tests assert both paths agree.
        """
        if not 0.0 <= phi <= 1.0:
            raise EstimationError(f"phi must be in [0, 1], got {phi}")
        if self.is_point_mass:
            return self.sketch.min
        if phi <= 0.0:
            return self.sketch.min
        if phi >= 1.0:
            return self.sketch.max

        def objective(u: float) -> float:
            return float(self.cdf_scaled(np.asarray(u))) - phi

        if objective(-1.0) >= 0.0:
            return self.sketch.min
        if objective(1.0) <= 0.0:
            return self.sketch.max
        u_star = brentq(objective, -1.0, 1.0, xtol=1e-12)
        return float(self._from_domain(np.asarray(u_star)))

    # ------------------------------------------------------------------
    # Domain mapping helpers
    # ------------------------------------------------------------------

    def _to_domain(self, x: np.ndarray) -> np.ndarray:
        if self.basis.domain == "log":
            assert self.basis.log_support is not None
            return self.basis.log_support.scale(np.log(x))
        return self.basis.support.scale(x)

    def _from_domain(self, u: np.ndarray) -> np.ndarray:
        if self.basis.domain == "log":
            assert self.basis.log_support is not None
            return np.exp(self.basis.log_support.unscale(u))
        return self.basis.support.unscale(u)


def _back_off(sketch: MomentsSketch, k1: int, k2: int,
              error: ConvergenceError, config: SolverConfig,
              domain: str | None = None) -> tuple[MaxEntBasis, MaxEntResult]:
    """The moment-backoff ladder below a ``(k1, k2)`` rung that failed.

    Each rung drops the highest moment of the larger family and solves
    again; the first rung that solves wins.  The ladder ends above
    ``k1 + k2 = 2``, where the last rung's ``error`` is raised.
    """
    while k1 + k2 > 2:
        if k1 >= k2:
            k1 -= 1
        else:
            k2 -= 1
        basis = build_basis(sketch, k1, k2, config, domain=domain)
        try:
            return basis, solve(basis, config)
        except ConvergenceError as exc:
            error = exc
    raise error


def _cdf_tables(bases: list, thetas: list, config: SolverConfig) -> list:
    """CDF series and monotone CDF table of each solved density, stacked.

    For every row: the density on ``cdf_grid_size`` Lobatto nodes (finer
    than the solve grid, so the CDF inherits interpolation-level accuracy),
    its Chebyshev coefficients by one DCT-I, the float dust below the row's
    relative noise floor trimmed, the antiderivative in closed form, and
    its ends from ``T_k(1) = 1`` and ``T_k(-1) = (-1)^k``.  The table
    evaluates the antiderivative on a Lobatto grid of at least
    ``max(2048, 4 * len)`` intervals (a power of two) with one more DCT-I.

    Returns ``(coeffs, offset, scale, grid_u, grid_cdf)`` per row, the
    :class:`QuantileEstimator` CDF fields, or ``None`` where the density
    integrates to zero.  Every step is element-wise, a reduction along the
    row, or a DCT along the row, so a row's output is the same whichever
    batch it is built in.
    """
    out: list = [None] * len(bases)
    nodes = chebyshev_nodes(config.cdf_grid_size)
    shapes: dict[tuple, list[int]] = {}
    for index, basis in enumerate(bases):
        shapes.setdefault((basis.k1, basis.k2, basis.domain), []).append(index)
    for members in shapes.values():
        matrices = _basis_matrices_stacked([bases[i] for i in members], nodes)
        theta = np.stack([thetas[i] for i in members])
        density = np.exp(np.matmul(theta[:, None, :], matrices)[:, 0, :])
        coeffs = dct(density, type=1, axis=-1) / config.cdf_grid_size
        coeffs[:, 0] *= 0.5
        coeffs[:, -1] *= 0.5
        # The density is smooth (an exponential of ~k basis functions), so
        # its coefficients decay fast; everything below the relative noise
        # floor is float dust whose only effect would be to lengthen every
        # later series evaluation.  A row with nothing significant keeps
        # its full length.
        full = coeffs.shape[1]
        above = np.abs(coeffs) > (np.abs(coeffs).max(axis=1) * 1e-14)[:, None]
        last = np.where(above.any(axis=1),
                        full - 1 - np.argmax(above[:, ::-1], axis=1), full - 1)
        coeffs[np.arange(full)[None, :] > last[:, None]] = 0.0
        # Antiderivative (chebyshev.antiderivative_series, row-wise):
        # b_1 = a_0 - a_2 / 2, b_k = (a_{k-1} - a_{k+1}) / (2k).
        padded = np.zeros((len(members), full + 2))
        padded[:, :full] = coeffs
        anti = np.zeros((len(members), full + 1))
        anti[:, 1] = padded[:, 0] - padded[:, 2] / 2.0
        anti[:, 2:] = ((padded[:, 1:full] - padded[:, 3:full + 2])
                       / (2.0 * np.arange(2, full + 1)))
        lengths = last + 2
        anti[np.arange(full + 1)[None, :] >= lengths[:, None]] = 0.0
        hi = anti.sum(axis=1)
        lo = (anti * _alternating_signs(full + 1)).sum(axis=1)
        scale = hi - lo
        tables: dict[int, list[int]] = {}
        for row, length in enumerate(lengths):
            if hi[row] > lo[row]:
                intervals = 1 << max(4 * int(length) - 1,
                                     _MIN_TABLE_INTERVALS - 1).bit_length()
                tables.setdefault(intervals, []).append(row)
        for intervals, rows in tables.items():
            # DCT-I: y_j = x_0 + (-1)^j x_N + 2 sum_k x_k cos(pi j k / N).
            # With x_0 = b_0 and x_k = (-1)^k b_k / 2 that is F at
            # -cos(pi j / N): the CDF on the ascending Lobatto grid.
            width = int(lengths[rows].max())
            halved = 0.5 * _alternating_signs(width)
            halved[0] = 1.0
            series = np.zeros((len(rows), intervals + 1))
            series[:, :width] = anti[rows, :width] * halved
            raw = dct(series, type=1, axis=-1)
            values = np.clip((raw - lo[rows, None]) / scale[rows, None],
                             0.0, 1.0)
            values = np.maximum.accumulate(values, axis=1)
            grid = _ascending_nodes(intervals)
            for position, row in enumerate(rows):
                out[members[row]] = (anti[row, :lengths[row]].copy(),
                                     float(lo[row]), float(scale[row]),
                                     grid, values[position].copy())
    return out


def _alternating_signs(size: int) -> np.ndarray:
    """``(-1)^k`` for k < size: the Chebyshev polynomials at u = -1."""
    signs = np.ones(size)
    signs[1::2] = -1.0
    return signs


@functools.lru_cache(maxsize=8)
def _ascending_nodes(intervals: int) -> np.ndarray:
    """The Lobatto nodes ``-cos(pi j / N)``, ascending from -1 to 1."""
    nodes = -chebyshev_nodes(intervals)
    nodes.setflags(write=False)
    return nodes


def estimate_quantiles(sketch: MomentsSketch, phis, config: SolverConfig | None = None,
                       k1: int | None = None, k2: int | None = None) -> np.ndarray:
    """One-shot helper: fit the estimator and evaluate a list of quantiles."""
    estimator = QuantileEstimator.fit(sketch, config=config, k1=k1, k2=k2)
    return estimator.quantiles(np.asarray(phis, dtype=float))


def estimate_quantile(sketch: MomentsSketch, phi: float,
                      config: SolverConfig | None = None) -> float:
    """Convenience scalar wrapper over :func:`estimate_quantiles`."""
    return float(estimate_quantiles(sketch, [phi], config=config)[0])


def safe_estimate_quantiles(sketch: MomentsSketch, phis,
                            config: SolverConfig | None = None) -> np.ndarray:
    """Quantiles with a graceful fallback when the solver cannot converge.

    On :class:`ConvergenceError` (near-discrete data) falls back to a
    two-point-mass model at the support endpoints matching the first moment
    — crude, but always defined, mirroring how an engine must degrade.
    """
    try:
        return estimate_quantiles(sketch, phis, config=config)
    except ConvergenceError:
        phis = np.asarray(phis, dtype=float)
        if not sketch.max > sketch.min:
            return np.full(phis.shape, sketch.min)
        mean = sketch.power_sums[1] / sketch.count
        weight_hi = (mean - sketch.min) / (sketch.max - sketch.min)
        return np.where(phis <= 1.0 - weight_hi, sketch.min, sketch.max)
