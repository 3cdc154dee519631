"""Moments sketch adapter to the common summary interface ("M-Sketch").

Wraps :class:`repro.core.MomentsSketch` plus the max-entropy estimator so
the workload harness and engines can benchmark it against the comparator
summaries through one API.  The fit — the solved estimator, or the
failure that sends answers to the two-point model — is cached and
invalidated on mutation, mirroring how an engine would finalize an
aggregation once.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.bounds import quantile_error_bound
from ..core.errors import ConvergenceError
from ..core.quantile import QuantileEstimator, two_point_quantiles
from ..core.sketch import MomentsSketch
from ..core.solver import SolverConfig
from .base import QuantileSummary


class MomentsSummary(QuantileSummary):
    """The paper's sketch behind the generic summary interface."""

    name = "M-Sketch"

    def __init__(self, k: int = 10, track_log: bool = True,
                 config: SolverConfig | None = None):
        self.sketch = MomentsSketch(k=k, track_log=track_log)
        self.config = config or SolverConfig()
        self._drop_fit()

    @property
    def k(self) -> int:
        return self.sketch.k

    # ------------------------------------------------------------------

    def accumulate(self, values: Iterable[float]) -> None:
        self.sketch.accumulate(values)
        self._drop_fit()

    def merge(self, other: "QuantileSummary") -> "MomentsSummary":
        self._check_type(other)
        assert isinstance(other, MomentsSummary)
        self.sketch.merge(other.sketch)
        self._drop_fit()
        return self

    def _drop_fit(self) -> None:
        self._estimator: QuantileEstimator | None = None
        self._fit_failed = False

    @property
    def has_fit(self) -> bool:
        """Whether the fit (or its failure) is cached, so answers run none."""
        return self._estimator is not None or self._fit_failed

    def seed_fit(self, estimator: QuantileEstimator | None) -> None:
        """Adopt a fit made elsewhere with this summary's config and backoff.

        The batched group path (``fit_estimators``) seeds its rows here;
        ``None`` records a fit that raised :class:`ConvergenceError`.
        """
        self._estimator = estimator
        self._fit_failed = estimator is None

    def fitted(self) -> QuantileEstimator | None:
        """The solved max-entropy model, or ``None`` if the fit failed.

        Both outcomes are cached until the next mutation, so a sketch
        the solver cannot fit (near-discrete data, Figure 8) costs one
        fit, not one per call.
        """
        if not self.has_fit:
            try:
                self._estimator = QuantileEstimator.fit(
                    self.sketch, config=self.config, allow_backoff=True)
            except ConvergenceError:
                self._fit_failed = True
        return self._estimator

    def quantile(self, phi: float) -> float:
        return float(self.quantiles([phi])[0])

    def quantiles(self, phis) -> np.ndarray:
        phis = np.asarray(phis, dtype=float)
        estimator = self.fitted()
        if estimator is None:
            # Near-discrete data (Figure 8): degrade to the two-point model.
            return two_point_quantiles(self.sketch, phis)
        return estimator.quantiles(phis)

    def size_bytes(self) -> int:
        return self.sketch.size_bytes()

    def copy(self) -> "MomentsSummary":
        out = MomentsSummary(k=self.sketch.k, track_log=self.sketch.track_log,
                             config=self.config)
        out.sketch = self.sketch.copy()
        return out

    @property
    def count(self) -> float:
        return self.sketch.count

    def error_upper_bound(self, phi: float) -> float | None:
        """RTT-certified worst-case rank error of the estimate (App. E)."""
        if self.sketch.is_empty:
            return None
        return quantile_error_bound(self.sketch, self.quantile(phi), phi)
