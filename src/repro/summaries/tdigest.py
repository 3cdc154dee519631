"""Merging t-digest [28].

Centroids ``(mean, weight)`` sorted by mean; the scale function
``k(q) = (delta / 2 pi) asin(2q - 1)`` limits each centroid to one unit of
k-space, which concentrates resolution at the extreme quantiles.  This is
the buffer-and-merge formulation from Dunning & Ertl's reference repository;
the paper benchmarks the AVL-tree variant of the same data structure with
identical accuracy characteristics, so this substitution keeps the
comparison.

Merging two digests concatenates centroid lists and re-clusters — the
operation is associative up to interpolation error, which is exactly the
"mergeable in practice" behaviour the paper measures.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .base import QuantileSummary, as_array

_BUFFER_LIMIT = 512


class TDigestSummary(QuantileSummary):
    """Merging t-digest with compression parameter ``delta``."""

    name = "T-Digest"

    def __init__(self, delta: float = 100.0):
        if delta <= 1.0:
            raise ValueError(f"delta must exceed 1, got {delta}")
        self.delta = float(delta)
        self._means = np.zeros(0)
        self._weights = np.zeros(0)
        self._count = 0.0
        self._min = np.inf
        self._max = -np.inf
        self._buffer: list[np.ndarray] = []
        self._buffered = 0

    # ------------------------------------------------------------------

    def accumulate(self, values: Iterable[float]) -> None:
        x = as_array(values)
        if x.size == 0:
            return
        self._min = min(self._min, float(x.min()))
        self._max = max(self._max, float(x.max()))
        self._buffer.append(x)
        self._buffered += x.size
        if self._buffered >= _BUFFER_LIMIT:
            self._flush()

    def _flush(self) -> None:
        if not self._buffer:
            return
        incoming = np.concatenate(self._buffer)
        self._buffer.clear()
        self._buffered = 0
        self._count += incoming.size
        means = np.concatenate([self._means, incoming])
        weights = np.concatenate([self._weights, np.ones(incoming.size)])
        self._means, self._weights = self._cluster(means, weights)

    def _scale(self, q: float) -> float:
        """k1 scale function: delta / (2 pi) * asin(2q - 1)."""
        return self.delta / (2.0 * math.pi) * math.asin(min(max(2.0 * q - 1.0, -1.0), 1.0))

    def _cluster(self, means: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Greedy left-to-right re-clustering under the k-space budget."""
        if means.size == 0:
            return means, weights
        order = np.argsort(means, kind="stable")
        mean_list = means[order].tolist()
        weight_list = weights[order].tolist()
        total = float(weights.sum())
        out_means: list[float] = [mean_list[0]]
        out_weights: list[float] = [weight_list[0]]
        q_left = 0.0
        k_left = self._scale(q_left)
        for mean, weight in zip(mean_list[1:], weight_list[1:]):
            q_new = q_left + (out_weights[-1] + weight) / total
            if self._scale(q_new) - k_left <= 1.0:
                # Merge into the current centroid (weighted mean).
                merged = out_weights[-1] + weight
                out_means[-1] += (mean - out_means[-1]) * weight / merged
                out_weights[-1] = merged
            else:
                q_left += out_weights[-1] / total
                k_left = self._scale(q_left)
                out_means.append(mean)
                out_weights.append(weight)
        return np.asarray(out_means), np.asarray(out_weights)

    def merge(self, other: "QuantileSummary") -> "TDigestSummary":
        self._check_type(other)
        assert isinstance(other, TDigestSummary)
        self._flush()
        other_copy = other.copy()
        other_copy._flush()
        if other_copy._count == 0:
            return self
        self._count += other_copy._count
        self._min = min(self._min, other_copy._min)
        self._max = max(self._max, other_copy._max)
        means = np.concatenate([self._means, other_copy._means])
        weights = np.concatenate([self._weights, other_copy._weights])
        self._means, self._weights = self._cluster(means, weights)
        return self

    # ------------------------------------------------------------------

    def quantile(self, phi: float) -> float:
        self._flush()
        if self._count == 0:
            raise ValueError("empty summary")
        if self._means.size == 1:
            return float(self._means[0])
        phi = min(max(phi, 0.0), 1.0)
        target = phi * self._count
        # Centroid i covers ranks (cum_i - w_i / 2, cum_i + w_i / 2);
        # interpolate linearly between adjacent centroid midpoints.
        cumulative = np.cumsum(self._weights)
        midpoints = cumulative - self._weights / 2.0
        if target <= midpoints[0]:
            # Interpolate from the exact minimum.
            frac = target / max(midpoints[0], 1e-12)
            return float(self._min + frac * (self._means[0] - self._min))
        if target >= midpoints[-1]:
            span = self._count - midpoints[-1]
            frac = (target - midpoints[-1]) / max(span, 1e-12)
            return float(self._means[-1] + frac * (self._max - self._means[-1]))
        index = int(np.searchsorted(midpoints, target, side="right")) - 1
        lo, hi = midpoints[index], midpoints[index + 1]
        frac = (target - lo) / max(hi - lo, 1e-12)
        return float(self._means[index] + frac * (self._means[index + 1] - self._means[index]))

    def size_bytes(self) -> int:
        self._flush()
        return 16 * self._means.size + 40

    def copy(self) -> "TDigestSummary":
        out = TDigestSummary(self.delta)
        out._means = self._means.copy()
        out._weights = self._weights.copy()
        out._count = self._count
        out._min = self._min
        out._max = self._max
        out._buffer = [b.copy() for b in self._buffer]
        out._buffered = self._buffered
        return out

    @property
    def count(self) -> float:
        return self._count + self._buffered

    def error_upper_bound(self, phi: float) -> float | None:
        """Largest centroid's half-weight as a rank-error ceiling.

        t-digest offers no worst-case guarantee; this data-dependent bound
        (a query can be off by at most half the covering centroid) is the
        honest analogue plotted in Figure 23.
        """
        self._flush()
        if self._count == 0:
            return None
        return float(np.max(self._weights)) / (2.0 * self._count)

    @property
    def centroid_count(self) -> int:
        self._flush()
        return self._means.size
