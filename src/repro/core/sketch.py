"""The moments sketch data structure (Section 4.1, Algorithm 1).

A :class:`MomentsSketch` of order ``k`` is an array of floating point values:
the minimum, the maximum, the count ``n``, the unscaled power sums
``sum(x**i)`` for ``i = 1..k`` and the log power sums ``sum(log(x)**i)`` for
``i = 1..k``.  It supports

* ``accumulate`` — pointwise update (vectorized over numpy arrays),
* ``merge`` — combine with another sketch (min/max comparison + vector add),
* ``subtract`` — remove a previously merged sketch (turnstile semantics,
  Section 7.2.2); min/max are *not* subtractable, so the caller supplies the
  surviving support (the sliding-window processor keeps per-pane extrema),
* ``to_bytes`` / ``from_bytes`` — flat little-endian float64 serialization.

The log sums are only meaningful while every accumulated value is positive.
The paper's policy (Section 4.1) is adopted verbatim: negative or zero values
poison the log moments and estimation falls back to standard moments only.
Quantile estimation itself lives in :mod:`repro.core.quantile`; this module
is pure state so it stays trivially cheap to merge.
"""

from __future__ import annotations

import struct
from typing import Iterable

import numpy as np

from .errors import EmptySketchError, IncompatibleSketchError, SketchError

#: Default number of moments; the paper's headline configuration (k = 10,
#: about 200 bytes storing both standard and log moments).
DEFAULT_ORDER = 10

#: Highest order the library accepts; beyond this float64 power sums are
#: useless for estimation (Section 4.3.2) and coefficient tables overflow.
MAX_ORDER = 32

_HEADER = struct.Struct("<4sBBxx")
_MAGIC = b"MSK1"


class MomentsSketch:
    """Mergeable quantile sketch tracking sample moments (Algorithm 1).

    Parameters
    ----------
    k:
        Order: the highest power tracked for both the standard and the log
        moments.  Higher ``k`` is more precise but costs space, merge time,
        and numerical stability (Section 4.3.2).
    track_log:
        Whether to maintain log power sums at all.  The paper's default is
        to track both sets of moments (Section 4.1); pass ``False`` when the
        data is known to be non-positive or discrete to halve the footprint.
    """

    __slots__ = ("k", "track_log", "count", "min", "max",
                 "power_sums", "log_sums", "log_valid")

    def __init__(self, k: int = DEFAULT_ORDER, track_log: bool = True):
        if not 1 <= k <= MAX_ORDER:
            raise SketchError(f"order k must be in [1, {MAX_ORDER}], got {k}")
        self.k = int(k)
        self.track_log = bool(track_log)
        self.count = 0.0
        self.min = np.inf
        self.max = -np.inf
        # Index i holds sum(x**i); index 0 duplicates the count so the whole
        # vector merges with one addition.
        self.power_sums = np.zeros(self.k + 1)
        self.log_sums = np.zeros(self.k + 1)
        # True while every accumulated value was positive; once False the log
        # sums are ignored by estimation (paper Section 4.1).
        self.log_valid = self.track_log

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_data(cls, data: Iterable[float], k: int = DEFAULT_ORDER,
                  track_log: bool = True) -> "MomentsSketch":
        """Build a sketch over ``data`` in one vectorized pass."""
        sketch = cls(k=k, track_log=track_log)
        sketch.accumulate(data)
        return sketch

    def copy(self) -> "MomentsSketch":
        """Deep copy (the arrays are owned by the new sketch)."""
        out = MomentsSketch(self.k, self.track_log)
        out.count = self.count
        out.min = self.min
        out.max = self.max
        out.power_sums = self.power_sums.copy()
        out.log_sums = self.log_sums.copy()
        out.log_valid = self.log_valid
        return out

    # ------------------------------------------------------------------
    # Updates (Algorithm 1)
    # ------------------------------------------------------------------

    def accumulate(self, values: Iterable[float]) -> None:
        """Add values pointwise (Algorithm 1's ``Accumulate``, vectorized).

        Accepts a scalar, any iterable, or a numpy array.  NaNs and
        infinities are rejected because they would poison every future
        estimate of any roll-up containing this sketch.
        """
        x = np.atleast_1d(np.asarray(values, dtype=float))
        if x.size == 0:
            return
        if not np.isfinite(x).all():
            raise SketchError("cannot accumulate NaN or infinite values")
        self.count += x.size
        self.min = min(self.min, float(x.min()))
        self.max = max(self.max, float(x.max()))
        # Vandermonde-style accumulation: powers[i] = sum(x**i).
        powers = np.vander(x, self.k + 1, increasing=True)
        self.power_sums += powers.sum(axis=0)
        if self.track_log:
            if (x <= 0).any():
                self.log_valid = False
            if self.log_valid:
                logs = np.log(x)
                self.log_sums += np.vander(logs, self.k + 1, increasing=True).sum(axis=0)

    def merge(self, other: "MomentsSketch") -> "MomentsSketch":
        """Merge ``other`` into this sketch in place (Algorithm 1's ``Merge``).

        Returns ``self`` so merges fold cleanly:
        ``functools.reduce(MomentsSketch.merge, sketches)``.
        """
        self._check_compatible(other)
        self.count += other.count
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.power_sums += other.power_sums
        if self.track_log:
            if other.track_log and other.log_valid:
                if self.log_valid:
                    self.log_sums += other.log_sums
            else:
                self.log_valid = False
        return self

    def subtract(self, other: "MomentsSketch",
                 new_min: float | None = None,
                 new_max: float | None = None) -> "MomentsSketch":
        """Remove a previously merged sketch (turnstile semantics, §7.2.2).

        Power sums and counts subtract exactly; the min/max cannot be
        un-merged, so the caller passes the extrema of the surviving data
        (e.g. from per-pane records).  When omitted the old, conservative
        extrema are kept — estimates stay correct but may be looser.
        """
        self._check_compatible(other)
        if other.count > self.count:
            raise SketchError("cannot subtract a sketch with larger count")
        self.count -= other.count
        self.power_sums -= other.power_sums
        if self.track_log and self.log_valid and other.track_log and other.log_valid:
            self.log_sums -= other.log_sums
        elif self.track_log and other.count > 0 and not (other.track_log and other.log_valid):
            # Removing data whose log sums were unknown leaves ours unknown.
            self.log_valid = False
        if new_min is not None:
            self.min = float(new_min)
        if new_max is not None:
            self.max = float(new_max)
        if self.count == 0:
            self.min = np.inf
            self.max = -np.inf
            # Cancel any accumulated float dust so an emptied sketch behaves
            # exactly like a fresh one.
            self.power_sums[:] = 0.0
            self.log_sums[:] = 0.0
            self.log_valid = self.track_log
        return self

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    def require_nonempty(self) -> None:
        if self.is_empty:
            raise EmptySketchError("sketch holds no data")

    @property
    def has_log_moments(self) -> bool:
        """True when log moments are usable (tracked, valid, positive data)."""
        return self.track_log and self.log_valid and self.min > 0

    def standard_moments(self) -> np.ndarray:
        """Sample moments ``mu_i = (1/n) sum x**i``, index 0 is 1.

        Always a freshly owned buffer: callers (the solver, the packed
        store) scale the returned vector in place, so it must never alias
        ``power_sums`` even if the internal representation changes.
        """
        self.require_nonempty()
        mu = np.empty_like(self.power_sums)
        np.divide(self.power_sums, self.count, out=mu)
        mu[0] = 1.0
        return mu

    def log_moments(self) -> np.ndarray:
        """Sample log moments ``nu_i = (1/n) sum log(x)**i``, index 0 is 1.

        Freshly owned, like :meth:`standard_moments`.
        """
        self.require_nonempty()
        if not self.has_log_moments:
            raise SketchError("log moments unavailable (non-positive data or disabled)")
        nu = np.empty_like(self.log_sums)
        np.divide(self.log_sums, self.count, out=nu)
        nu[0] = 1.0
        return nu

    def size_bytes(self) -> int:
        """Serialized footprint in bytes.

        8 bytes each for min/max/count plus the power sums (indices 1..k for
        each tracked family) plus the 8-byte header; the paper's k = 10 with
        both families is 8 * (3 + 20) + 8 = 192 bytes, matching the "fewer
        than 200 bytes" headline.
        """
        families = 2 if self.track_log else 1
        return _HEADER.size + 8 * (3 + families * self.k)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Flat little-endian encoding: header, min, max, count, sums."""
        flags = (1 if self.track_log else 0) | (2 if self.log_valid else 0)
        body = [np.float64(self.min), np.float64(self.max), np.float64(self.count)]
        payload = np.concatenate([
            np.asarray(body),
            self.power_sums[1:],
            self.log_sums[1:] if self.track_log else np.zeros(0),
        ])
        return _HEADER.pack(_MAGIC, self.k, flags) + payload.astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "MomentsSketch":
        """Inverse of :meth:`to_bytes`."""
        if len(blob) < _HEADER.size:
            raise SketchError("buffer too short for a moments sketch")
        magic, k, flags = _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise SketchError(f"bad magic {magic!r}")
        track_log = bool(flags & 1)
        sketch = cls(k=k, track_log=track_log)
        families = 2 if track_log else 1
        expected = 3 + families * k
        payload = len(blob) - _HEADER.size
        if payload != 8 * expected:
            raise SketchError(
                f"payload holds {payload} bytes, expected {8 * expected}")
        values = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
        sketch.min = float(values[0])
        sketch.max = float(values[1])
        sketch.count = float(values[2])
        sketch.power_sums[1:] = values[3:3 + k]
        sketch.power_sums[0] = sketch.count
        if track_log:
            sketch.log_sums[1:] = values[3 + k:3 + 2 * k]
            sketch.log_sums[0] = sketch.count
        sketch.log_valid = bool(flags & 2)
        return sketch

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.count)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_empty:
            return f"MomentsSketch(k={self.k}, empty)"
        return (f"MomentsSketch(k={self.k}, n={self.count:.0f}, "
                f"range=[{self.min:.4g}, {self.max:.4g}], "
                f"log={'on' if self.has_log_moments else 'off'})")

    def _check_compatible(self, other: "MomentsSketch") -> None:
        if not isinstance(other, MomentsSketch):
            raise IncompatibleSketchError(
                f"expected MomentsSketch, got {type(other).__name__}")
        if other.k != self.k:
            raise IncompatibleSketchError(
                f"order mismatch: {self.k} vs {other.k}")


class ColumnarMoments:
    """Structure-of-arrays view over N homogeneous sketches' statistics.

    The hand-off format between columnar storage and the batched
    estimation layer: the vectorized bound kernels
    (:func:`repro.core.bounds.markov_bound_batch`,
    :func:`repro.core.bounds.rtt_bound_batch`) and the cascade's
    :meth:`~repro.core.cascade.ThresholdCascade.evaluate_batch` all
    consume one of these instead of N sketch objects.
    :meth:`repro.store.PackedSketchStore.moment_columns` produces one
    zero-copy from packed rows; :meth:`from_sketches` gathers one from
    standalone sketches.

    ``power_sums``/``log_sums`` are ``(N, k + 1)`` with index 0
    duplicating the count, exactly like the row layout of
    :class:`~repro.store.PackedSketchStore`.
    """

    __slots__ = ("k", "track_log", "counts", "mins", "maxs",
                 "power_sums", "log_sums", "log_valid")

    def __init__(self, k: int, track_log: bool, counts: np.ndarray,
                 mins: np.ndarray, maxs: np.ndarray, power_sums: np.ndarray,
                 log_sums: np.ndarray, log_valid: np.ndarray):
        self.k = int(k)
        self.track_log = bool(track_log)
        self.counts = np.asarray(counts, dtype=float)
        self.mins = np.asarray(mins, dtype=float)
        self.maxs = np.asarray(maxs, dtype=float)
        self.power_sums = np.asarray(power_sums, dtype=float)
        self.log_sums = np.asarray(log_sums, dtype=float)
        self.log_valid = np.asarray(log_valid, dtype=bool)
        n = self.counts.shape[0]
        if not (self.mins.shape == self.maxs.shape == self.log_valid.shape
                == (n,) and self.power_sums.shape == self.log_sums.shape
                == (n, self.k + 1)):
            raise SketchError("misaligned columnar moment arrays")

    def __len__(self) -> int:
        return self.counts.shape[0]

    @classmethod
    def from_sketches(cls, sketches: "Iterable[MomentsSketch]"
                      ) -> "ColumnarMoments":
        """Gather standalone sketches into one columnar block.

        All sketches must share ``k``; log sums of non-log sketches are
        zeros with ``log_valid`` false, mirroring
        :meth:`repro.store.PackedSketchStore.set_row`.
        """
        sketches = list(sketches)
        if not sketches:
            raise EmptySketchError("need at least one sketch")
        k = sketches[0].k
        track_log = any(s.track_log for s in sketches)
        n = len(sketches)
        counts = np.empty(n)
        mins = np.empty(n)
        maxs = np.empty(n)
        power_sums = np.empty((n, k + 1))
        log_sums = np.zeros((n, k + 1))
        log_valid = np.zeros(n, dtype=bool)
        for i, sketch in enumerate(sketches):
            if sketch.k != k:
                raise IncompatibleSketchError(
                    f"order mismatch: {k} vs {sketch.k}")
            counts[i] = sketch.count
            mins[i] = sketch.min
            maxs[i] = sketch.max
            power_sums[i] = sketch.power_sums
            if sketch.track_log:
                log_sums[i] = sketch.log_sums
                log_valid[i] = sketch.log_valid
        return cls(k=k, track_log=track_log, counts=counts, mins=mins,
                   maxs=maxs, power_sums=power_sums, log_sums=log_sums,
                   log_valid=log_valid)

    def usable_log(self) -> np.ndarray:
        """Per-row ``has_log_moments``: tracked, valid, and positive data."""
        if not self.track_log:
            return np.zeros(len(self), dtype=bool)
        return self.log_valid & (self.mins > 0.0)

    def take(self, rows) -> "ColumnarMoments":
        """Gather a row subset into a new columnar block (copies)."""
        rows = np.asarray(rows, dtype=np.intp)
        return ColumnarMoments(
            k=self.k, track_log=self.track_log, counts=self.counts[rows],
            mins=self.mins[rows], maxs=self.maxs[rows],
            power_sums=self.power_sums[rows], log_sums=self.log_sums[rows],
            log_valid=self.log_valid[rows])

    def sketch_at(self, row: int) -> MomentsSketch:
        """Materialize one row as a standalone sketch (copies)."""
        out = MomentsSketch(self.k, self.track_log)
        out.count = float(self.counts[row])
        out.min = float(self.mins[row])
        out.max = float(self.maxs[row])
        out.power_sums = self.power_sums[row].copy()
        out.log_sums = self.log_sums[row].copy()
        out.log_valid = bool(self.log_valid[row])
        return out


def merge_all(sketches: Iterable[MomentsSketch]) -> MomentsSketch:
    """Merge an iterable of sketches into a fresh sketch.

    The inputs are not modified.  Raises :class:`EmptySketchError` on an
    empty iterable because there is no order to give the result.
    """
    iterator = iter(sketches)
    try:
        first = next(iterator)
    except StopIteration:
        raise EmptySketchError("merge_all needs at least one sketch") from None
    out = first.copy()
    for sketch in iterator:
        out.merge(sketch)
    return out
