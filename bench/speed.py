"""Host speed: a fixed unit of reference work, timed while the driver waits.

On a shared host the same code runs up to 1.5x slower for seconds to
minutes at a time, while other tenants load the machine, and every
timing of a run moves with it.  The driver therefore times a fixed unit
of pure-Python work in the gaps between events, where it would spin
anyway, and around each set-up.  A measured time divided by the
slowdown the unit saw around it reads as time at reference speed: a
slowdown of the host slows the unit and the system alike and cancels, a
slowdown of the system does not.
"""

from __future__ import annotations

import time

import numpy as np

#: The unit's time at reference speed: a round number near its time on
#: the 2-vCPU host the bounds in BENCHMARK.json were measured on.
REFERENCE_US = 50.0
#: Unit samples whose median gives the host's speed around one instant
#: (about 10 ms of unit time).
NEAREST = 200


def reference_unit() -> int:
    total = 0
    for i in range(1000):
        total += i * i
    return total


class Speed:
    """The reference unit's samples over one stretch of a run."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> float:
        """Run the unit once; returns how long it took, in seconds."""
        start = time.perf_counter()
        reference_unit()
        took = time.perf_counter() - start
        self.starts.append(start)
        self.seconds.append(took)
        return took

    def sample_for(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.sample()

    def slowdown(self, at: np.ndarray | None = None) -> np.ndarray | float:
        """Unit time over its reference time, around each instant of ``at``.

        Around an instant means the median of the ``NEAREST`` samples
        closest to it in time; with ``at`` omitted, of every sample.
        """
        seconds = np.asarray(self.seconds)
        reference = REFERENCE_US * 1e-6
        if at is None:
            return float(np.median(seconds)) / reference
        k = min(NEAREST, seconds.size)
        first = np.searchsorted(np.asarray(self.starts), at) - k // 2
        first = np.clip(first, 0, seconds.size - k)
        windows = seconds[first[:, None] + np.arange(k)]
        return np.median(windows, axis=1) / reference
