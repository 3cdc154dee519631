"""Shared infrastructure for the paper-reproduction benchmarks.

Every ``bench_fig*``/``bench_table*`` file here regenerates the table or
figure of the paper that its name gives.  Conventions:

* Each pytest function uses the ``benchmark`` fixture, so the whole suite
  runs under ``pytest benchmarks/ --benchmark-only``.  Timing-critical
  kernels are measured by pytest-benchmark; table-style experiments wrap a
  single run and *print* the paper-style rows (pass ``-s`` to see them
  live; they also print in the captured-output section).
* Dataset sizes are laptop-scale by default and multiply by the
  ``REPRO_BENCH_SCALE`` environment variable (e.g. ``=10`` for longer,
  closer-to-paper runs).
* Absolute times are pure-Python/numpy and therefore ~100x the paper's
  Java numbers; the *relative* orderings and crossovers are the
  reproduction targets.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.datasets import load

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int) -> int:
    """Apply the global benchmark scale factor to a row count."""
    return max(int(n * SCALE), 1000)


@pytest.fixture(scope="session")
def phi_grid() -> np.ndarray:
    """The evaluation's 21 equally spaced quantiles in [0.01, 0.99]."""
    return np.linspace(0.01, 0.99, 21)


@pytest.fixture(scope="session")
def milan_data() -> np.ndarray:
    return np.asarray(load("milan", scaled(100_000)))


@pytest.fixture(scope="session")
def hepmass_data() -> np.ndarray:
    return np.asarray(load("hepmass", scaled(100_000)))


@pytest.fixture(scope="session")
def exponential_data() -> np.ndarray:
    return np.asarray(load("exponential", scaled(100_000)))


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render one paper-style results table to stdout."""
    formatted = [[_format(value) for value in row] for row in rows]
    widths = [max(len(str(h)), *(len(r[i]) for r in formatted)) if formatted
              else len(str(h))
              for i, h in enumerate(headers)]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in formatted:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _format(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def eps_avg(data_sorted: np.ndarray, estimates: np.ndarray,
            phis: np.ndarray) -> float:
    """Mean quantile error (paper Eq. 1) against pre-sorted ground truth."""
    n = data_sorted.size
    ranks = np.searchsorted(data_sorted, estimates, side="left")
    return float(np.mean(np.abs(ranks - np.floor(phis * n)) / n))


def run_once(benchmark, fn):
    """Run a table-style experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
