"""Synthetic datasets reproducing the paper's evaluation data (Table 1).

The paper evaluates on six real datasets (Telecom Italia milan, UCI
hepmass / occupancy / retail / power, and a synthetic exponential).  The
raw files are not redistributable, so each generator below synthesizes data
matching the published Table 1 characteristics — support, central moments,
skew, and qualitative shape (long-tailed, bimodal, discretized...) — which
is what drives quantile-estimation difficulty.  Generator-vs-paper summary
statistics are printed side by side by ``benchmarks/bench_table1_datasets.py``.

Sizes are parameterized (the paper's milan has 81M rows; the default here
is laptop-scale) and every generator is deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import DatasetError


@dataclass(frozen=True)
class DatasetSpec:
    """Declared properties of a generated dataset (mirrors Table 1)."""

    name: str
    description: str
    paper_size: int
    paper_min: float
    paper_max: float
    paper_mean: float
    paper_stddev: float
    paper_skew: float


SPECS: dict[str, DatasetSpec] = {
    "milan": DatasetSpec(
        "milan", "Telecom Italia internet usage, Nov 2013: heavy-tailed",
        81_000_000, 2.3e-6, 7936.0, 36.77, 103.5, 8.585),
    "hepmass": DatasetSpec(
        "hepmass", "UCI HEPMASS first feature: near-Gaussian mixture",
        10_500_000, -1.961, 4.378, 0.0163, 1.004, 0.2946),
    "occupancy": DatasetSpec(
        "occupancy", "UCI occupancy CO2 readings: bimodal, offset support",
        20_000, 412.8, 2077.0, 690.6, 311.2, 1.654),
    "retail": DatasetSpec(
        "retail", "UCI online retail integer quantities: extreme discrete skew",
        530_000, 1.0, 80995.0, 10.66, 156.8, 460.1),
    "power": DatasetSpec(
        "power", "UCI household global active power: multimodal, positive",
        2_000_000, 0.076, 11.12, 1.092, 1.057, 1.786),
    "exponential": DatasetSpec(
        "exponential", "synthetic Exp(lambda=1)",
        100_000_000, 1.2e-7, 16.30, 1.000, 0.999, 1.994),
}


def milan(n: int = 500_000, seed: int = 0) -> np.ndarray:
    """Heavy-tailed internet-usage-like values.

    A *trimodal-in-log-space* lognormal mixture (idle / normal / heavy
    usage sessions) plus a sliver of near-zero keep-alive readings.  This
    reproduces milan's signature: mean ~37, stddev ~104, skew ~9-11,
    support spanning nine decades, global q99 near 500 (the value the
    paper's Druid experiment reports) — and, critically, multimodal
    structure *within* the log scale, which is what makes standard moments
    insufficient and log moments necessary (Figure 9).
    """
    rng = np.random.default_rng(seed)
    component = rng.choice(3, n, p=[0.52, 0.40, 0.08])
    mu = np.asarray([0.8, 3.2, 5.2])[component]
    sigma = np.asarray([0.80, 0.65, 0.85])[component]
    body = np.exp(rng.normal(mu, sigma))
    # ~0.5% of rows come from near-zero keep-alive readings.
    tiny = np.exp(rng.uniform(np.log(2.3e-6), np.log(1e-2),
                              size=max(n // 200, 1)))
    data = np.concatenate([body, tiny])[:n]
    return np.clip(data, 2.3e-6, 7936.0)


def hepmass(n: int = 500_000, seed: int = 0) -> np.ndarray:
    """Signal/background mixture: two overlapping near-unit Gaussians."""
    rng = np.random.default_rng(seed)
    label = rng.random(n) < 0.5
    values = np.where(label,
                      rng.normal(-0.33, 0.85, n),
                      rng.normal(0.37, 1.06, n))
    return np.clip(values, -1.961, 4.378)


def occupancy(n: int = 20_000, seed: int = 0) -> np.ndarray:
    """Bimodal CO2-like readings on an offset support [413, 2077]."""
    rng = np.random.default_rng(seed)
    occupied = rng.random(n) < 0.23
    baseline = 440.0 + rng.gamma(2.0, 45.0, n)
    busy = 750.0 + rng.gamma(2.2, 260.0, n)
    values = np.where(occupied, busy, baseline)
    return np.clip(values, 412.8, 2077.0)


def retail(n: int = 500_000, seed: int = 0) -> np.ndarray:
    """Integer purchase quantities: Zipf-like with rare enormous orders.

    Discreteness at small integers plus skew ~460 is what breaks
    histogram summaries and stresses the max-entropy solver's
    discrete-data weakness (Sections 6.2.3 / Figure 8 discussion).
    """
    rng = np.random.default_rng(seed)
    base = np.ceil(rng.lognormal(1.1, 1.3, size=n))
    values = np.clip(base, 1, 3000)
    bulk = rng.random(n) < 2e-5
    values[bulk] = rng.integers(10_000, 80_995, size=int(bulk.sum())).astype(float)
    return values


def power(n: int = 500_000, seed: int = 0) -> np.ndarray:
    """Household active-power-like readings: standby mode plus usage modes."""
    rng = np.random.default_rng(seed)
    mode = rng.random(n)
    standby = 0.076 + rng.gamma(3.0, 0.09, n)
    cooking = 1.0 + rng.gamma(2.0, 0.3, n)
    heating = 2.6 + rng.gamma(2.0, 0.5, n)
    values = np.where(mode < 0.62, standby, np.where(mode < 0.89, cooking, heating))
    return np.clip(values, 0.076, 11.12)


def exponential(n: int = 500_000, seed: int = 0) -> np.ndarray:
    """Exp(1), the paper's synthetic dataset."""
    rng = np.random.default_rng(seed)
    return rng.exponential(1.0, size=n)


def gamma_skew(n: int = 500_000, shape: float = 1.0, seed: int = 0) -> np.ndarray:
    """Gamma(ks, theta=1) for the skew sweep of Figure 18 (skew = 2/sqrt(ks))."""
    if shape <= 0:
        raise DatasetError(f"gamma shape must be positive, got {shape}")
    rng = np.random.default_rng(seed)
    return rng.gamma(shape, 1.0, size=n)


def gaussian_with_outliers(n: int = 1_000_000, outlier_magnitude: float = 10.0,
                           outlier_fraction: float = 0.01,
                           seed: int = 0) -> np.ndarray:
    """Standard Gaussian with a delta-fraction outlier cluster (Figure 19).

    Outliers are drawn from N(magnitude, 0.1) exactly as in Appendix D.2.
    """
    if not 0.0 <= outlier_fraction < 1.0:
        raise DatasetError(f"outlier_fraction must be in [0, 1), got {outlier_fraction}")
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, 1.0, size=n)
    n_out = int(round(n * outlier_fraction))
    if n_out:
        indices = rng.choice(n, size=n_out, replace=False)
        data[indices] = rng.normal(outlier_magnitude, 0.1, size=n_out)
    return data


def uniform_discrete(n: int = 100_000, cardinality: int = 100,
                     seed: int = 0) -> np.ndarray:
    """``cardinality`` uniformly spaced point masses on [-1, 1] (Figure 8)."""
    if cardinality < 1:
        raise DatasetError(f"cardinality must be >= 1, got {cardinality}")
    rng = np.random.default_rng(seed)
    if cardinality == 1:
        return np.zeros(n)
    support = np.linspace(-1.0, 1.0, cardinality)
    return support[rng.integers(0, cardinality, size=n)]


def summary_statistics(data: np.ndarray) -> dict[str, float]:
    """The Table 1 row for a dataset: size/min/max/mean/stddev/skew."""
    data = np.asarray(data, dtype=float)
    mean = float(data.mean())
    std = float(data.std())
    skew = float(np.mean(((data - mean) / std) ** 3)) if std > 0 else 0.0
    return {
        "size": float(data.size),
        "min": float(data.min()),
        "max": float(data.max()),
        "mean": mean,
        "stddev": std,
        "skew": skew,
    }
