"""Figure 13: cascade stage anatomy.

(a) threshold-query throughput as stages are added, (b) per-stage
standalone throughput (cheap stages evaluate orders of magnitude faster
than the max-entropy solve), (c) the fraction of queries reaching each
stage (most resolve early).  For every rung of (a) it also prints how
many queries entered and how many were resolved by each stage, so a
rung whose added stage is never reached shows as such.
"""

import numpy as np

from repro.core.cascade import STAGES, ThresholdCascade
from repro.macrobase import MomentsCube

from _harness import print_table, run_once, scaled


def _threshold_workload(n):
    rng = np.random.default_rng(1)
    from repro.datasets import load
    values = np.asarray(load("milan", n))
    dims = [rng.integers(0, 40, n), rng.integers(0, 8, n)]
    cube = MomentsCube.build(dims, values, k=10)
    threshold = float(np.quantile(values, 0.99))
    return cube, threshold


def test_fig13_cascade_stages(benchmark):
    cube, threshold = _threshold_workload(scaled(60_000))
    sketches = list(cube.cells.values())

    def experiment():
        import time
        ladder_rows = []
        reach_rows = []
        throughput = {}
        for label, stages in [("Baseline", ()), ("+Simple", ("simple",)),
                              ("+Markov", ("simple", "markov")),
                              ("+RTT", ("simple", "markov", "rtt"))]:
            cascade = ThresholdCascade(enabled_stages=stages)
            start = time.perf_counter()
            for sketch in sketches:
                cascade.threshold(sketch, threshold, 0.7)
            seconds = time.perf_counter() - start
            throughput[label] = len(sketches) / seconds
            ladder_rows.append([label, len(sketches) / seconds])
            reach_rows.append([label] + [
                f"{cascade.stats.stages[stage].entered}/"
                f"{cascade.stats.stages[stage].resolved}"
                for stage in STAGES])

        full = ThresholdCascade()
        for sketch in sketches:
            full.threshold(sketch, threshold, 0.7)
        stage_rows = []
        fractions = {}
        for stage in STAGES:
            stats = full.stats
            stage_rows.append([stage,
                               stats.stage_throughput(stage),
                               stats.fraction_entered(stage),
                               stats.stages[stage].resolved])
            fractions[stage] = stats.fraction_entered(stage)
        return ladder_rows, reach_rows, stage_rows, throughput, fractions

    ladder_rows, reach_rows, stage_rows, throughput, fractions = run_once(
        benchmark, experiment)
    print_table("Figure 13a: threshold throughput as stages are added",
                ["strategy", "queries/s"], ladder_rows)
    print_table("Figure 13a: queries entered/resolved by each stage per rung",
                ["strategy"] + [f"{stage} entered/resolved"
                                for stage in STAGES], reach_rows)
    print_table("Figure 13b/c: per-stage throughput and reach",
                ["stage", "stage throughput (q/s)", "fraction entered",
                 "resolved"], stage_rows)

    # (a) the full cascade is much faster than computing estimates directly.
    assert throughput["+RTT"] > 5 * throughput["Baseline"]
    # (c) every query passes the simple filter; few reach maxent.
    assert fractions["simple"] == 1.0
    assert fractions["maxent"] < 0.5
    assert fractions["rtt"] <= fractions["markov"] <= fractions["simple"]
