"""Figure 11: Druid end-to-end query benchmark.

Ingests a milan-like workload into the Druid-like engine (time x grid x
country cube), then times a full-population 99th-percentile query per
aggregator: native sum (lower bound), momentsSketch@10, and S-Hist at 10 /
100 / 1000 centroids.  Reproduction targets: sum < M-Sketch << S-Hist,
with S-Hist cost growing with centroid count (the paper's 0.27s / 1.7s /
3.65s / 12.1s / 99s ladder).
"""

import numpy as np

from repro.api import QueryService, QuerySpec
from repro.druid import DruidEngine, registry

from _harness import print_table, run_once, scaled

AGGREGATORS = ["sum", "momentsSketch@10", "S-Hist@10", "S-Hist@100", "S-Hist@1000"]


def _build_engine(values: np.ndarray) -> DruidEngine:
    rng = np.random.default_rng(0)
    n = values.size
    engine = DruidEngine(
        dimensions=("grid", "country"),
        aggregators=registry(moment_orders=(10,), histogram_bins=(10, 100, 1000)),
        granularity=3600.0,
        processing_threads=2,
    )
    engine.ingest(rng.uniform(0, 24 * 3600, n),
                  [rng.integers(0, 40, n), rng.choice(["IT", "FR", "DE"], n)],
                  values)
    return engine


def test_fig11_druid_quantile_query(benchmark, milan_data):
    values = milan_data[:scaled(80_000)]

    def experiment():
        engine = _build_engine(values)
        service = QueryService(druid=engine)
        truth = float(np.quantile(values, 0.99))
        rows = []
        times = {}
        for aggregator in AGGREGATORS:
            result = service.execute(QuerySpec(
                kind="quantile", quantiles=(0.99,), measure=aggregator))
            timings = result.timings
            rows.append([aggregator, result.cells_scanned,
                         timings.merge_seconds, timings.solve_seconds,
                         timings.total_seconds, result.value])
            times[aggregator] = timings.total_seconds
        return rows, times, truth, engine.num_cells

    rows, times, truth, cells = run_once(benchmark, experiment)
    print_table(f"Figure 11: Druid end-to-end 99th percentile ({cells} cells, "
                f"truth={truth:.1f})",
                ["aggregator", "cells", "merge (s)", "finalize (s)",
                 "total (s)", "answer"], rows)

    # The paper's ordering: sum is the floor, the moments sketch beats
    # every S-Hist configuration, and S-Hist degrades with centroid count.
    assert times["sum"] < times["momentsSketch@10"]
    assert times["momentsSketch@10"] < times["S-Hist@10"]
    assert times["momentsSketch@10"] * 3 < times["S-Hist@100"]
    assert times["S-Hist@100"] < times["S-Hist@1000"]
