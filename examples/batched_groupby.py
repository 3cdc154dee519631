"""Profile a high-cardinality group-by against a per-group solve loop.

Builds a Druid-style engine with a few thousand pre-aggregated cells,
then answers a groupBy-p99 query with the batched estimation layer (one
stacked max-entropy solve for every group) and prints its Eq. 2 phase
decomposition.  For comparison it solves the same merged per-group
sketches with an explicit loop of scalar ``QuantileEstimator.fit``
calls, one per group.  This is the before/after picture of batching:
merge time is the same (the packed vectorized reductions produce the
sketches), while the solve phase — the dominant term at high
cardinality — drops by the batching factor.

Run with::

    PYTHONPATH=src python examples/batched_groupby.py
"""

import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.api import QueryService, QuerySpec, qkey  # noqa: E402
from repro.core.quantile import QuantileEstimator  # noqa: E402
from repro.druid import DruidEngine, MomentsSketchAggregator  # noqa: E402

NUM_GROUPS = 600
ROWS_PER_GROUP = 120


def main() -> None:
    rng = np.random.default_rng(7)
    n = NUM_GROUPS * ROWS_PER_GROUP
    values = rng.lognormal(1.0, 1.0, n)
    service_ids = np.repeat(np.arange(NUM_GROUPS), ROWS_PER_GROUP)
    timestamps = rng.uniform(0.0, 4 * 3600.0, n)

    engine = DruidEngine(dimensions=("service",),
                         aggregators={"latency": MomentsSketchAggregator(k=10)},
                         granularity=3600.0)
    engine.ingest(timestamps, [service_ids], values)
    print(f"druid engine: {engine.num_cells} cells, {NUM_GROUPS} groups")

    spec = QuerySpec(kind="group_by", quantiles=(0.99,), measure="latency",
                     group_dimension="service")
    service = QueryService(druid=engine)
    service.execute(spec)  # warm caches so the comparison is fair
    start = time.perf_counter()
    response = service.execute(spec)
    wall = time.perf_counter() - start
    timings = response.timings
    print(f"       batched: wall={wall:.3f}s merge={timings.merge_seconds:.3f}s "
          f"solve={timings.solve_seconds:.3f}s "
          f"(route={timings.solve_route}, solve_calls={timings.solve_calls})")

    groups = service.backend("druid").group_rollup(spec).groups
    start = time.perf_counter()
    loop = {g: QuantileEstimator.fit(summary.sketch, config=summary.config,
                                     allow_backoff=True).quantiles([0.99])[0]
            for g, summary in groups.items()}
    solve = time.perf_counter() - start
    print(f"per-group loop: solve={solve:.3f}s (solve_calls={len(loop)})")

    key = qkey(0.99)
    drift = max(abs(response.groups[g][key] - loop[g]) / abs(loop[g])
                for g in loop)
    print(f"max relative p99 difference between the two: {drift:.2e} "
          "(contract: <= 1e-6)")


if __name__ == "__main__":
    main()
