"""Walk the multi-query optimizer loop on a dashboard-style workload.

Builds a cube of pre-aggregated cells, then replays a Zipf-skewed
query mix (the same few dashboard queries over and over, with ingest
flushes interleaved) through a `QueryService` carrying an
`Optimizer`.  The optimizer has one cache tier: each cold scan, kept
with the estimators fitted to it.  Along the way it prints:

1. the scan cache at work — a cold execution, a repeat that runs
   neither the merge nor the fit, a different-quantile query that reuses
   both, and the invalidation a flush causes;
2. a grouped scan: the cold `group_by` seeds every group's fit, so a
   repeat and a `top_n` over the same groups fit nothing, while a
   grouped `threshold_count` still runs its bounds;
3. the cache counters after the skewed workload, and the offline advice
   `rank_metrics` (`repro optimizer advise`) draws from the telemetry
   scan counters.

Every served answer is checked against an uncached mirror service —
the optimizer's contract is speed without payload drift.

Run with::

    PYTHONPATH=src python examples/optimizer_advisor.py
"""

import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.api import QueryService, QuerySpec  # noqa: E402
from repro.datacube import CubeSchema, DataCube  # noqa: E402
from repro.ingest import IngestSession  # noqa: E402
from repro.optimizer import Optimizer, rank_metrics  # noqa: E402
from repro.summaries.moments_summary import MomentsSummary  # noqa: E402
from repro.telemetry import TELEMETRY, render_json  # noqa: E402

ROWS = 60_000
CELLS = 300
ZIPF_S = 1.3


def build_side(seed: int = 1):
    rng = np.random.default_rng(seed)
    cube = DataCube(CubeSchema(("cell",)), lambda: MomentsSummary(k=10))
    session = IngestSession(cube, auto_flush=False)
    session.append_columns(rng.lognormal(1.0, 1.2, ROWS),
                           dims=[rng.integers(0, CELLS, ROWS)])
    session.flush()
    return cube, session


def flush_batch(session: IngestSession, seed: int) -> None:
    rng = np.random.default_rng(seed)
    session.append_columns(rng.lognormal(1.0, 1.2, 500),
                           dims=[rng.integers(0, CELLS, 500)])
    session.flush()


def timed(service, spec):
    start = time.perf_counter()
    response = service.execute(spec)
    return response, (time.perf_counter() - start) * 1e3


def same(one, two) -> bool:
    return (one.estimates == two.estimates and one.groups == two.groups
            and one.top == two.top and one.count == two.count)


def replay(service, session, ops) -> list:
    responses = []
    for op in ops:
        if isinstance(op, int):
            flush_batch(session, seed=op)
        else:
            responses.append(service.execute(op))
    return responses


def main() -> None:
    cube, session = build_side()
    mirror_cube, mirror_session = build_side()

    optimizer = Optimizer()
    service = QueryService(cube=cube, optimizer=optimizer)
    mirror = QueryService(cube=mirror_cube)

    dashboard = QuerySpec(kind="quantile", quantiles=(0.5, 0.95, 0.99),
                          report_moments=True)
    drilldown = QuerySpec(kind="quantile", quantiles=(0.9,),
                          report_moments=True)
    groups = QuerySpec(kind="group_by", quantiles=(0.99,),
                       group_dimension="cell")
    top = QuerySpec(kind="top_n", quantiles=(0.99,), group_dimension="cell",
                    n=5)
    alerts = QuerySpec(kind="threshold_count", quantiles=(0.99,),
                       thresholds=(40.0,), group_dimension="cell")

    print("== one scan tier ==")
    cold, ms = timed(service, dashboard)
    print(f"cold roll-up:        {ms:7.2f} ms  "
          f"solve_route={cold.timings.solve_route}")
    hit, ms = timed(service, dashboard)
    print(f"repeat:              {ms:7.2f} ms  "
          f"solve_route={hit.timings.solve_route}")
    other, ms = timed(service, drilldown)
    print(f"other quantile:      {ms:7.2f} ms  "
          f"solve_route={other.timings.solve_route} "
          f"merge_seconds={other.timings.merge_seconds}")
    assert same(hit, mirror.execute(dashboard))
    assert same(other, mirror.execute(drilldown))

    flush_batch(session, seed=101)
    flush_batch(mirror_session, seed=101)
    fresh, ms = timed(service, dashboard)
    print(f"after flush (cold):  {ms:7.2f} ms  "
          f"solve_route={fresh.timings.solve_route}")
    assert same(fresh, mirror.execute(dashboard))

    print("\n== grouped scans ==")
    for label, spec in (("cold group_by", groups), ("repeat group_by", groups),
                        ("top_n, same groups", top),
                        ("threshold_count", alerts)):
        response, ms = timed(service, spec)
        print(f"{label + ':':<21}{ms:7.2f} ms  "
              f"solve_route={response.timings.solve_route} "
              f"solve_calls={response.timings.solve_calls}")
        assert same(response, mirror.execute(spec))

    print("\n== skewed workload ==")
    rng = np.random.default_rng(5)
    pool = [dashboard, groups, drilldown, top, alerts]
    weights = np.arange(1, len(pool) + 1, dtype=float) ** -ZIPF_S
    weights /= weights.sum()
    ops: list = []  # a spec, or a flush seed
    for index in range(60):
        ops.append(pool[int(rng.choice(len(pool), p=weights))])
        if index % 20 == 19:
            ops.append(200 + index)
    # Telemetry counts the optimized side's scan-signature hits only;
    # the mirror replays the same schedule afterwards.
    TELEMETRY.enable(reset=True)
    try:
        served = replay(service, session, ops)
        # The same dump `repro telemetry dump` writes for the CLI.
        metrics = json.loads(render_json(TELEMETRY.registry))
    finally:
        TELEMETRY.disable()
    expected = replay(mirror, mirror_session, ops)
    assert all(same(one, two) for one, two in zip(served, expected))
    cache = optimizer.stats()["cache"]
    print(f"cache:  hits={cache['hits']} misses={cache['misses']} "
          f"hit_rate={cache['hit_rate']:.2f} "
          f"stale_drops={cache['stale_drops']} bytes={cache['bytes']}")
    for item in rank_metrics(metrics):
        print(f"advice: backend={item['backend']} scans={item['scans']} "
              f"hit_rate={item['hit_rate']:.2f} -> {item['action']}")
    print("\nall served payloads matched the uncached mirror bit for bit")


if __name__ == "__main__":
    main()
