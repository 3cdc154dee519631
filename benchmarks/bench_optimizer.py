"""Multi-query optimizer vs cold execution on a Zipf-skewed workload.

Production dashboards re-issue the same handful of queries; the
optimizer's scan cache should absorb the repeats while ingest flushes
keep invalidating the hot keys.  A cached scan carries the estimators
fitted to it, so a repeat skips the fit — the solve is the bulk of a
query's cost — as well as the merge.  This bench replays one
Zipf-skewed query sequence (with interleaved ingest flushes) against
two identically-loaded cubes — one service cold, one with
:class:`~repro.optimizer.Optimizer` — and asserts:

* every optimized payload equals the cold payload bit for bit
  (estimates, merged moments, counts, group maps), and
* the optimized arm is at least ``--min-speedup`` times faster.

Usage::

    python benchmarks/bench_optimizer.py           # full size
    python benchmarks/bench_optimizer.py --quick   # CI smoke
    python benchmarks/bench_optimizer.py --advice-out optimizer_bench.json

``--advice-out`` writes the timings and ``Optimizer.stats()`` (the scan
cache's hits, misses, bytes and evictions) as JSON.  Exits non-zero on
any payload mismatch or a missed speedup gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

# Allow running as a plain script from any working directory.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.api import QueryService, QuerySpec  # noqa: E402
from repro.datacube import CubeSchema, DataCube  # noqa: E402
from repro.ingest import IngestSession  # noqa: E402
from repro.optimizer import Optimizer  # noqa: E402
from repro.summaries.moments_summary import MomentsSummary  # noqa: E402

ZIPF_S = 1.3


def build_side(rows: int, cells: int, k: int, seed: int):
    """One (cube, session) pair preloaded with the shared dataset."""
    rng = np.random.default_rng(seed)
    cube = DataCube(CubeSchema(("cell",)), lambda: MomentsSummary(k=k))
    session = IngestSession(cube, auto_flush=False)
    session.append_columns(rng.lognormal(1.0, 1.2, rows),
                           dims=[rng.integers(0, cells, rows)])
    session.flush()
    return cube, session


def spec_pool(cells: int, tenants: int) -> list[QuerySpec]:
    """Distinct dashboard-style specs; rank 0 is the hottest."""
    pool = [
        QuerySpec(kind="quantile", quantiles=(0.5, 0.95, 0.99),
                  report_moments=True),
        QuerySpec(kind="group_by", quantiles=(0.99,),
                  group_dimension="cell"),
        QuerySpec(kind="top_n", quantiles=(0.95,),
                  group_dimension="cell", n=5),
        QuerySpec(kind="cdf", thresholds=(2.0, 10.0)),
    ]
    for tenant in range(tenants):
        pool.append(QuerySpec(kind="quantile", quantiles=(0.9,),
                              filters={"cell": tenant % cells},
                              report_moments=True))
    return pool


def schedule(pool_size: int, queries: int, flush_every: int,
             seed: int) -> list[int]:
    """Zipf-skewed pool indices; ``-1`` marks an ingest flush."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, pool_size + 1, dtype=float)
    weights = ranks ** -ZIPF_S
    weights /= weights.sum()
    # Pool order is rank order: the expensive dashboard queries (full
    # roll-up, group-by, top-n) are also the most re-issued ones.
    plan: list[int] = []
    for index in range(queries):
        if flush_every and index and index % flush_every == 0:
            plan.append(-1)
        plan.append(int(rng.choice(pool_size, p=weights)))
    return plan


def run_arm(service: QueryService, session: IngestSession,
            pool: list[QuerySpec], plan: list[int], cells: int,
            flush_rows: int):
    """Replay the plan; returns (responses, seconds).

    Flush batches are derived from the flush ordinal only, so both arms
    ingest bit-identical rows at the same points in the sequence.
    """
    responses = []
    flushes = 0
    start = time.perf_counter()
    for op in plan:
        if op < 0:
            flushes += 1
            rng = np.random.default_rng(10_000 + flushes)
            session.append_columns(
                rng.lognormal(1.0, 1.2, flush_rows),
                dims=[rng.integers(0, cells, flush_rows)])
            session.flush()
            continue
        responses.append(service.execute(pool[op]))
    return responses, time.perf_counter() - start


def payload_mismatches(cold, cached) -> int:
    count = 0
    for one, two in zip(cold, cached):
        same = (one.count == two.count
                and one.estimates == two.estimates
                and one.moments == two.moments
                and one.groups == two.groups)
        count += 0 if same else 1
    return count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: smaller cube, fewer queries")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="fail below this cold/optimized ratio "
                             "(default 3.0)")
    parser.add_argument("--advice-out", default=None, metavar="PATH",
                        help="write the timings and the optimizer's "
                             "cache stats as JSON (CI artifact)")
    args = parser.parse_args(argv)

    rows = 40_000 if args.quick else 200_000
    cells = 256 if args.quick else 1_024
    queries = 120 if args.quick else 400
    flush_every = 25
    flush_rows = 256
    tenants = 8

    pool = spec_pool(cells, tenants)
    plan = schedule(len(pool), queries, flush_every, seed=3)
    flushes = sum(1 for op in plan if op < 0)
    print(f"cube: {rows} rows / {cells} cells; pool of {len(pool)} specs, "
          f"{queries} Zipf(s={ZIPF_S}) queries, {flushes} interleaved "
          f"flushes")

    cold_cube, cold_session = build_side(rows, cells, k=10, seed=1)
    cold_service = QueryService(cube=cold_cube)
    cold_responses, cold_seconds = run_arm(
        cold_service, cold_session, pool, plan, cells, flush_rows)

    opt_cube, opt_session = build_side(rows, cells, k=10, seed=1)
    optimizer = Optimizer()
    opt_service = QueryService(cube=opt_cube, optimizer=optimizer)
    opt_responses, opt_seconds = run_arm(
        opt_service, opt_session, pool, plan, cells, flush_rows)

    ok = True
    mismatches = payload_mismatches(cold_responses, opt_responses)
    if mismatches:
        print(f"FAIL: {mismatches}/{len(cold_responses)} optimized "
              "payloads differ from cold execution")
        ok = False

    stats = optimizer.stats()
    cache = stats["cache"]
    speedup = cold_seconds / opt_seconds if opt_seconds else float("inf")
    print(f"{'queries':>8} {'cold_s':>9} {'opt_s':>9} {'speedup':>8} "
          f"{'hit_rate':>9} {'stale':>6}")
    print(f"{len(cold_responses):>8} {cold_seconds:>9.3f} "
          f"{opt_seconds:>9.3f} {speedup:>7.1f}x "
          f"{cache['hit_rate']:>9.2f} {cache['stale_drops']:>6}")

    if not cache["hits"]:
        print("FAIL: the optimizer cache never hit — the workload is "
              "supposed to be repeat-heavy")
        ok = False
    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below the "
              f"{args.min_speedup:.1f}x gate")
        ok = False

    if args.advice_out:
        payload = {"speedup": speedup, "cold_seconds": cold_seconds,
                   "optimized_seconds": opt_seconds,
                   "queries": len(cold_responses), "flushes": flushes,
                   "stats": stats}
        path = pathlib.Path(args.advice_out)
        path.write_text(json.dumps(payload, indent=2) + "\n",
                        encoding="utf-8")
        print(f"optimizer stats -> {path}")

    if not ok:
        return 1
    print(f"OK: {len(cold_responses)} payloads bit-identical; "
          f"{speedup:.1f}x >= {args.min_speedup:.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
