"""Cluster strong scaling and failover correctness (repro.cluster).

Builds simulated clusters of 1 -> 16 data nodes over the same
pre-aggregated dataset and runs one quantile spec through the
scatter-gather broker on each, reporting the four-phase cost
decomposition (route / scatter / merge / solve).  The per-shard partial
fold makes answers independent of topology, so the run doubles as the
cluster's correctness gate:

* **bit-exactness across node counts** — every cluster returns the
  identical merged moments and estimates;
* **bit-exactness vs single process** — a one-process Druid engine with
  shard-aligned segments returns the same bits;
* **failover** — killing a node on the largest cluster (replication 2),
  with and without repair, leaves the answers bit-identical, and repair
  restores ``replication`` live owners for every shard;
* **scaling shape** — broker-side merge+solve stays roughly flat (it
  folds the same ~200-byte per-shard partials regardless of node
  count); pass ``--require-scaling`` to enforce it.

Usage::

    python benchmarks/bench_cluster_scaling.py             # full sweep
    python benchmarks/bench_cluster_scaling.py --quick     # CI smoke
    python benchmarks/bench_cluster_scaling.py --require-scaling

Exits non-zero on any correctness violation (always) or scaling
violation (with ``--require-scaling``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

# Allow running as a plain script from any working directory.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.api import QueryService, QuerySpec, as_backend  # noqa: E402
from repro.cluster import ClusterCoordinator  # noqa: E402
from repro.druid import DruidEngine, MomentsSketchAggregator  # noqa: E402

QUANTILES = (0.5, 0.9, 0.99)


def build_cluster(num_nodes: int, num_shards: int, replication: int,
                  timestamps: np.ndarray, cells: np.ndarray,
                  values: np.ndarray, k: int = 10) -> ClusterCoordinator:
    cluster = ClusterCoordinator(
        dimensions=("cell",),
        aggregators={"value": MomentsSketchAggregator(k=k)},
        num_shards=num_shards, replication=replication, granularity=1.0,
        nodes=[f"node-{i}" for i in range(num_nodes)])
    cluster.ingest(timestamps, [cells], values)
    return cluster


def run_query(service: QueryService, backend_name: str, spec: QuerySpec,
              repeats: int) -> tuple[object, float]:
    """Best-of-``repeats`` execution (returns last response, best seconds)."""
    best = float("inf")
    response = None
    for _ in range(repeats):
        start = time.perf_counter()
        response = service.execute(spec, backend=backend_name)
        best = min(best, time.perf_counter() - start)
    return response, best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: smaller data, fewer clusters")
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--require-scaling", action="store_true",
                        help="fail unless broker merge+solve stays sublinear "
                             "in node count")
    args = parser.parse_args(argv)

    node_counts = (1, 2, 4) if args.quick else (1, 2, 4, 8, 16)
    num_shards = 16 if args.quick else 64
    replication = 2
    rows = args.rows or (60_000 if args.quick else 400_000)
    cell_size = 100

    rng = np.random.default_rng(42)
    values = rng.lognormal(1.0, 1.2, rows)
    cells = (np.arange(rows) // cell_size).astype(int)

    # Shard-aligned time chunks: the reference engine's segments coincide
    # with the cluster's shards, so both fold per-shard partials in
    # ascending shard order and the comparison is bit-for-bit.
    probe = ClusterCoordinator(
        dimensions=("cell",),
        aggregators={"value": MomentsSketchAggregator(k=10)},
        num_shards=num_shards, replication=replication, granularity=1.0,
        nodes=["probe"])
    timestamps = probe.shard_ids([cells]).astype(float)

    reference = DruidEngine(dimensions=("cell",),
                            aggregators={"value": MomentsSketchAggregator()},
                            granularity=1.0)
    reference.ingest(timestamps, [cells], values)
    spec = QuerySpec(kind="quantile", quantiles=QUANTILES,
                     report_moments=True)
    single = QueryService(druid=reference).execute(spec)

    print(f"{rows} rows, {rows // cell_size} cells, {num_shards} shards, "
          f"replication {replication}")
    header = (f"{'nodes':>6} {'route_ms':>9} {'scatter_ms':>11} "
              f"{'merge_ms':>9} {'solve_ms':>9} {'total_ms':>9} "
              f"{'partial_B':>10}")
    print(header)

    ok = True
    repeats = 2 if args.quick else 3
    curve: list[tuple[int, float]] = []
    largest = None
    baseline = None
    for num_nodes in node_counts:
        cluster = build_cluster(num_nodes, num_shards, replication,
                                timestamps, cells, values)
        backend = as_backend(cluster)
        service = QueryService(cluster=backend)
        response, _ = run_query(service, "cluster", spec, repeats)
        profile = backend.last_profile
        solve = response.timings.solve_seconds
        total = (profile.route_seconds + profile.scatter_seconds
                 + profile.merge_seconds + solve)
        print(f"{num_nodes:>6} {profile.route_seconds * 1e3:>9.3f} "
              f"{profile.scatter_seconds * 1e3:>11.3f} "
              f"{profile.merge_seconds * 1e3:>9.3f} {solve * 1e3:>9.3f} "
              f"{total * 1e3:>9.3f} {profile.partial_bytes:>10}")
        curve.append((num_nodes, profile.merge_seconds + solve))
        if baseline is None:
            baseline = response
        elif (response.moments != baseline.moments
              or response.estimates != baseline.estimates):
            print(f"FAIL: {num_nodes}-node answers differ from "
                  f"{node_counts[0]}-node answers")
            ok = False
        largest = (cluster, backend, response)

    if (baseline.moments != single.moments
            or baseline.estimates != single.estimates):
        print("FAIL: cluster answers differ from the single-process engine")
        ok = False
    else:
        print("OK: bit-exact across node counts and vs single process")

    # ------------------------------------------------------------------
    # Failover gate: kill a node, answers must not change by one bit.
    # ------------------------------------------------------------------
    cluster, backend, before = largest
    service = QueryService(cluster=backend)
    victim = cluster.live_nodes[-1]
    cluster.fail_node(victim, repair=False)
    degraded = service.execute(spec, backend="cluster")
    if (degraded.moments != before.moments
            or degraded.estimates != before.estimates):
        print(f"FAIL: answers changed after killing {victim} (degraded)")
        ok = False

    survivor = cluster.live_nodes[-1]
    cluster.restore_node(victim)
    cluster.fail_node(survivor, repair=True)
    repaired = service.execute(spec, backend="cluster")
    if (repaired.moments != before.moments
            or repaired.estimates != before.estimates):
        print(f"FAIL: answers changed after repairing around {survivor}")
        ok = False
    if len(cluster.live_nodes) >= replication:
        short = [shard for shard in range(num_shards)
                 if len(cluster.live_owners(shard)) < replication]
        if short:
            print(f"FAIL: {len(short)} shards below replication "
                  f"{replication} after repair")
            ok = False
    if ok:
        moved = cluster.last_rebalance
        print(f"OK: failover bit-exact (degraded + repaired; repair copied "
              f"{moved.copied_shards} shards / {moved.bytes_copied} bytes)")

    # ------------------------------------------------------------------
    # Scaling shape: broker merge+solve folds a node-count-independent
    # set of per-shard partials, so it must not grow with the cluster.
    # ------------------------------------------------------------------
    if args.require_scaling and len(curve) > 1:
        first, last = curve[0][1], curve[-1][1]
        ratio = last / first if first > 0 else 1.0
        if ratio > 3.0:
            print(f"FAIL: broker merge+solve grew {ratio:.1f}x from "
                  f"{curve[0][0]} to {curve[-1][0]} nodes")
            ok = False
        else:
            print(f"OK: broker merge+solve {ratio:.2f}x from "
                  f"{curve[0][0]} to {curve[-1][0]} nodes (sublinear)")

    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
