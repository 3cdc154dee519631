"""Cluster serving: ingest, scale out, kill a node, identical quantiles.

Walks the full lifecycle of the simulated scatter-gather cluster
(:mod:`repro.cluster`):

1. build a 3-node cluster (16 shards, replication 2) and ingest
   synthetic latency telemetry through the Druid-style roll-up path;
2. answer one declarative :class:`~repro.api.QuerySpec` through the
   scatter-gather broker and compare it bit-for-bit against a
   single-process engine on the same rows;
3. scale out to a 4th node — the consistent-hash ring moves ~K/N
   shards, a few hundred bytes each — and show the answers unchanged;
4. kill a node; surviving replicas re-replicate its shards and the
   answers are *still* bit-identical, because every replica folds the
   same per-shard partials.

Run with::

    PYTHONPATH=src python examples/cluster_quantiles.py
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.api import QueryService, QuerySpec, as_backend, qkey  # noqa: E402
from repro.cluster import ClusterCoordinator, timings_breakdown  # noqa: E402
from repro.druid import DruidEngine, MomentsSketchAggregator  # noqa: E402


def main() -> int:
    rng = np.random.default_rng(0)
    n = 200_000
    latency_ms = rng.lognormal(3.0, 0.8, n)
    endpoint = np.array(["GET /search", "GET /item", "POST /checkout",
                         "GET /home"])[rng.integers(0, 4, n)]

    # ------------------------------------------------------------------
    # 1. Ingest into a 3-node cluster.
    # ------------------------------------------------------------------
    cluster = ClusterCoordinator(
        dimensions=("endpoint",),
        aggregators={"latency": MomentsSketchAggregator(k=10)},
        num_shards=16, replication=2, granularity=1.0,
        nodes=["node-0", "node-1", "node-2"])
    # Shard-aligned time chunks make the single-process comparison below
    # bit-exact (same partial fold order); any timestamps work otherwise.
    timestamps = cluster.shard_ids([endpoint]).astype(float)
    cluster.ingest(timestamps, [endpoint], latency_ms)
    print(f"ingested {n} rows into {len(cluster.live_nodes)} nodes, "
          f"{cluster.num_shards} shards, replication {cluster.replication}")

    # ------------------------------------------------------------------
    # 2. One spec, scatter-gather vs single process.
    # ------------------------------------------------------------------
    backend = as_backend(cluster)
    single = DruidEngine(dimensions=("endpoint",),
                         aggregators={"latency": MomentsSketchAggregator()},
                         granularity=1.0)
    single.ingest(timestamps, [endpoint], latency_ms)
    service = QueryService(cluster=backend, druid=single)

    spec = QuerySpec(kind="quantile", quantiles=(0.5, 0.99),
                     report_moments=True)
    scattered = service.execute(spec, backend="cluster")
    local = service.execute(spec, backend="druid")
    print("\np50 / p99 over all endpoints:",
          {key: round(value, 3) for key, value in scattered.estimates.items()})
    print("bit-exact vs single process:",
          scattered.moments == local.moments
          and scattered.estimates == local.estimates)
    print("phase timings:",
          {key: f"{value * 1e3:.2f}ms" for key, value in
           timings_breakdown(backend,
                             scattered.timings.solve_seconds).items()})

    per_endpoint = service.execute(
        QuerySpec(kind="group_by", quantiles=(0.99,),
                  group_dimension="endpoint"), backend="cluster")
    print("p99 by endpoint:",
          {str(group): round(values[qkey(0.99)], 1)
           for group, values in sorted(per_endpoint.groups.items())})

    # ------------------------------------------------------------------
    # 3. Scale out: add a node, shards rebalance, answers unchanged.
    # ------------------------------------------------------------------
    cluster.add_node("node-3")
    moved = cluster.last_rebalance
    grown = service.execute(spec, backend="cluster")
    print(f"\nscale-out to 4 nodes: moved {moved.copied_shards} shard "
          f"copies ({moved.bytes_copied} bytes)")
    print("answers unchanged after scale-out:",
          grown.moments == scattered.moments
          and grown.estimates == scattered.estimates)

    # ------------------------------------------------------------------
    # 4. Kill a node: replicas repair, answers still bit-identical.
    # ------------------------------------------------------------------
    cluster.fail_node("node-1", repair=True)
    repaired = cluster.last_rebalance
    after = service.execute(spec, backend="cluster")
    print(f"\nkilled node-1; re-replicated {repaired.copied_shards} shards "
          f"({repaired.bytes_copied} bytes) onto survivors")
    print("live nodes:", list(cluster.live_nodes))
    print("answers unchanged after failover:",
          after.moments == scattered.moments
          and after.estimates == scattered.estimates)
    every_shard_replicated = all(
        len(cluster.live_owners(shard)) == cluster.replication
        for shard in range(cluster.num_shards))
    print("every shard back at full replication:", every_shard_replicated)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
