"""Scatter-gather broker: fan out, merge ~200-byte partials, solve once.

The :class:`ClusterBroker` is the query-side counterpart of the
coordinator: given an aggregation query it

1. **routes** — picks one live replica per shard (replication-aware:
   choice rotates deterministically across a shard's live owners, so
   replicas share read load; point queries whose filters pin every
   dimension route to the single owning shard);
2. **scatters** — calls each assigned node in turn, in node-id order and
   in the caller's thread; each node reduces its shards with vectorized
   packed merges.  A node's share is a few small numpy reductions per
   shard, so a thread-pool hand-off cost more than it overlapped at
   every node count measured (1-16 nodes, 64 shards);
3. **gathers** — combines the per-shard partial sketches (~200 bytes
   each at the paper's ``k = 10``) in ascending shard order with a strict
   left fold;
4. leaves the max-entropy **solve** to the query service: once on the
   combined sketch for a roll-up, and — for group-bys — once *batched*
   across every gathered group (the per-shard group partials feed
   straight into :func:`repro.core.batch_solver.fit_estimators`, so a
   10k-group scatter costs one stacked Newton pass, reported once as
   ``solve_seconds``/``solve_calls=1``, not per cell).

Because a shard's partial is a deterministic left fold over that shard's
cells — computed identically by every replica — the gathered result is
bit-for-bit independent of both the node count and which replicas
answered.  That is what makes the failover gate ("kill a node, answers
unchanged") an exact-equality check rather than a tolerance test.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from ..core.errors import ClusterError
from ..druid.aggregators import AggregatorState
from ..telemetry import TELEMETRY
from .coordinator import ClusterCoordinator
from .node import DataNode, ShardPartial

T = TypeVar("T")


@dataclass(frozen=True)
class ScatterProfile:
    """Per-phase cost of one scatter-gather query (route/scatter/merge).

    The estimator solve happens downstream in the query service and is
    reported there as ``solve_seconds``; together the four phases are the
    cluster's Eq. 2 decomposition.
    """

    route_seconds: float
    scatter_seconds: float
    merge_seconds: float
    nodes_queried: int
    shards_scanned: int
    cells_scanned: int
    partial_bytes: int


class ClusterBroker:
    """Scatter-gather query executor over a :class:`ClusterCoordinator`."""

    def __init__(self, coordinator: ClusterCoordinator):
        self.coordinator = coordinator
        #: Guards queries_served and last_profile: brokers are shared by
        #: concurrent callers.
        self._lock = threading.Lock()
        #: Profile of the most recent scatter round, for inspection; each
        #: scatter also returns its own profile.
        self.last_profile: ScatterProfile | None = None
        #: Scatter rounds served (tests use this to assert scan sharing).
        self.queries_served = 0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route(self, filters: Mapping[str, object] | None = None
              ) -> dict[str, list[int]]:
        """Node -> shard assignment for one query.

        Each shard is served by one live owner; the pick rotates with the
        shard id across the owner list so replicas split read load.  When
        ``filters`` pin every dimension, the full key identifies its one
        shard and the scatter collapses to a single node.
        """
        coordinator = self.coordinator
        if filters and set(filters) == set(coordinator.dimensions):
            key = tuple(filters[dim] for dim in coordinator.dimensions)
            shards: list[int] = [coordinator.shard_of_key(key)]
        else:
            shards = list(range(coordinator.num_shards))
        assignments: dict[str, list[int]] = {}
        telemetry_on = TELEMETRY.enabled
        dead_routes: dict[str, int] = {}
        for shard in shards:
            owners = coordinator.live_owners(shard)
            if not owners:
                raise ClusterError(
                    f"shard {shard} is unavailable: no live replica")
            node_id = owners[shard % len(owners)]
            assignments.setdefault(node_id, []).append(shard)
            if telemetry_on:
                for owner in coordinator.ring.owners(shard):
                    if owner not in owners:
                        dead_routes[owner] = dead_routes.get(owner, 0) + 1
        if telemetry_on and dead_routes:
            # Shards routed around a dead replica: record the failover on
            # the active scatter span and in the registry.
            span = TELEMETRY.tracer.current_span()
            for node_id, count in sorted(dead_routes.items()):
                if span is not None:
                    span.add_event("failover", node=node_id, shards=count)
                TELEMETRY.registry.counter("cluster_failover_routes_total",
                                           node=node_id).inc(count)
        return assignments

    def close(self) -> None:
        """Release nothing: the broker holds no threads or handles.

        Kept so callers that tear a system down can close every broker
        they hold without knowing what it owns.
        """

    # ------------------------------------------------------------------
    # Scatter-gather execution
    # ------------------------------------------------------------------

    def scatter_rollup(self, aggregator: str,
                       filters: Mapping[str, object] | None = None,
                       interval: tuple[float, float] | None = None
                       ) -> tuple[AggregatorState | None, ScatterProfile]:
        """Merged cluster-wide state for one roll-up (None: no cells),
        with the round's route/scatter/merge profile."""
        return self._scatter_gather(
            "rollup", filters,
            lambda node, shards: node.shard_partials(
                aggregator, shards, filters, interval),
            _fold_rollup, aggregator=aggregator)

    def scatter_group(self, aggregator: str, dimension: str,
                      filters: Mapping[str, object] | None = None
                      ) -> tuple[dict[object, AggregatorState],
                                 ScatterProfile]:
        """Merged state per distinct value of ``dimension`` (group-by),
        with the round's route/scatter/merge profile.

        Shards colocate whole cells, so each group value's partials fold
        across shards in ascending shard order, mirroring the
        single-process engine's ascending-segment fold.
        """
        return self._scatter_gather(
            "group", filters,
            lambda node, shards: node.group_partials(
                aggregator, shards, dimension, filters),
            _fold_groups, aggregator=aggregator, dimension=dimension)

    def _scatter_gather(self, kind: str,
                        filters: Mapping[str, object] | None,
                        call: Callable[[DataNode, list[int]],
                                       list[ShardPartial]],
                        fold: Callable[[Sequence[ShardPartial]], T],
                        **span_attributes: str) -> tuple[T, ScatterProfile]:
        """Route, call every assigned node, fold the partials in ascending
        shard order, and record the round's :class:`ScatterProfile`."""
        telemetry_on = TELEMETRY.enabled
        with (TELEMETRY.tracer.span("cluster.scatter", kind=kind,
                                    **span_attributes)
              if telemetry_on else nullcontext()) as scatter_span:
            start = time.perf_counter()
            assignments = self.route(filters)
            route_seconds = time.perf_counter() - start

            start = time.perf_counter()
            partials = self._scatter(assignments, call)
            scatter_seconds = time.perf_counter() - start
            if telemetry_on:
                self._absorb_telemetry(p.telemetry for p in partials)

            start = time.perf_counter()
            partials.sort(key=lambda partial: partial.shard)
            merged = fold(partials)
            merge_seconds = time.perf_counter() - start

            profile = ScatterProfile(
                route_seconds=route_seconds, scatter_seconds=scatter_seconds,
                merge_seconds=merge_seconds, nodes_queried=len(assignments),
                shards_scanned=len(partials),
                cells_scanned=sum(p.cells_scanned for p in partials),
                partial_bytes=sum(p.size_bytes() for p in partials))
            with self._lock:
                self.queries_served += 1
                self.last_profile = profile
            if telemetry_on:
                self._emit_scatter_telemetry(scatter_span, kind, profile)
        return merged, profile

    def _scatter(self, assignments: dict[str, list[int]],
                 call: Callable[[DataNode, list[int]], list[ShardPartial]]
                 ) -> list[ShardPartial]:
        """Call each assigned node in node-id order; flatten the replies."""
        nodes = self.coordinator.nodes
        partials: list[ShardPartial] = []
        for node_id, shards in sorted(assignments.items()):
            with (TELEMETRY.tracer.span("cluster.node", node=node_id,
                                        shards=len(shards))
                  if TELEMETRY.enabled else nullcontext()):
                partials.extend(call(nodes[node_id], shards))
        return partials

    def _absorb_telemetry(self, payloads: Iterable[dict | None]) -> None:
        """Adopt shipped shard spans and fold node histogram partials."""
        if not TELEMETRY.enabled:
            return
        tracer = TELEMETRY.tracer
        registry = TELEMETRY.registry
        for payload in payloads:
            if not payload:
                continue
            span = payload.get("span")
            if span is not None:
                tracer.adopt(span)
            hist = payload.get("hist")
            if hist is not None:
                registry.histogram(
                    "cluster_shard_scan_seconds").merge_partial(hist)

    def _emit_scatter_telemetry(self, scatter_span, kind: str,
                                profile: ScatterProfile) -> None:
        """Phase spans + registry metrics for the profile just recorded."""
        if not TELEMETRY.enabled:
            return
        tracer = TELEMETRY.tracer
        base = scatter_span.start_monotonic
        tracer.record("cluster.route", profile.route_seconds,
                      parent=scatter_span, start_monotonic=base,
                      nodes=profile.nodes_queried)
        tracer.record("cluster.gather", profile.merge_seconds,
                      parent=scatter_span,
                      start_monotonic=(base + profile.route_seconds
                                       + profile.scatter_seconds),
                      shards=profile.shards_scanned,
                      partial_bytes=profile.partial_bytes)
        scatter_span.set_attribute("nodes", profile.nodes_queried)
        scatter_span.set_attribute("shards", profile.shards_scanned)
        scatter_span.set_attribute("cells", profile.cells_scanned)
        registry = TELEMETRY.registry
        registry.counter("cluster_scatter_queries_total", kind=kind).inc()
        registry.counter("cluster_shards_scanned_total",
                         kind=kind).inc(profile.shards_scanned)
        registry.counter("cluster_partial_bytes_total",
                         kind=kind).inc(profile.partial_bytes)
        registry.histogram("cluster_scatter_seconds",
                           kind=kind).observe(profile.scatter_seconds)


def _fold_rollup(partials: Sequence[ShardPartial]) -> AggregatorState | None:
    """Strict left fold of the shard states (None: no partials)."""
    merged: AggregatorState | None = None
    for partial in partials:
        if merged is None:
            merged = partial.state.copy()
        else:
            merged.merge(partial.state)
    return merged


def _fold_groups(partials: Sequence[ShardPartial]
                 ) -> dict[object, AggregatorState]:
    """Per group value, a strict left fold of its shard states."""
    merged: dict[object, AggregatorState] = {}
    for partial in partials:
        for value, state in partial.state.items():
            existing = merged.get(value)
            if existing is None:
                merged[value] = state.copy()
            else:
                existing.merge(state)
    return merged
