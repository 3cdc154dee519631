"""Unified-API adapter: run any :class:`~repro.api.QuerySpec` on a cluster.

Registers :class:`ClusterBackend` with :func:`repro.api.as_backend`, so
``QueryService(cluster=coordinator)`` (or ``as_backend(coordinator)``)
executes every existing query kind — ``quantile``, ``cdf``,
``threshold_count``, ``group_by``, ``top_n`` — against the scatter-gather
broker unchanged.  The broker's route/scatter/merge phases map onto the
API's cost decomposition (route -> ``planner_seconds``, scatter + gather
merge -> ``merge_seconds``; the service adds ``solve_seconds``), and the
full four-phase profile stays available on
:attr:`ClusterBackend.last_profile`.

``QueryService.execute_batch`` shares cluster scans exactly like any
other backend: specs with equal scan signatures reuse one scatter-gather
round's merged partials, so N quantile specs over the same filter cost
one scatter-gather round and one solve.

Grouped kinds hand the gathered per-shard partials straight to the
service's batched estimation layer: every group's merged sketch joins
one stacked max-entropy solve (``timings.solve_route == "batched"``,
``solve_calls == 1``), so cluster group-bys and top-n rankings pay one
Newton pass regardless of group count.
"""

from __future__ import annotations

from ..api.backends import (Backend, GroupRollupResult, RollupResult,
                            _state_summary, register_adapter)
from ..api.spec import QuerySpec
from ..core.errors import QueryError
from ..druid.aggregators import MomentsSketchAggregator
from ..optimizer.epochs import EPOCHS
from .broker import ClusterBroker, ScatterProfile
from .coordinator import ClusterCoordinator


class ClusterBackend(Backend):
    """Adapter over a :class:`ClusterBroker` / :class:`ClusterCoordinator`.

    ``spec.measure`` selects the aggregator exactly as on the Druid
    backend; when omitted, a single registered aggregator is implicit,
    else the first moments-sketch aggregator.
    """

    name = "cluster"

    def __init__(self, cluster: ClusterCoordinator | ClusterBroker):
        self.broker = (cluster if isinstance(cluster, ClusterBroker)
                       else ClusterBroker(cluster))
        self.coordinator = self.broker.coordinator

    def cache_target(self):
        return self.coordinator

    def scan_epoch(self, spec: QuerySpec) -> tuple:
        """Per-shard flush-epoch vector for the shards this scan reads.

        A point query (every routing dimension filtered to one value, no
        group-by) touches exactly one shard, so its cached answer stays
        valid across writes that land on other shards.  Anything broader
        reads every shard and keys on the full epoch vector.
        """
        dims = tuple(self.coordinator.dimensions)
        filters = spec.filters_dict()
        if (spec.group_dimension is None and dims
                and all(dim in filters for dim in dims)):
            key = tuple(filters[dim] for dim in dims)
            shards = (self.coordinator.shard_of_key(key),)
        else:
            shards = tuple(range(self.coordinator.num_shards))
        return EPOCHS.epoch_vector(self.coordinator, shards)

    @property
    def supports_packed(self) -> bool:  # type: ignore[override]
        return bool(self.coordinator.packed_names)

    @property
    def last_profile(self) -> ScatterProfile | None:
        """Route/scatter/merge phase timings of the last scatter round."""
        return self.broker.last_profile

    def _aggregator(self, spec: QuerySpec) -> str:
        if spec.measure is not None:
            if spec.measure not in self.coordinator.aggregators:
                raise QueryError(
                    f"unknown aggregator {spec.measure!r}; registered: "
                    f"{sorted(self.coordinator.aggregators)}")
            return spec.measure
        names = list(self.coordinator.aggregators)
        if len(names) == 1:
            return names[0]
        for name, factory in self.coordinator.aggregators.items():
            if isinstance(factory, MomentsSketchAggregator):
                return name
        raise QueryError(
            f"ambiguous measure; set spec.measure to one of {sorted(names)}")

    def _route_of(self, aggregator: str) -> str:
        return ("packed" if aggregator in self.coordinator.packed_names
                else "loop")

    def rollup(self, spec: QuerySpec) -> RollupResult:
        aggregator = self._aggregator(spec)
        merged, profile = self.broker.scatter_rollup(
            aggregator, spec.filters_dict(), spec.interval)
        if merged is None:
            raise QueryError("query matched no cells")
        return RollupResult(
            summary=_state_summary(merged),
            cells_scanned=profile.cells_scanned,
            merge_calls=profile.shards_scanned,
            planner_seconds=profile.route_seconds,
            merge_seconds=profile.scatter_seconds + profile.merge_seconds,
            route=self._route_of(aggregator))

    def group_rollup(self, spec: QuerySpec) -> GroupRollupResult:
        if spec.interval is not None:
            # Mirror the Druid backend: group scans are all-time until
            # group_states learns intervals.
            raise QueryError(
                "the cluster backend does not support intervals on grouped "
                "queries; drop the interval")
        aggregator = self._aggregator(spec)
        groups, profile = self.broker.scatter_group(
            aggregator, spec.group_dimension, spec.filters_dict())
        return GroupRollupResult(
            groups={value: _state_summary(state)
                    for value, state in groups.items()},
            cells_scanned=profile.cells_scanned,
            merge_calls=len(groups),
            planner_seconds=profile.route_seconds,
            merge_seconds=profile.scatter_seconds + profile.merge_seconds,
            route=self._route_of(aggregator))


def timings_breakdown(backend: ClusterBackend, solve_seconds: float = 0.0
                      ) -> dict[str, float]:
    """The cluster's four-phase timing dict (route/scatter/merge/solve)."""
    profile = backend.last_profile
    if profile is None:
        return {"route_seconds": 0.0, "scatter_seconds": 0.0,
                "merge_seconds": 0.0, "solve_seconds": solve_seconds}
    return {"route_seconds": profile.route_seconds,
            "scatter_seconds": profile.scatter_seconds,
            "merge_seconds": profile.merge_seconds,
            "solve_seconds": solve_seconds}


register_adapter(
    lambda obj: isinstance(obj, (ClusterCoordinator, ClusterBroker)),
    ClusterBackend)


__all__ = ["ClusterBackend", "timings_breakdown"]
