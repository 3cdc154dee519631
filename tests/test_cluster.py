"""Tests for the repro.cluster scatter-gather serving layer.

Covers the three promises the cluster makes:

* **placement** — consistent-hash shard ownership is deterministic,
  keeps ``replication`` distinct owners, moves ~K/N shards per node add,
  and never disturbs shards the changed node did not own;
* **replication** — every live replica of a shard is bit-identical, and
  node add / graceful remove / fail+repair keep every shard at
  ``replication`` live owners;
* **serving** — any :class:`~repro.api.QuerySpec` through
  ``as_backend(cluster)`` answers identically before and after topology
  changes, with scan sharing in ``execute_batch``.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import QueryService, QuerySpec, as_backend, qkey
from repro.cluster import (ClusterBackend, ClusterBroker, ClusterCoordinator,
                           DataNode, HashRing, shard_of, stable_hash)
from repro.core.errors import ClusterError, QueryError
from repro.druid import (DoubleSumAggregator, DruidEngine,
                         MomentsSketchAggregator)

K = 8  # moment order for test clusters


def make_cluster(nodes=4, shards=16, replication=2, **kwargs):
    return ClusterCoordinator(
        dimensions=("cell",),
        aggregators={"m": MomentsSketchAggregator(k=K),
                     "total": DoubleSumAggregator()},
        num_shards=shards, replication=replication, granularity=1.0,
        nodes=[f"n{i}" for i in range(nodes)], **kwargs)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    values = rng.lognormal(1.0, 1.1, 20_000)
    cells = (np.arange(values.size) // 200).astype(int)
    return values, cells


def ingest(cluster, data, shard_aligned=True):
    values, cells = data
    if shard_aligned:
        timestamps = cluster.shard_ids([cells]).astype(float)
    else:
        timestamps = np.zeros(values.size)
    cluster.ingest(timestamps, [cells], values)
    return timestamps


# ----------------------------------------------------------------------
# Hash ring placement
# ----------------------------------------------------------------------

class TestStableHash:
    def test_deterministic_and_type_normalized(self):
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))
        assert stable_hash((np.str_("a"), np.int64(1))) == stable_hash(("a", 1))

    def test_equal_comparing_keys_hash_alike(self):
        # Routing must agree with == cell matching across the numeric
        # tower: a float-typed filter still finds int-keyed cells.
        assert stable_hash((1.0,)) == stable_hash((1,)) == stable_hash((True,))
        assert stable_hash((np.float64(7.0),)) == stable_hash((7,))
        assert stable_hash((1.5,)) != stable_hash((1,))

    def test_shard_of_range(self):
        shards = {shard_of(("cell", i), 16) for i in range(200)}
        assert shards <= set(range(16))
        assert len(shards) > 1

    def test_shard_of_validates(self):
        with pytest.raises(ClusterError):
            shard_of(("x",), 0)


class TestHashRing:
    def test_owner_invariants(self):
        ring = HashRing(nodes=["a", "b", "c"], replication=2)
        for shard in range(64):
            owners = ring.owners(shard)
            assert len(owners) == 2
            assert len(set(owners)) == 2
            assert ring.owners(shard) == owners  # deterministic

    def test_fewer_nodes_than_replication(self):
        ring = HashRing(nodes=["only"], replication=3)
        assert ring.owners(0) == ("only",)

    def test_membership_errors(self):
        ring = HashRing(nodes=["a"])
        with pytest.raises(ClusterError):
            ring.add_node("a")
        with pytest.raises(ClusterError):
            ring.remove_node("zz")
        with pytest.raises(ClusterError):
            HashRing().owners(0)
        with pytest.raises(ClusterError):
            HashRing(replication=0)

    @pytest.mark.parametrize("nodes,vnodes,shards",
                             [(4, 64, 256), (8, 128, 256), (3, 64, 64)])
    def test_node_add_moves_about_k_over_n(self, nodes, vnodes, shards):
        """Adding one node re-homes ~K/(N+1) primaries, not a rehash."""
        ring = HashRing(nodes=[f"n{i}" for i in range(nodes)],
                        replication=2, vnodes=vnodes)
        before = ring.placement(shards)
        ring.add_node("new")
        after = ring.placement(shards)
        moved_primaries = sum(1 for shard in range(shards)
                              if after[shard][0] != before[shard][0])
        ideal = shards / (nodes + 1)
        assert 0 < moved_primaries <= 2 * ideal
        # Owner-set changes (what a rebalance must copy) stay near
        # replication * K / (N+1), far from the K of a full rehash.
        moved_sets = len(HashRing.moved_shards(before, after))
        assert moved_sets <= 2 * ring.replication * ideal

    @settings(max_examples=25, deadline=None)
    @given(num_nodes=st.integers(1, 8), replication=st.integers(1, 3),
           shards=st.integers(1, 64))
    def test_replica_count_property(self, num_nodes, replication, shards):
        ring = HashRing(nodes=[f"n{i}" for i in range(num_nodes)],
                        replication=replication, vnodes=16)
        want = min(replication, num_nodes)
        for shard in range(shards):
            owners = ring.owners(shard)
            assert len(owners) == len(set(owners)) == want

    @settings(max_examples=20, deadline=None)
    @given(num_nodes=st.integers(2, 8), victim=st.integers(0, 7))
    def test_remove_only_disturbs_owned_shards(self, num_nodes, victim):
        """Shards the removed node did not own keep identical owners."""
        victim = victim % num_nodes
        ring = HashRing(nodes=[f"n{i}" for i in range(num_nodes)],
                        replication=2, vnodes=16)
        before = ring.placement(64)
        ring.remove_node(f"n{victim}")
        after = ring.placement(64)
        for shard in range(64):
            if f"n{victim}" not in before[shard]:
                assert after[shard] == before[shard]

    def test_remove_then_readd_restores_placement(self):
        ring = HashRing(nodes=["a", "b", "c", "d"], replication=2)
        before = ring.placement(64)
        ring.remove_node("b")
        ring.add_node("b")
        assert ring.placement(64) == before


# ----------------------------------------------------------------------
# Coordinator: replication and rebalance
# ----------------------------------------------------------------------

def shard_bytes(cluster, shard):
    """Serialized packed state of one shard from each live holder."""
    blobs = {}
    for node_id, node in cluster.nodes.items():
        if node.alive and shard in node.shards:
            engine = node.shards[shard]
            blobs[node_id] = tuple(
                store.to_bytes()
                for chunk in sorted(engine.segments)
                for store in engine.segments[chunk].packed.values())
    return blobs


class TestCoordinator:
    @pytest.fixture()
    def cluster(self, data):
        cluster = make_cluster(nodes=4, shards=16, replication=2)
        ingest(cluster, data)
        return cluster

    def test_replicas_bit_identical(self, cluster):
        checked = 0
        for shard in range(cluster.num_shards):
            blobs = shard_bytes(cluster, shard)
            if len(blobs) > 1:
                checked += 1
                assert len(set(blobs.values())) == 1, shard
        assert checked > 0

    def test_every_shard_fully_replicated(self, cluster):
        for shard in range(cluster.num_shards):
            owners = cluster.live_owners(shard)
            assert len(owners) == 2
            holders = shard_bytes(cluster, shard)
            if holders:
                assert set(owners) <= set(holders)

    def test_num_cells_counts_each_shard_once(self, cluster, data):
        values, cells = data
        assert cluster.num_cells == len(np.unique(cells))

    def test_add_node_rebalances_minimally(self, cluster):
        held_before = sum(len(n.shards) for n in cluster.nodes.values())
        cluster.add_node("n4")
        report = cluster.last_rebalance
        assert report.copied_shards > 0
        assert report.bytes_copied > 0
        # Movement is bounded: the new node receives about
        # replication * K / N shards, nowhere near every shard.
        assert report.copied_shards <= cluster.num_shards
        assert len(cluster.nodes["n4"].shards) == report.copied_shards
        held_after = sum(len(n.shards) for n in cluster.nodes.values()
                        if n.alive)
        assert held_after == held_before  # replication count preserved
        for shard in range(cluster.num_shards):
            assert len(cluster.live_owners(shard)) == 2
            assert len(set(shard_bytes(cluster, shard).values())) <= 1

    def test_fail_node_with_repair_restores_replication(self, cluster):
        cluster.fail_node("n2", repair=True)
        for shard in range(cluster.num_shards):
            owners = cluster.live_owners(shard)
            assert len(owners) == 2
            assert all(cluster.nodes[node_id].alive for node_id in owners)
            holders = shard_bytes(cluster, shard)
            if holders:
                assert set(owners) <= set(holders)
                assert len(set(holders.values())) == 1

    def test_fail_without_repair_serves_degraded(self, cluster):
        cluster.fail_node("n2", repair=False)
        degraded = [shard for shard in range(cluster.num_shards)
                    if len(cluster.live_owners(shard)) < 2]
        assert degraded  # n2's shards lost one replica
        for shard in range(cluster.num_shards):
            assert len(cluster.live_owners(shard)) >= 1

    def test_graceful_remove(self, cluster):
        before = cluster.num_cells
        cluster.remove_node("n1")
        assert "n1" not in cluster.nodes
        assert cluster.num_cells == before
        for shard in range(cluster.num_shards):
            assert len(cluster.live_owners(shard)) == 2

    def test_remove_after_fail_with_repair_cleans_up(self, cluster):
        cluster.fail_node("n1", repair=True)  # leaves the ring here
        cluster.remove_node("n1")             # decommission the corpse
        assert "n1" not in cluster.nodes
        for shard in range(cluster.num_shards):
            assert len(cluster.live_owners(shard)) == 2

    def test_restore_node_resyncs_missed_ingests(self, data):
        """A revived node must not serve the state it crashed with."""
        values, cells = data
        cluster = make_cluster(nodes=3, shards=8, replication=2)
        half = values.size // 2
        timestamps = cluster.shard_ids([cells]).astype(float)
        cluster.ingest(timestamps[:half], [cells[:half]], values[:half])
        cluster.fail_node("n1", repair=False)
        cluster.ingest(timestamps[half:], [cells[half:]], values[half:])
        service = QueryService(cluster=cluster)
        spec = QuerySpec(kind="quantile", quantiles=(0.5, 0.99), measure="m",
                         report_moments=True)
        degraded = service.execute(spec)
        assert degraded.count == values.size
        cluster.restore_node("n1")
        restored = service.execute(spec)
        assert restored.moments == degraded.moments
        assert restored.estimates == degraded.estimates
        # The revived node's copies are bit-identical to its peers again.
        for shard in range(cluster.num_shards):
            blobs = shard_bytes(cluster, shard)
            assert len(set(blobs.values())) <= 1, shard

    def test_rebalance_never_aliases_replicas(self, cluster, data):
        """Replica stores must be distinct objects, not shared snapshots."""
        values, cells = data
        cluster.add_node("n4")
        cluster.add_node("n5")
        seen: dict[int, list] = {}
        for node in cluster.nodes.values():
            for shard, engine in node.shards.items():
                for segment in engine.segments.values():
                    for store in segment.packed.values():
                        assert all(store is not other
                                   for other in seen.get(shard, [])), shard
                        seen.setdefault(shard, []).append(store)
        # Ingesting more rows must land exactly once per replica: the
        # cluster-wide count stays one copy of the data per query.
        cluster.ingest(cluster.shard_ids([cells]).astype(float),
                       [cells], values)
        response = QueryService(cluster=cluster).execute(
            QuerySpec(kind="quantile", measure="m"))
        assert response.count == 2 * values.size

    def test_fail_last_live_node_is_rejected_without_side_effects(self):
        solo = make_cluster(nodes=1)
        with pytest.raises(ClusterError):
            solo.fail_node("n0")
        assert solo.nodes["n0"].alive  # guard must not half-apply

    def test_topology_errors(self, cluster):
        with pytest.raises(ClusterError):
            cluster.add_node("n0")
        with pytest.raises(ClusterError):
            cluster.fail_node("ghost")
        solo = make_cluster(nodes=1)
        with pytest.raises(ClusterError):
            solo.remove_node("n0")

    def test_ingest_requires_live_nodes(self):
        cluster = ClusterCoordinator(
            dimensions=("cell",),
            aggregators={"m": MomentsSketchAggregator(k=K)}, num_shards=4)
        with pytest.raises(ClusterError):
            cluster.ingest(np.zeros(2), [np.array([0, 1])], np.ones(2))


# ----------------------------------------------------------------------
# Broker + unified-API backend
# ----------------------------------------------------------------------

#: Query kinds the failover and scale-out tests run: the roll-up
#: (``scatter_rollup``) and the three grouped kinds (``scatter_group``).
ANSWER_KINDS = ("quantile", "group_by", "top_n", "threshold_count")


def grouped_spec(kind, values):
    if kind == "threshold_count":
        return QuerySpec(kind=kind, quantiles=(0.99,),
                         thresholds=(float(np.quantile(values, 0.95)),),
                         measure="m", group_dimension="cell")
    return QuerySpec(kind=kind, quantiles=(0.9,), measure="m",
                     group_dimension="cell", n=5 if kind == "top_n" else None)


def assert_same_answers(response, expected):
    assert response.groups == expected.groups
    assert response.top == expected.top
    assert response.estimates == expected.estimates
    assert response.value == expected.value


class TestClusterServing:
    @pytest.fixture(scope="class")
    def setup(self, data):
        values, cells = data
        cluster = make_cluster(nodes=4, shards=16, replication=2)
        timestamps = ingest(cluster, data)
        reference = DruidEngine(
            dimensions=("cell",),
            aggregators={"m": MomentsSketchAggregator(k=K),
                         "total": DoubleSumAggregator()},
            granularity=1.0)
        reference.ingest(timestamps, [cells], values)
        backend = as_backend(cluster)
        service = QueryService(cluster=backend, druid=reference)
        return cluster, backend, service

    def test_as_backend_adapts_coordinator_and_broker(self, data):
        cluster = make_cluster(nodes=2, shards=4)
        assert isinstance(as_backend(cluster), ClusterBackend)
        assert isinstance(as_backend(ClusterBroker(cluster)), ClusterBackend)

    def test_quantile_matches_druid(self, setup):
        _, _, service = setup
        spec = QuerySpec(kind="quantile", quantiles=(0.5, 0.99),
                         measure="m", report_moments=True)
        ours = service.execute(spec, backend="cluster")
        theirs = service.execute(spec, backend="druid")
        assert ours.moments == theirs.moments
        assert ours.estimates == theirs.estimates
        assert ours.route == "packed"
        assert ours.cells_scanned == theirs.cells_scanned

    def test_point_query_routes_to_one_shard(self, setup):
        cluster, backend, service = setup
        spec = QuerySpec(kind="quantile", measure="m", filters={"cell": 7})
        response = service.execute(spec, backend="cluster")
        profile = backend.last_profile
        assert profile.shards_scanned == 1
        assert profile.nodes_queried == 1
        assert response.cells_scanned == 1

    def test_point_query_with_float_typed_filter(self, setup):
        # Cells were ingested under int keys; a numerically-equal float
        # filter (e.g. from --spec JSON) must route to the same shard
        # and return the same answer as the druid backend.
        _, _, service = setup
        spec = QuerySpec(kind="quantile", measure="m", filters={"cell": 7.0})
        assert (service.execute(spec, backend="cluster").estimates
                == service.execute(spec, backend="druid").estimates)

    def test_filters_and_interval(self, setup):
        cluster, _, service = setup
        shard = cluster.shard_of_key((3,))
        spec = QuerySpec(kind="quantile", measure="m", filters={"cell": 3},
                         interval=(float(shard), float(shard)))
        ours = service.execute(spec, backend="cluster")
        theirs = service.execute(spec, backend="druid")
        assert ours.estimates == theirs.estimates
        assert ours.count == 200.0

    def test_no_match_raises(self, setup):
        _, _, service = setup
        spec = QuerySpec(kind="quantile", measure="m",
                         filters={"cell": 10_000})
        with pytest.raises(QueryError):
            service.execute(spec, backend="cluster")

    def test_group_by_and_top_n_match_druid(self, setup):
        _, _, service = setup
        group = QuerySpec(kind="group_by", quantiles=(0.9,), measure="m",
                          group_dimension="cell")
        ours = service.execute(group, backend="cluster")
        theirs = service.execute(group, backend="druid")
        assert ours.groups == theirs.groups
        top = QuerySpec(kind="top_n", quantiles=(0.9,), measure="m",
                        group_dimension="cell", n=5)
        assert (service.execute(top, backend="cluster").top
                == service.execute(top, backend="druid").top)

    def test_group_interval_rejected(self, setup):
        _, _, service = setup
        spec = QuerySpec(kind="group_by", measure="m",
                         group_dimension="cell", interval=(0.0, 1.0))
        with pytest.raises(QueryError):
            service.execute(spec, backend="cluster")

    def test_threshold_count_matches_druid(self, setup, data):
        values, _ = data
        t = float(np.quantile(values, 0.95))
        spec = QuerySpec(kind="threshold_count", quantiles=(0.99,),
                         thresholds=(t,), measure="m",
                         group_dimension="cell")
        _, _, service = setup
        assert (service.execute(spec, backend="cluster").value
                == service.execute(spec, backend="druid").value)

    def test_sum_aggregator_takes_loop_route(self, setup, data):
        values, _ = data
        _, _, service = setup
        spec = QuerySpec(kind="quantile", measure="total")
        response = service.execute(spec, backend="cluster")
        assert response.route == "loop"
        assert response.value == pytest.approx(float(values.sum()))

    def test_execute_batch_shares_cluster_scans(self, setup):
        cluster, _, _ = setup
        backend = ClusterBackend(cluster)  # fresh broker: clean counter
        service = QueryService(cluster=backend)
        specs = [QuerySpec(kind="quantile", quantiles=(q,), measure="m")
                 for q in (0.1, 0.5, 0.9, 0.99)]
        responses = service.execute_batch(specs)
        assert backend.broker.queries_served == 1
        assert [r.shared_scan for r in responses] == [False, True, True, True]
        report = service.last_batch_report
        assert report.distinct_scans == 1

    @pytest.mark.parametrize("kind", ANSWER_KINDS)
    def test_failover_keeps_answers_bit_exact(self, data, kind):
        values, cells = data
        cluster = make_cluster(nodes=4, shards=16, replication=2)
        ingest(cluster, data)
        service = QueryService(cluster=cluster)
        spec = (QuerySpec(kind="quantile", quantiles=(0.5, 0.99), measure="m",
                          report_moments=True)
                if kind == "quantile" else grouped_spec(kind, values))
        before = service.execute(spec)
        cluster.fail_node("n0", repair=False)
        degraded = service.execute(spec)
        assert degraded.moments == before.moments
        assert degraded.estimates == before.estimates
        assert_same_answers(degraded, before)
        # Repair the first loss, then survive a second, unrelated one.
        cluster.fail_node("n0", repair=True)
        cluster.fail_node("n1", repair=True)
        repaired = service.execute(spec)
        assert repaired.moments == before.moments
        assert repaired.estimates == before.estimates
        assert_same_answers(repaired, before)

    @pytest.mark.parametrize("kind", ANSWER_KINDS)
    def test_scale_out_keeps_answers_bit_exact(self, data, kind):
        cluster = make_cluster(nodes=2, shards=16, replication=2)
        ingest(cluster, data)
        service = QueryService(cluster=cluster)
        spec = (QuerySpec(kind="quantile", quantiles=(0.5,), measure="m",
                          report_moments=True)
                if kind == "quantile" else grouped_spec(kind, data[0]))
        before = service.execute(spec)
        for new in ("n2", "n3", "n4"):
            cluster.add_node(new)
            grown = service.execute(spec)
            assert grown.moments == before.moments, new
            assert grown.estimates == before.estimates, new
            assert_same_answers(grown, before)

    def test_all_replicas_down_is_unroutable(self, data):
        cluster = make_cluster(nodes=2, shards=8, replication=2)
        ingest(cluster, data)
        cluster.nodes["n0"].fail()
        cluster.nodes["n1"].fail()
        with pytest.raises(ClusterError):
            QueryService(cluster=cluster).execute(
                QuerySpec(kind="quantile", measure="m"))

    def test_measure_selection_defaults_to_moments(self, setup):
        _, _, service = setup
        response = service.execute(QuerySpec(kind="quantile"),
                                   backend="cluster")
        assert response.route == "packed"

    def test_profile_reports_small_partials(self, setup):
        cluster, backend, service = setup
        service.execute(QuerySpec(kind="quantile", measure="m"),
                        backend="cluster")
        profile = backend.last_profile
        assert profile.shards_scanned > 0
        # ~200 bytes per shard partial at k=8 (the paper's selling point).
        assert profile.partial_bytes < 300 * profile.shards_scanned
        assert profile.cells_scanned == cluster.num_cells


class TestScatterInCallerThread:
    def test_nodes_scan_on_the_calling_thread(self, data, monkeypatch):
        cluster = make_cluster(nodes=4, shards=16)
        ingest(cluster, data)
        threads = []
        for name in ("shard_partials", "group_partials"):
            method = getattr(DataNode, name)

            def recorded(self, *args, _method=method, **kwargs):
                threads.append(threading.get_ident())
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(DataNode, name, recorded)
        service = QueryService(cluster=cluster)
        service.execute(QuerySpec(kind="group_by", quantiles=(0.5,),
                                  measure="m", group_dimension="cell"))
        service.execute(QuerySpec(kind="quantile", quantiles=(0.5,),
                                  measure="m"))
        assert len(threads) == 8  # every node, once per scan
        assert set(threads) == {threading.get_ident()}

    def test_response_reports_its_own_scatter_profile(self, data):
        cluster = make_cluster(nodes=4, shards=16)
        ingest(cluster, data)

        class InterleavedBroker(ClusterBroker):
            """Another caller's point scan completes right after each
            scatter, before the backend builds its response."""

            def scatter_rollup(self, *args, **kwargs):
                result = super().scatter_rollup(*args, **kwargs)
                super().scatter_rollup("m", {"cell": 7})
                return result

            def scatter_group(self, *args, **kwargs):
                result = super().scatter_group(*args, **kwargs)
                super().scatter_rollup("m", {"cell": 7})
                return result

        interleaved = QueryService(
            cluster=ClusterBackend(InterleavedBroker(cluster)))
        alone = QueryService(cluster=cluster)
        for spec in (QuerySpec(kind="quantile", measure="m"),
                     QuerySpec(kind="group_by", measure="m",
                               group_dimension="cell")):
            ours = interleaved.execute(spec)
            expected = alone.execute(spec)
            assert ours.cells_scanned == expected.cells_scanned \
                == cluster.num_cells
            assert ours.merges == expected.merges
