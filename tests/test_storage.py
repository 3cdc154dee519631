"""Tests for the repro.storage persistent tiered layer.

Covers the four promises tiered storage makes:

* **format** — segment files round-trip bit-exactly (warm) or within
  the quantified codec tolerance (cold), and every corruption mode
  (bad checksum, truncation, torn manifest tail) is detected or
  tolerated as specified;
* **bit-exactness** — the read-modify-write LSM keeps every lossless
  tier bit-identical to a RAM packed store fed the identical batches,
  including after sealing, compaction, post-compaction writes, and
  crash recovery;
* **serving** — a TieredStore behind the unified query API answers
  every QuerySpec kind payload-identically to the packed backend, and
  within ε of the exact oracle once its segments are demoted to cold;
* **cluster** — segment-granular snapshot replication ships only
  missing files and rebuilds bit-identical replicas.
"""

import json
import os
import shutil
import threading

import numpy as np
import pytest

from repro.api import QueryService, QuerySpec, qkey
from repro.core.errors import StorageError
from repro.harness import ExactOracle
from repro.ingest import IngestSession, IngestSpec, build_target
from repro.ingest.backends import PackedStoreWriteBackend
from repro.ingest.buffer import WriteBatch
from repro.storage import (ColdSpec, CompactionPolicy, Compactor,
                           DEFAULT_HOT_BUDGET, Manifest, MANIFEST_NAME,
                           TieredStore, build_segment_bytes, canonical_key,
                           open_segment, sort_key, write_segment)
from repro.store import PackedSketchStore

K = 7


# ----------------------------------------------------------------------
# Shared feeders: identical batches into tiered and RAM targets
# ----------------------------------------------------------------------

def batches(seed=0, n_batches=10, rows=200, cells=60):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_batches):
        dims = rng.integers(0, cells, rows).astype(str)
        values = rng.lognormal(0.0, 1.0, rows) + 0.01
        out.append((dims, values))
    return out

def ram_reference(feed, k=K, track_log=True):
    """A RAM packed store fed the same batches (the bit-exact oracle)."""
    backend = PackedStoreWriteBackend(
        PackedSketchStore(k=k, track_log=track_log), dimensions=("cell",))
    for dims, values in feed:
        backend.write(WriteBatch(dims=(dims,), values=values,
                                 timestamps=None, sequence=None))
    return backend

def assert_bit_identical(store: TieredStore, reference) -> None:
    """gather() must equal the RAM store buffer-for-buffer, row order too."""
    gathered, keys = store.gather()
    ram = reference.store
    n = len(ram)
    assert len(gathered) == n
    ram_keys = [None] * n
    for key, row in reference._rows.items():
        ram_keys[row] = key
    assert keys == ram_keys
    np.testing.assert_array_equal(gathered.counts[:n], ram.counts[:n])
    np.testing.assert_array_equal(gathered.mins[:n], ram.mins[:n])
    np.testing.assert_array_equal(gathered.maxs[:n], ram.maxs[:n])
    np.testing.assert_array_equal(gathered.power_sums[:n],
                                  ram.power_sums[:n])
    np.testing.assert_array_equal(gathered.log_sums[:n], ram.log_sums[:n])
    np.testing.assert_array_equal(gathered.log_valid[:n], ram.log_valid[:n])


def small_store(path, seed=0, keys=12, rows=150) -> PackedSketchStore:
    rng = np.random.default_rng(seed)
    store = PackedSketchStore(k=K, track_log=True)
    key_list = []
    for i in range(keys):
        row = store.new_row()
        store.batch_accumulate(np.full(rows, row),
                               rng.lognormal(0, 1, rows) + 0.01)
        key_list.append((f"cell-{i:03d}",))
    return store, key_list


# ----------------------------------------------------------------------
# Segment format
# ----------------------------------------------------------------------

class TestSegmentFormat:

    def test_warm_round_trip_is_bit_exact(self, tmp_path):
        store, keys = small_store(tmp_path)
        path = tmp_path / "seg.rsg"
        write_segment(path, store, keys, np.arange(len(store)))
        reader = open_segment(path)
        try:
            assert reader.kind == 0 and reader.rows == len(store)
            assert reader.k == K and reader.track_log and reader.keeps_log
            # key index is re-sorted by sort key; map rows through it
            order = {key: row for row, key in enumerate(reader.keys)}
            for ram_row, key in enumerate(keys):
                row = order[key]
                assert reader.counts[row] == store.counts[ram_row]
                np.testing.assert_array_equal(
                    reader.power_sums[row], store.power_sums[ram_row])
                np.testing.assert_array_equal(
                    reader.log_sums[row], store.log_sums[ram_row])
                assert reader.first_seen[row] == ram_row
        finally:
            reader.close()

    def test_cold_round_trip_within_codec_tolerance(self, tmp_path):
        store, keys = small_store(tmp_path)
        path = tmp_path / "cold.rsg"
        spec = ColdSpec(mantissa_bits=10, keep_log=True)
        write_segment(path, store, keys, np.arange(len(store)), cold=spec)
        reader = open_segment(path)
        try:
            assert reader.kind == 1 and reader.codec == spec
            order = {key: row for row, key in enumerate(reader.keys)}
            rows = [order[key] for key in keys]
            n = len(store)
            np.testing.assert_array_equal(reader.counts[rows],
                                          store.counts[:n])
            # outward-rounded f32 bounds stay conservative
            assert np.all(reader.mins[rows] <= store.mins[:n])
            assert np.all(reader.maxs[rows] >= store.maxs[:n])
            rel = np.abs(reader.power_sums[rows, 1:]
                         - store.power_sums[:n, 1:]) \
                / np.abs(store.power_sums[:n, 1:])
            assert rel.max() < 2.0 ** -9  # randomized 10-bit mantissa
        finally:
            reader.close()

    def test_cold_drops_log_family_honestly(self, tmp_path):
        store, keys = small_store(tmp_path)
        path = tmp_path / "cold.rsg"
        write_segment(path, store, keys, np.arange(len(store)),
                      cold=ColdSpec(keep_log=False))
        reader = open_segment(path)
        try:
            assert not reader.keeps_log
            assert not reader.log_valid.any()
        finally:
            reader.close()

    def test_checksum_corruption_detected(self, tmp_path):
        store, keys = small_store(tmp_path)
        path = tmp_path / "seg.rsg"
        write_segment(path, store, keys, np.arange(len(store)))
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StorageError, match="checksum"):
            open_segment(path)
        # verify=False skips the scan, so the flip goes unnoticed
        open_segment(path, verify=False).close()

    def test_truncated_segment_detected(self, tmp_path):
        store, keys = small_store(tmp_path)
        path = tmp_path / "seg.rsg"
        write_segment(path, store, keys, np.arange(len(store)))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(StorageError):
            open_segment(path)

    def test_duplicate_keys_rejected(self, tmp_path):
        store, keys = small_store(tmp_path)
        keys[1] = keys[0]
        with pytest.raises(StorageError, match="duplicate"):
            build_segment_bytes(store, keys, np.arange(len(store)))

    def test_key_range_pruning(self, tmp_path):
        store, keys = small_store(tmp_path)
        path = tmp_path / "seg.rsg"
        write_segment(path, store, keys, np.arange(len(store)))
        reader = open_segment(path)
        try:
            assert reader.maybe_contains(sort_key(keys[3]))
            assert not reader.maybe_contains(sort_key(("zzz",)))
            hits = reader.rows_for([sort_key(keys[0]), sort_key(("nope",))])
            assert hits[0] >= 0 and hits[1] == -1
        finally:
            reader.close()

    def test_canonical_key_survives_json_round_trip(self):
        key = canonical_key((np.int64(3), "svc", 2.5, None, True))
        back = tuple(json.loads(json.dumps(list(key))))
        assert back == key


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------

class TestManifest:

    def test_commit_and_reopen(self, tmp_path):
        manifest = Manifest.create(tmp_path, {"k": K})
        manifest.commit(["seg-00000000-aaaaaaaa.rsg"])
        manifest.commit(["seg-00000000-aaaaaaaa.rsg",
                         "seg-00000001-bbbbbbbb.rsg"])
        reopened = Manifest.open(tmp_path)
        assert list(reopened.segments) == ["seg-00000000-aaaaaaaa.rsg",
                                           "seg-00000001-bbbbbbbb.rsg"]
        assert reopened.meta["k"] == K

    def test_torn_tail_keeps_last_good_line(self, tmp_path):
        manifest = Manifest.create(tmp_path, {"k": K})
        manifest.commit(["seg-00000000-aaaaaaaa.rsg"])
        with open(tmp_path / MANIFEST_NAME, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 99, "torn": tru')
        reopened = Manifest.open(tmp_path)
        assert list(reopened.segments) == ["seg-00000000-aaaaaaaa.rsg"]

    def test_unparseable_manifest_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("garbage\n", encoding="utf-8")
        with pytest.raises(StorageError):
            Manifest.open(tmp_path)


# ----------------------------------------------------------------------
# Tiered store: the LSM bit-exactness contract
# ----------------------------------------------------------------------

class TestTieredBitExact:

    def make_pair(self, tmp_path, hot_budget=1500, seed=0, **kwargs):
        feed = batches(seed=seed, **kwargs)
        store = TieredStore(tmp_path / "tiers", k=K, track_log=True,
                            dimensions=("cell",),
                            hot_budget_bytes=hot_budget)
        for dims, values in feed:
            store.ingest_columns([dims], values)
        return store, ram_reference(feed)

    def test_sealed_store_matches_ram(self, tmp_path):
        store, reference = self.make_pair(tmp_path)
        try:
            assert store.stats()["seals"] >= 3  # the budget actually trips
            assert_bit_identical(store, reference)
        finally:
            store.close(seal=False)

    def test_compaction_preserves_bit_exactness(self, tmp_path):
        store, reference = self.make_pair(tmp_path)
        try:
            rounds = Compactor(store).run_until_stable()
            assert rounds and sum(r["reclaimed_rows"] for r in rounds) > 0
            assert_bit_identical(store, reference)
        finally:
            store.close(seal=False)

    def test_writes_after_compaction_stay_exact(self, tmp_path):
        store, reference = self.make_pair(tmp_path)
        try:
            Compactor(store).run_until_stable()
            extra = batches(seed=77, n_batches=3)
            for dims, values in extra:
                store.ingest_columns([dims], values)
                reference.write(WriteBatch(dims=(dims,), values=values,
                                           timestamps=None, sequence=None))
            assert_bit_identical(store, reference)
        finally:
            store.close(seal=False)

    def test_reopen_after_close_is_exact(self, tmp_path):
        store, reference = self.make_pair(tmp_path)
        store.close(seal=True)  # spill the hot tail too
        reopened = TieredStore(tmp_path / "tiers")
        try:
            assert reopened.k == K and reopened.dimensions == ("cell",)
            assert_bit_identical(reopened, reference)
        finally:
            reopened.close(seal=False)

    def test_crash_recovery_is_exact(self, tmp_path):
        store, reference = self.make_pair(tmp_path)
        store.close(seal=True)
        home = tmp_path / "tiers"
        # simulate a crash mid-compaction: torn manifest tail, a stale
        # temp file, and a fully-written but never-committed segment
        with open(home / MANIFEST_NAME, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 12345, "torn": tru')
        (home / "seg-99999999-deadbeef.rsg.tmp").write_bytes(b"junk")
        committed = sorted(p.name for p in home.glob("seg-*.rsg"))
        uncommitted = home / "seg-99999998-cafecafe.rsg"
        shutil.copyfile(home / committed[0], uncommitted)
        reopened = TieredStore(home)
        try:
            assert_bit_identical(reopened, reference)
            # the orphan sweep removed both stray files
            assert not uncommitted.exists()
            assert not list(home.glob("*.tmp"))
        finally:
            reopened.close(seal=False)

    def test_probe_prefers_newest_version(self, tmp_path):
        store, reference = self.make_pair(tmp_path)
        try:
            gathered, keys = store.gather()
            for key in (keys[0], keys[-1]):
                sketch = store.probe(key)
                row = keys.index(key)
                assert sketch.count == gathered.counts[row]
                np.testing.assert_array_equal(
                    np.asarray(sketch.power_sums),
                    gathered.power_sums[row])
            assert store.probe(("never-seen",)) is None
        finally:
            store.close(seal=False)

    def test_conflicting_reopen_parameters_rejected(self, tmp_path):
        store = TieredStore(tmp_path / "t", k=K, dimensions=("cell",))
        store.ingest_columns([np.array(["a", "b"])], np.array([1.0, 2.0]))
        store.close()
        with pytest.raises(StorageError):
            TieredStore(tmp_path / "t", k=K + 1)


# ----------------------------------------------------------------------
# Tiered store: serving through the unified API
# ----------------------------------------------------------------------

ALL_KINDS = (
    QuerySpec(kind="quantile", quantiles=(0.1, 0.5, 0.99)),
    QuerySpec(kind="quantile", quantiles=(0.5,), filters={"cell": "7"}),
    QuerySpec(kind="cdf", thresholds=(1.0, 5.0)),
    QuerySpec(kind="threshold_count", quantiles=(0.9,), thresholds=(2.0,),
              group_dimension="cell"),
    QuerySpec(kind="group_by", quantiles=(0.5, 0.95),
              group_dimension="cell"),
    QuerySpec(kind="top_n", quantiles=(0.99,), group_dimension="cell", n=5),
)


def payload(response) -> dict:
    out = response.to_dict()
    out.pop("timings", None)
    out.pop("backend", None)
    return out


class TestTieredServing:

    def test_every_query_kind_matches_packed(self, tmp_path):
        feed = batches(seed=5)
        store = TieredStore(tmp_path / "t", k=K, dimensions=("cell",),
                            hot_budget_bytes=1500)
        try:
            for dims, values in feed:
                store.ingest_columns([dims], values)
            reference = ram_reference(feed)
            service = QueryService(tiered=store,
                                   packed=reference.read_target())
            for spec in ALL_KINDS:
                tiered = payload(service.execute(spec, backend="tiered"))
                packed = payload(service.execute(spec, backend="packed"))
                assert tiered == packed, spec.kind
        finally:
            store.close(seal=False)

    def test_cold_demoted_store_stays_within_epsilon(self, tmp_path):
        """Cold segments are lossy, so they leave the bit-exact contract,
        but global and per-cell quantiles over ~500-row cells stay within
        ε of the exact oracle (20 mantissa bits with the log family
        kept)."""
        feed = batches(seed=11, rows=800, cells=16)
        store = TieredStore(tmp_path / "t", k=K, dimensions=("cell",),
                            hot_budget_bytes=1500)
        oracle = ExactOracle("cell")
        qs = (0.1, 0.5, 0.9)
        try:
            for dims, values in feed:
                store.ingest_columns([dims], values)
                oracle.insert(dims.astype(int), values)
            store.seal()
            demoted = store.demote(count=len(store.segments),
                                   spec=ColdSpec(mantissa_bits=20,
                                                 keep_log=True))
            assert len(demoted) == len(store.segments) >= 1
            service = QueryService(tiered=store)
            total = service.execute(QuerySpec(kind="quantile", quantiles=qs),
                                    backend="tiered")
            for q in qs:
                assert oracle.rank_error(total.estimates[qkey(q)], q) <= 0.05
            groups = service.execute(
                QuerySpec(kind="group_by", quantiles=qs,
                          group_dimension="cell"), backend="tiered").groups
            assert len(groups) == len(oracle.cells())
            for cell, estimates in groups.items():
                for q in qs:
                    error = oracle.rank_error(estimates[qkey(q)], q,
                                              cell=int(cell))
                    assert error <= 0.05, (cell, q, error)
        finally:
            store.close(seal=False)
            oracle.close()

    def test_ingest_session_builds_tiered_target(self, tmp_path):
        spec = IngestSpec(backend="tiered", dimensions=("cell",), k=K,
                          storage_dir=str(tmp_path / "t"),
                          hot_budget_bytes=2048, flush_rows=None)
        feed = batches(seed=9, n_batches=4)
        with IngestSession(build_target(spec), spec) as session:
            for dims, values in feed:
                session.append_columns(values, dims=[dims])
                session.flush()
            assert session.backend.name == "tiered"
            store = session.backend.read_target()
            assert isinstance(store, TieredStore)
            assert_bit_identical(store, ram_reference(feed))
            store.close(seal=False)


# ----------------------------------------------------------------------
# Compaction policy, background compactor, demotion
# ----------------------------------------------------------------------

class TestCompaction:

    def test_policy_picks_oldest_same_level_run(self):
        import types
        policy = CompactionPolicy(size_ratio=4.0, min_run=2, max_run=3)
        sizes = [100, 5, 6, 7, 9]  # one big old segment, then small L0s
        segments = [types.SimpleNamespace(rows=n) for n in sizes]
        start, stop = policy.pick_run(segments)
        assert (start, stop) == (1, 4)  # clipped to max_run, oldest first
        assert policy.pick_run([types.SimpleNamespace(rows=5)]) is None

    def test_background_compactor_converges(self, tmp_path):
        store = TieredStore(tmp_path / "t", k=K, dimensions=("cell",),
                            hot_budget_bytes=1200)
        try:
            with Compactor(store, interval=0.01) as compactor:
                for dims, values in batches(seed=11, n_batches=8):
                    store.ingest_columns([dims], values)
                deadline = threading.Event()
                deadline.wait(0.3)
            Compactor(store).run_until_stable()
            assert len(store.stats()["segments"]) <= 3
        finally:
            store.close(seal=False)

    def test_demotion_shrinks_disk_within_tolerance(self, tmp_path):
        store = TieredStore(tmp_path / "t", k=K, dimensions=("cell",),
                            hot_budget_bytes=1500)
        try:
            feed = batches(seed=13)
            for dims, values in feed:
                store.ingest_columns([dims], values)
            Compactor(store).run_until_stable()
            store.seal()
            before = store.disk_bytes()
            warm, keys = store.gather()
            store.demote(count=len(store.stats()["segments"]),
                         spec=ColdSpec(mantissa_bits=10, keep_log=True))
            stats = store.stats()
            assert stats["warm_bytes"] == 0 and stats["cold_bytes"] > 0
            assert store.disk_bytes() < before
            cold, cold_keys = store.gather()
            assert cold_keys == keys
            n = len(warm)
            rel = np.abs(cold.power_sums[:n, 1:] - warm.power_sums[:n, 1:]) \
                / np.abs(warm.power_sums[:n, 1:])
            assert rel.max() < 2.0 ** -9
            np.testing.assert_array_equal(cold.counts[:n], warm.counts[:n])
        finally:
            store.close(seal=False)


# ----------------------------------------------------------------------
# Cluster: segment-granular snapshot replication
# ----------------------------------------------------------------------

class TestClusterSegmentReplication:

    @staticmethod
    def make_cluster(storage_root=None):
        from repro.cluster import ClusterCoordinator
        from repro.druid import MomentsSketchAggregator
        return ClusterCoordinator(
            dimensions=("cell",),
            aggregators={"value": MomentsSketchAggregator(k=K)},
            num_shards=8, replication=2, nodes=["n0", "n1", "n2"],
            storage_root=storage_root)

    @staticmethod
    def feed(cluster, seed, n=1500):
        rng = np.random.default_rng(seed)
        timestamps = rng.uniform(0, 3600, n)
        cells = rng.integers(0, 25, n).astype(str)
        cluster.ingest(timestamps, [cells], rng.lognormal(0, 1, n) + 0.01)

    @staticmethod
    def answers(cluster):
        service = QueryService(cluster=cluster)
        return payload(service.execute(
            QuerySpec(kind="quantile", quantiles=(0.5, 0.99))))

    def test_file_repair_matches_blob_repair(self, tmp_path):
        blob = self.make_cluster()
        files = self.make_cluster(storage_root=str(tmp_path / "root"))
        self.feed(blob, 1)
        self.feed(files, 1)
        assert self.answers(blob) == self.answers(files)
        blob.fail_node("n1")
        files.fail_node("n1")
        assert self.answers(blob) == self.answers(files)
        self.feed(blob, 2, n=400)
        self.feed(files, 2, n=400)
        blob.restore_node("n1")
        files.restore_node("n1")
        assert self.answers(blob) == self.answers(files)

    @staticmethod
    def shard_state(node, shard):
        """Serialized (chunk, aggregator) state of one shard's engine."""
        engine = node._shard_engine(shard)
        return {
            (segment.chunk, name): (store.to_bytes(),
                                    tuple(sorted(
                                        segment.packed_rows[name].items())))
            for segment in engine.segments.values()
            for name, store in segment.packed.items()}

    def test_export_import_round_trip(self, tmp_path):
        cluster = self.make_cluster()
        self.feed(cluster, 3)
        node = cluster.nodes[cluster.live_nodes[0]]
        shard = node.owned_shards[0]
        outdir = tmp_path / "export"
        report = node.export_shard_files(shard, outdir)
        assert report["files"] >= 1 and (outdir / "SHARD.json").exists()
        # re-export writes nothing new (content-named files)
        again = node.export_shard_files(shard, outdir)
        assert again["bytes_written"] == 0
        target = cluster.nodes[cluster.live_nodes[1]]
        target.drop_shard(shard)
        target.import_shard_files(shard, outdir)
        assert self.shard_state(target, shard) \
            == self.shard_state(node, shard)
