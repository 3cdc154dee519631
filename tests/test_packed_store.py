"""Property-based equivalence and serialization tests for the packed store.

The contract under test: every vectorized operation of
:class:`repro.store.PackedSketchStore` must agree with the sequential
per-sketch code path — bit-for-bit for counts and power sums, and to
1e-12 in estimated quantiles — including log-valid/invalid mixes and
empty rows.  The bulk wire format is locked in by round-trip and
adversarial fuzz tests before any second backend depends on it.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import (EmptySketchError, IncompatibleSketchError,
                               SketchError)
from repro.core.sketch import MomentsSketch, merge_all
from repro.store import PackedSketchStore, pack
from repro.summaries import MomentsSummary

K = 5

#: Values spanning sign changes so log-moment poisoning is exercised.
value_lists = st.lists(
    st.floats(min_value=-50.0, max_value=1e4,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=8)

#: A batch of sketch payloads; empty inner lists give empty rows.
sketch_batches = st.lists(value_lists, min_size=1, max_size=10)


def build_sketches(batches, k=K, track_log=True):
    sketches = []
    for values in batches:
        sketch = MomentsSketch(k=k, track_log=track_log)
        if values:
            sketch.accumulate(values)
        sketches.append(sketch)
    return sketches


def assert_sketch_equal(expected: MomentsSketch, got: MomentsSketch):
    """Bit-for-bit agreement on everything estimation reads."""
    assert got.count == expected.count
    assert np.array_equal(got.power_sums, expected.power_sums)
    assert got.min == expected.min and got.max == expected.max
    assert got.log_valid == expected.log_valid
    if expected.log_valid:
        assert np.array_equal(got.log_sums, expected.log_sums)


class TestBatchMergeEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(sketch_batches)
    def test_full_merge_matches_sequential_loop(self, batches):
        sketches = build_sketches(batches)
        store = PackedSketchStore.from_sketches(sketches)
        assert_sketch_equal(merge_all(sketches), store.batch_merge())

    @settings(max_examples=60, deadline=None)
    @given(sketch_batches, st.data())
    def test_subset_with_duplicates_matches_loop(self, batches, data):
        sketches = build_sketches(batches)
        store = PackedSketchStore.from_sketches(sketches)
        indices = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(sketches) - 1),
            min_size=1, max_size=20))
        expected = merge_all([sketches[i] for i in indices])
        assert_sketch_equal(expected, store.batch_merge(indices))

    @settings(max_examples=25, deadline=None)
    @given(sketch_batches)
    def test_group_merge_matches_per_group_loop(self, batches):
        sketches = build_sketches(batches)
        store = PackedSketchStore.from_sketches(sketches)
        rng = np.random.default_rng(len(sketches))
        rows = rng.integers(0, len(sketches), 15)
        gids = rng.integers(0, 4, 15)
        groups = store.batch_merge_groups(rows, gids)
        assert set(groups) == {int(g) for g in np.unique(gids)}
        for gid, merged in groups.items():
            expected = merge_all([sketches[i] for i in rows[gids == gid]])
            assert_sketch_equal(expected, merged)

    def test_small_and_large_groups_match_batch_merge(self):
        """Small groups fold together, large ones alone: either way each
        group is bit-for-bit the batch_merge of its rows in input order."""
        rng = np.random.default_rng(21)
        sketches = build_sketches(
            [(rng.lognormal(0, 3, 6) - (5.0 if i % 9 == 0 else 0.0)).tolist()
             for i in range(60)])
        store = PackedSketchStore.from_sketches(sketches)
        sizes = [1, 2, 5, 16, 17, 200]  # around _FOLD_TOGETHER
        gids = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        rows = rng.integers(0, len(sketches), gids.size)
        groups = store.batch_merge_groups(rows, gids)
        for gid, merged in groups.items():
            expected = store.batch_merge(rows[gids == gid])
            assert merged.to_bytes() == expected.to_bytes()
            assert_sketch_equal(expected, merged)

    def test_all_empty_rows_merge_to_empty(self):
        store = PackedSketchStore.from_sketches(
            [MomentsSketch(k=K) for _ in range(5)])
        merged = store.batch_merge()
        assert merged.is_empty
        assert merged.min == np.inf and merged.max == -np.inf
        assert merged.log_valid

    def test_contiguous_range_fast_path_matches_gather(self):
        rng = np.random.default_rng(7)
        sketches = build_sketches([rng.lognormal(0, 1, 5).tolist()
                                   for _ in range(30)])
        store = PackedSketchStore.from_sketches(sketches)
        contiguous = store.batch_merge(np.arange(4, 19))
        shuffled_back = store.batch_merge(
            np.asarray([4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18]))
        expected = merge_all(sketches[4:19])
        assert_sketch_equal(expected, contiguous)
        assert_sketch_equal(expected, shuffled_back)

    def test_quantiles_agree_with_sequential_merge(self):
        rng = np.random.default_rng(11)
        sketches = build_sketches(
            [rng.lognormal(1, 1, rng.integers(5, 40)).tolist()
             for _ in range(50)], k=8)
        store = PackedSketchStore.from_sketches(sketches)
        for phi in (0.1, 0.5, 0.9, 0.99):
            loop = MomentsSummary(k=8)
            loop.sketch = merge_all(sketches)
            packed = MomentsSummary(k=8)
            packed.sketch = store.batch_merge()
            assert packed.quantile(phi) == pytest.approx(
                loop.quantile(phi), rel=1e-12)

    def test_empty_selection_rejected(self):
        store = PackedSketchStore.from_sketches([MomentsSketch(k=K)])
        with pytest.raises(EmptySketchError):
            store.batch_merge(np.zeros(0, dtype=int))
        with pytest.raises(EmptySketchError):
            PackedSketchStore(k=K).batch_merge()

    def test_out_of_range_indices_rejected(self):
        store = PackedSketchStore.from_sketches([MomentsSketch(k=K)])
        with pytest.raises(SketchError):
            store.batch_merge([1])
        with pytest.raises(SketchError):
            store.batch_merge([-1])
        with pytest.raises(SketchError):
            store.batch_merge([[0]])


class TestMergeSelections:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(sketch_batches, min_size=1, max_size=5), st.data())
    def test_matches_fold_of_per_store_batch_merge(self, store_batches,
                                                   data):
        """Bit for bit (``to_bytes``) the sequential merge of each pair's
        batch_merge, log rule and signed-zero extremes included."""
        selections = []
        for batches in store_batches:
            store = PackedSketchStore.from_sketches(build_sketches(batches))
            n = len(store)
            kind = data.draw(st.sampled_from(["all", "row", "slice",
                                              "array"]))
            if kind == "all":
                sel = None
            elif kind == "row":
                sel = data.draw(st.integers(0, n - 1))
            elif kind == "slice":
                lo = data.draw(st.integers(0, n - 1))
                sel = slice(lo, data.draw(st.integers(lo + 1, n)))
            else:
                sel = np.array(data.draw(st.lists(
                    st.integers(0, n - 1), min_size=1, max_size=12)),
                    dtype=np.intp)
            selections.append((store, sel))
        expected = None
        for store, sel in selections:
            if isinstance(sel, slice):
                sel = np.arange(sel.start, sel.stop)
            partial = store.batch_merge(sel)
            expected = partial if expected is None else expected.merge(partial)
        got = PackedSketchStore.merge_selections(selections)
        assert got.to_bytes() == expected.to_bytes()


class TestBatchAccumulate:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=5),
                  st.floats(min_value=-10, max_value=1e3,
                            allow_nan=False, allow_infinity=False)),
        min_size=0, max_size=60))
    def test_matches_per_sketch_accumulate(self, pairs):
        store = PackedSketchStore(k=K, capacity=6)
        reference = [MomentsSketch(k=K) for _ in range(6)]
        for _ in range(6):
            store.new_row()
        rows = np.asarray([row for row, _ in pairs], dtype=int)
        values = np.asarray([value for _, value in pairs])
        store.batch_accumulate(rows, values)
        for row in range(6):
            chunk = values[rows == row]
            if chunk.size:
                reference[row].accumulate(chunk)
            assert_sketch_equal(reference[row], store.sketch_at(row))

    def test_poisoned_row_does_not_leak_into_neighbours(self):
        store = PackedSketchStore(k=3, capacity=3)
        for _ in range(3):
            store.new_row()
        rows = np.asarray([0, 1, 2, 1, 0])
        values = np.asarray([1.0, -1.0, 2.0, 3.0, 4.0])
        store.batch_accumulate(rows, values)
        assert not store.log_valid[1]
        assert store.log_valid[0] and store.log_valid[2]
        expected = MomentsSketch(k=3)
        expected.accumulate([1.0, 4.0])
        assert np.array_equal(store.log_sums[0], expected.log_sums)

    def test_nan_rejected(self):
        store = PackedSketchStore(k=K, capacity=1)
        store.new_row()
        with pytest.raises(SketchError):
            store.batch_accumulate([0], [np.nan])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinity_rejected_by_both_paths(self, bad):
        store = PackedSketchStore(k=K, capacity=1)
        store.new_row()
        store.accumulate_row(0, [1.0, 2.0])
        before = store.power_sums.copy()
        with pytest.raises(SketchError):
            store.accumulate_row(0, [3.0, bad])
        with pytest.raises(SketchError):
            store.batch_accumulate([0, 0], [3.0, bad])
        assert np.array_equal(store.power_sums, before)
        assert store.counts[0] == 2

    def test_misaligned_shapes_rejected(self):
        store = PackedSketchStore(k=K, capacity=1)
        store.new_row()
        with pytest.raises(SketchError):
            store.batch_accumulate([0, 0], [1.0])

    def test_out_of_range_row_rejected(self):
        store = PackedSketchStore(k=K, capacity=1)
        store.new_row()
        with pytest.raises(SketchError):
            store.batch_accumulate([1], [1.0])


class TestRowOperations:
    def test_append_roundtrip_preserves_state(self, lognormal_sketch):
        store = PackedSketchStore(k=lognormal_sketch.k)
        row = store.append(lognormal_sketch)
        assert_sketch_equal(lognormal_sketch, store.sketch_at(row))

    def test_growth_preserves_rows(self):
        store = PackedSketchStore(k=K, capacity=2)
        sketches = build_sketches([[float(i + 1)] * 3 for i in range(40)])
        for sketch in sketches:
            store.append(sketch)
        assert len(store) == 40
        for i, sketch in enumerate(sketches):
            assert_sketch_equal(sketch, store.sketch_at(i))

    def test_view_sketch_is_zero_copy(self):
        store = PackedSketchStore.from_sketches(
            build_sketches([[1.0, 2.0, 3.0]]))
        view = store.sketch_at(0, copy=False)
        assert np.shares_memory(view.power_sums, store.power_sums)
        copied = store.sketch_at(0, copy=True)
        copied.power_sums[1] = 123.0
        assert store.power_sums[0, 1] != 123.0

    def test_merge_into_row_matches_sketch_merge(self):
        base = MomentsSketch.from_data([1.0, 2.0], k=K)
        other = MomentsSketch.from_data([3.0, 4.0], k=K)
        store = PackedSketchStore.from_sketches([base])
        store.merge_into_row(0, other)
        assert_sketch_equal(base.copy().merge(other), store.sketch_at(0))

    def test_merge_log_invalid_sketch_poisons_row(self):
        base = MomentsSketch.from_data([1.0, 2.0], k=K)
        poisoned = MomentsSketch.from_data([-1.0], k=K)
        store = PackedSketchStore.from_sketches([base])
        store.merge_into_row(0, poisoned)
        assert not store.log_valid[0]

    def test_clear_row_restores_empty_state(self):
        store = PackedSketchStore.from_sketches(
            build_sketches([[-5.0, 2.0]]))
        assert not store.log_valid[0]
        store.clear_row(0)
        assert_sketch_equal(MomentsSketch(k=K), store.sketch_at(0))

    def test_order_mismatch_rejected(self):
        store = PackedSketchStore(k=K)
        with pytest.raises(IncompatibleSketchError):
            store.append(MomentsSketch(k=K + 1))

    def test_non_sketch_rejected(self):
        store = PackedSketchStore(k=K)
        with pytest.raises(IncompatibleSketchError):
            store.append("not a sketch")

    def test_invalid_order_rejected(self):
        with pytest.raises(SketchError):
            PackedSketchStore(k=0)

    def test_pack_alias(self):
        sketches = build_sketches([[1.0], [2.0]])
        assert len(pack(sketches)) == 2


class TestBulkSerialization:
    @settings(max_examples=40, deadline=None)
    @given(sketch_batches, st.booleans())
    def test_roundtrip_is_exact(self, batches, track_log):
        sketches = build_sketches(batches, track_log=track_log)
        store = PackedSketchStore.from_sketches(sketches)
        blob = store.to_bytes()
        restored = PackedSketchStore.from_bytes(blob)
        assert restored.k == store.k
        assert restored.track_log == store.track_log
        assert len(restored) == len(store)
        for row in range(len(store)):
            original = store.sketch_at(row)
            # Rows poisoned mid-accumulate may carry partial log sums the
            # wire format does not promise to preserve exactly (the same
            # convention as the per-sketch MSK1 format) — everything
            # estimation reads must round-trip bit-for-bit.
            assert_sketch_equal(original, restored.sketch_at(row))
        assert restored.to_bytes() == blob

    def test_empty_store_roundtrip(self):
        store = PackedSketchStore(k=K)
        restored = PackedSketchStore.from_bytes(store.to_bytes())
        assert len(restored) == 0
        assert restored.k == K

    def test_size_bytes_matches_serialized_length(self):
        store = PackedSketchStore.from_sketches(
            build_sketches([[1.0], [2.0], []]))
        assert store.size_bytes() == len(store.to_bytes())

    def test_truncated_blob_rejected(self):
        store = PackedSketchStore.from_sketches(build_sketches([[1.0], [2.0]]))
        blob = store.to_bytes()
        for cut in (0, 4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(SketchError):
                PackedSketchStore.from_bytes(blob[:cut])

    def test_trailing_garbage_rejected(self):
        blob = PackedSketchStore.from_sketches(
            build_sketches([[1.0]])).to_bytes()
        with pytest.raises(SketchError):
            PackedSketchStore.from_bytes(blob + b"\x00" * 8)

    def test_bad_magic_rejected(self):
        blob = PackedSketchStore(k=K).to_bytes()
        with pytest.raises(SketchError):
            PackedSketchStore.from_bytes(b"XXXX" + blob[4:])

    def test_corrupt_order_rejected(self):
        blob = bytearray(PackedSketchStore(k=K).to_bytes())
        blob[4] = 0  # k = 0
        with pytest.raises(SketchError):
            PackedSketchStore.from_bytes(bytes(blob))
        blob[4] = 200  # k far beyond MAX_ORDER
        with pytest.raises(SketchError):
            PackedSketchStore.from_bytes(bytes(blob))

    def test_header_count_mismatch_rejected(self):
        store = PackedSketchStore.from_sketches(build_sketches([[1.0], [2.0]]))
        blob = bytearray(store.to_bytes())
        # Overwrite the uint64 row count with a lie.
        struct.pack_into("<Q", blob, 8, 7)
        with pytest.raises(SketchError):
            PackedSketchStore.from_bytes(bytes(blob))


class TestBatchMergeBy:
    def test_keys_map_to_group_merges(self):
        rng = np.random.default_rng(13)
        sketches = build_sketches([rng.lognormal(0, 1, 4).tolist()
                                   for _ in range(12)])
        store = PackedSketchStore.from_sketches(sketches)
        rows = list(range(12))
        keys = ["a", "b", "a", "c", "b", "a", "c", "a", "b", "c", "a", "b"]
        merged = store.batch_merge_by(rows, keys)
        assert list(merged) == ["a", "b", "c"]  # first-seen order
        for key in "abc":
            expected = merge_all([sketches[i] for i, k in zip(rows, keys)
                                  if k == key])
            assert_sketch_equal(expected, merged[key])

    def test_tuple_keys_supported(self):
        sketches = build_sketches([[1.0], [2.0], [3.0]])
        store = PackedSketchStore.from_sketches(sketches)
        merged = store.batch_merge_by([0, 1, 2], [("x", 1), ("y", 2), ("x", 1)])
        assert merged[("x", 1)].count == 2
        assert merged[("y", 2)].count == 1
