"""Unit tests for the moments sketch data structure (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import MomentsSketch, merge_all
from repro.core.errors import (
    EmptySketchError,
    IncompatibleSketchError,
    SketchError,
)


class TestConstruction:
    def test_empty_sketch_state(self):
        sketch = MomentsSketch(k=5)
        assert sketch.is_empty
        assert sketch.count == 0
        assert sketch.min == np.inf and sketch.max == -np.inf

    def test_order_bounds_enforced(self):
        with pytest.raises(SketchError):
            MomentsSketch(k=0)
        with pytest.raises(SketchError):
            MomentsSketch(k=33)

    def test_from_data_matches_accumulate(self):
        data = np.arange(1.0, 101.0)
        a = MomentsSketch.from_data(data, k=6)
        b = MomentsSketch(k=6)
        b.accumulate(data)
        np.testing.assert_array_equal(a.power_sums, b.power_sums)
        np.testing.assert_array_equal(a.log_sums, b.log_sums)

    def test_default_footprint_under_200_bytes(self):
        # The paper's headline: k = 10 with both moment families < 200 bytes.
        sketch = MomentsSketch(k=10)
        assert sketch.size_bytes() < 200


class TestAccumulate:
    def test_power_sums_match_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.normal(3.0, 2.0, 777)
        sketch = MomentsSketch.from_data(data, k=8)
        assert sketch.count == 777
        assert sketch.min == data.min() and sketch.max == data.max()
        for i in range(9):
            assert sketch.power_sums[i] == pytest.approx(np.sum(data ** i), rel=1e-12)

    def test_log_sums_match_numpy_for_positive_data(self):
        rng = np.random.default_rng(1)
        data = rng.lognormal(0, 1, 500)
        sketch = MomentsSketch.from_data(data, k=6)
        assert sketch.has_log_moments
        logs = np.log(data)
        for i in range(7):
            assert sketch.log_sums[i] == pytest.approx(np.sum(logs ** i), rel=1e-12)

    def test_nonpositive_values_invalidate_log_moments(self):
        sketch = MomentsSketch(k=4)
        sketch.accumulate([1.0, 2.0, -3.0])
        assert not sketch.has_log_moments
        with pytest.raises(SketchError):
            sketch.log_moments()

    def test_scalar_and_empty_accumulate(self):
        sketch = MomentsSketch(k=3)
        sketch.accumulate(5.0)
        sketch.accumulate([])
        assert sketch.count == 1
        assert sketch.min == 5.0 == sketch.max

    def test_nan_rejected(self):
        sketch = MomentsSketch(k=3)
        with pytest.raises(SketchError):
            sketch.accumulate([1.0, np.nan])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinity_rejected_and_sketch_untouched(self, bad):
        sketch = MomentsSketch.from_data([1.0, 2.0], k=3)
        before = sketch.to_bytes()
        with pytest.raises(SketchError):
            sketch.accumulate([3.0, bad])
        assert sketch.to_bytes() == before

    def test_incremental_equals_bulk(self):
        rng = np.random.default_rng(2)
        data = rng.exponential(1.0, 300)
        bulk = MomentsSketch.from_data(data, k=5)
        incremental = MomentsSketch(k=5)
        for value in data:
            incremental.accumulate(value)
        np.testing.assert_allclose(incremental.power_sums, bulk.power_sums, rtol=1e-9)


class TestMerge:
    def test_merge_equals_accumulate(self, rng=np.random.default_rng(3)):
        data = rng.lognormal(0, 1, 1000)
        whole = MomentsSketch.from_data(data, k=10)
        parts = [MomentsSketch.from_data(chunk, k=10)
                 for chunk in np.split(data, 10)]
        merged = merge_all(parts)
        assert merged.count == whole.count
        assert merged.min == whole.min and merged.max == whole.max
        np.testing.assert_allclose(merged.power_sums, whole.power_sums, rtol=1e-9)
        np.testing.assert_allclose(merged.log_sums, whole.log_sums, rtol=1e-9)

    def test_merge_returns_self_for_chaining(self):
        a = MomentsSketch.from_data([1.0], k=3)
        b = MomentsSketch.from_data([2.0], k=3)
        assert a.merge(b) is a

    def test_merge_order_mismatch_rejected(self):
        with pytest.raises(IncompatibleSketchError):
            MomentsSketch(k=3).merge(MomentsSketch(k=4))

    def test_merge_wrong_type_rejected(self):
        with pytest.raises(IncompatibleSketchError):
            MomentsSketch(k=3).merge("not a sketch")  # type: ignore[arg-type]

    def test_merging_log_invalid_poisons_log(self):
        good = MomentsSketch.from_data([1.0, 2.0], k=3)
        bad = MomentsSketch.from_data([-1.0, 2.0], k=3)
        good.merge(bad)
        assert not good.has_log_moments

    def test_merge_with_empty_is_identity(self):
        a = MomentsSketch.from_data([1.0, 2.0, 3.0], k=4)
        before = a.power_sums.copy()
        a.merge(MomentsSketch(k=4))
        np.testing.assert_array_equal(a.power_sums, before)

    def test_merge_all_empty_iterable_rejected(self):
        with pytest.raises(EmptySketchError):
            merge_all([])

    def test_merge_all_does_not_mutate_inputs(self):
        a = MomentsSketch.from_data([1.0], k=3)
        b = MomentsSketch.from_data([2.0], k=3)
        merge_all([a, b])
        assert a.count == 1 and b.count == 1


class TestSubtract:
    def test_turnstile_add_remove_roundtrip(self):
        rng = np.random.default_rng(4)
        base = rng.lognormal(0, 1, 500)
        extra = rng.lognormal(0, 1, 200)
        window = MomentsSketch.from_data(base, k=8)
        pane = MomentsSketch.from_data(extra, k=8)
        window.merge(pane)
        window.subtract(pane, new_min=float(base.min()), new_max=float(base.max()))
        reference = MomentsSketch.from_data(base, k=8)
        assert window.count == reference.count
        np.testing.assert_allclose(window.power_sums, reference.power_sums,
                                   rtol=1e-9, atol=1e-6)
        assert window.min == reference.min and window.max == reference.max

    def test_subtract_to_empty_resets_state(self):
        data = [1.0, 2.0, 3.0]
        sketch = MomentsSketch.from_data(data, k=4)
        sketch.subtract(MomentsSketch.from_data(data, k=4))
        assert sketch.is_empty
        assert np.all(sketch.power_sums == 0)

    def test_subtract_larger_count_rejected(self):
        small = MomentsSketch.from_data([1.0], k=3)
        big = MomentsSketch.from_data([1.0, 2.0], k=3)
        with pytest.raises(SketchError):
            small.subtract(big)


class TestAccessors:
    def test_standard_moments_normalized(self):
        sketch = MomentsSketch.from_data([1.0, 3.0], k=3)
        mu = sketch.standard_moments()
        assert mu[0] == 1.0
        assert mu[1] == pytest.approx(2.0)
        assert mu[2] == pytest.approx(5.0)

    def test_empty_sketch_estimation_rejected(self):
        with pytest.raises(EmptySketchError):
            MomentsSketch(k=3).standard_moments()

    def test_len_returns_count(self):
        assert len(MomentsSketch.from_data([1.0, 2.0, 3.0], k=3)) == 3


class TestSerialization:
    def test_roundtrip_preserves_state(self):
        rng = np.random.default_rng(5)
        sketch = MomentsSketch.from_data(rng.lognormal(0, 1, 321), k=7)
        restored = MomentsSketch.from_bytes(sketch.to_bytes())
        assert restored.k == sketch.k
        assert restored.count == sketch.count
        assert restored.min == sketch.min and restored.max == sketch.max
        np.testing.assert_array_equal(restored.power_sums, sketch.power_sums)
        np.testing.assert_array_equal(restored.log_sums, sketch.log_sums)
        assert restored.log_valid == sketch.log_valid

    def test_roundtrip_without_log_moments(self):
        sketch = MomentsSketch.from_data([1.0, 2.0], k=4, track_log=False)
        restored = MomentsSketch.from_bytes(sketch.to_bytes())
        assert not restored.track_log
        assert restored.count == 2

    def test_size_bytes_matches_serialized_length(self):
        for k, track_log in [(10, True), (10, False), (4, True)]:
            sketch = MomentsSketch.from_data([1.0, 2.0], k=k, track_log=track_log)
            assert len(sketch.to_bytes()) == sketch.size_bytes()

    def test_corrupt_buffers_rejected(self):
        sketch = MomentsSketch.from_data([1.0], k=3)
        blob = sketch.to_bytes()
        with pytest.raises(SketchError):
            MomentsSketch.from_bytes(blob[:4])
        with pytest.raises(SketchError):
            MomentsSketch.from_bytes(b"XXXX" + blob[4:])
        with pytest.raises(SketchError):
            MomentsSketch.from_bytes(blob + b"\x00" * 8)


class TestCopy:
    def test_copy_is_independent(self):
        original = MomentsSketch.from_data([1.0, 2.0], k=3)
        duplicate = original.copy()
        duplicate.accumulate([100.0])
        assert original.count == 2
        assert duplicate.count == 3
        assert original.max == 2.0


class TestSubtractEdgeCases:
    """Turnstile subtract corners that the packed pane ring leans on."""

    def test_subtract_to_empty_allows_fresh_reuse(self):
        sketch = MomentsSketch.from_data([-3.0, 5.0], k=4)
        assert not sketch.log_valid
        sketch.subtract(sketch.copy())
        assert sketch.is_empty
        assert sketch.log_valid  # reset with the rest of the state
        sketch.accumulate([2.0, 4.0])
        fresh = MomentsSketch.from_data([2.0, 4.0], k=4)
        assert np.array_equal(sketch.power_sums, fresh.power_sums)
        assert np.array_equal(sketch.log_sums, fresh.log_sums)
        assert sketch.has_log_moments

    def test_subtract_log_invalid_pane_poisons_window(self):
        window = MomentsSketch.from_data([1.0, 2.0, 3.0, 4.0], k=4)
        pane = MomentsSketch.from_data([-1.0, 2.0], k=4)
        assert window.log_valid and not pane.log_valid
        window.subtract(pane, new_min=1.0, new_max=4.0)
        assert not window.log_valid
        with pytest.raises(SketchError):
            window.log_moments()

    def test_subtract_log_invalid_empty_pane_keeps_window_valid(self):
        # An emptied log-invalid pane carries no data, so removing it
        # cannot poison the surviving window.
        window = MomentsSketch.from_data([1.0, 2.0], k=4)
        pane = MomentsSketch(k=4)
        pane.log_valid = False
        window.subtract(pane)
        assert window.log_valid

    def test_subtract_untracked_log_pane_poisons_tracked_window(self):
        window = MomentsSketch.from_data([1.0, 2.0, 3.0], k=4)
        pane = MomentsSketch.from_data([1.0], k=4, track_log=False)
        window.subtract(pane)
        assert not window.log_valid

    def test_count_underflow_rejected_after_turnstile_slides(self):
        window = MomentsSketch.from_data([1.0, 2.0, 3.0], k=4)
        pane = MomentsSketch.from_data([4.0, 5.0], k=4)
        window.merge(pane)
        window.subtract(pane, new_min=1.0, new_max=3.0)
        big = MomentsSketch.from_data(np.arange(1.0, 10.0), k=4)
        with pytest.raises(SketchError):
            window.subtract(big)
        # The failed subtract must not have mutated the window.
        assert window.count == 3

    def test_subtract_keeps_conservative_extrema_without_hints(self):
        window = MomentsSketch.from_data([1.0, 10.0], k=3)
        pane = MomentsSketch.from_data([10.0], k=3)
        window.subtract(pane)
        assert window.min == 1.0 and window.max == 10.0


class TestStandardMomentsAliasing:
    """standard_moments()/log_moments() must never alias sketch state."""

    def test_returned_array_is_not_a_view_of_power_sums(self):
        sketch = MomentsSketch.from_data([1.0, 2.0, 3.0], k=4)
        mu = sketch.standard_moments()
        assert not np.shares_memory(mu, sketch.power_sums)

    def test_caller_mutation_does_not_corrupt_sketch(self):
        sketch = MomentsSketch.from_data([1.0, 2.0, 3.0], k=4)
        before = sketch.power_sums.copy()
        mu = sketch.standard_moments()
        mu[:] = -999.0
        assert np.array_equal(sketch.power_sums, before)
        nu = sketch.log_moments()
        nu[:] = -999.0
        assert np.array_equal(sketch.power_sums, before)

    def test_repeated_calls_are_stable(self):
        sketch = MomentsSketch.from_data([1.0, 2.0, 3.0], k=4)
        first = sketch.standard_moments()
        first_copy = first.copy()
        second = sketch.standard_moments()
        assert np.array_equal(first_copy, second)
        assert first is not second
        first_log = sketch.log_moments()
        second_log = sketch.log_moments()
        assert np.array_equal(first_log, second_log)
        assert first_log is not second_log


class TestFromBytesAdversarial:
    """Wire-format fuzzing: corrupt inputs fail loudly, never silently."""

    def test_every_truncation_of_a_valid_blob_rejected(self):
        blob = MomentsSketch.from_data([1.0, 2.0], k=3).to_bytes()
        for cut in range(len(blob)):
            with pytest.raises(SketchError):
                MomentsSketch.from_bytes(blob[:cut])

    def test_truncations_of_logless_blob_rejected(self):
        blob = MomentsSketch.from_data([1.0, 2.0], k=3,
                                       track_log=False).to_bytes()
        for cut in range(len(blob)):
            with pytest.raises(SketchError):
                MomentsSketch.from_bytes(blob[:cut])

    def test_logless_roundtrip_state(self):
        sketch = MomentsSketch.from_data([0.5, -2.0, 7.0], k=3,
                                         track_log=False)
        restored = MomentsSketch.from_bytes(sketch.to_bytes())
        assert not restored.track_log
        assert not restored.log_valid
        assert np.array_equal(restored.power_sums, sketch.power_sums)
        assert restored.min == sketch.min and restored.max == sketch.max

    def test_corrupt_order_byte_rejected(self):
        blob = bytearray(MomentsSketch.from_data([1.0], k=3).to_bytes())
        blob[4] = 0
        with pytest.raises(SketchError):
            MomentsSketch.from_bytes(bytes(blob))
        blob[4] = 200
        with pytest.raises(SketchError):
            MomentsSketch.from_bytes(bytes(blob))

    def test_flag_byte_flip_changes_expected_length(self):
        # Clearing the track_log flag makes the payload too long for the
        # declared layout; the decoder must notice, not misparse.
        blob = bytearray(MomentsSketch.from_data([1.0], k=3).to_bytes())
        assert blob[5] & 1
        blob[5] = 0
        with pytest.raises(SketchError):
            MomentsSketch.from_bytes(bytes(blob))

    def test_empty_and_garbage_buffers_rejected(self):
        for junk in (b"", b"\x00", b"MSK1", b"\xff" * 7):
            with pytest.raises(SketchError):
                MomentsSketch.from_bytes(junk)
