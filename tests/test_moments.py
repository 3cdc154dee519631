"""Unit tests for moment conversions and the Appendix-B stability math."""

import numpy as np
import pytest

from repro.core import moments as mo


def direct_chebyshev_moments(data: np.ndarray, support: mo.ScaledSupport,
                             order: int) -> np.ndarray:
    """Ground truth: evaluate T_i on scaled data and average."""
    u = support.scale(data)
    return np.asarray([np.mean(np.cos(i * np.arccos(np.clip(u, -1, 1))))
                       for i in range(order + 1)])


class TestScaledSupport:
    def test_scale_maps_endpoints(self):
        support = mo.ScaledSupport(3.0, 11.0)
        assert support.scale(np.asarray(3.0)) == -1.0
        assert support.scale(np.asarray(11.0)) == 1.0
        assert support.scale(np.asarray(7.0)) == 0.0

    def test_unscale_is_inverse(self):
        support = mo.ScaledSupport(-2.5, 9.0)
        x = np.linspace(-2.5, 9.0, 17)
        np.testing.assert_allclose(support.unscale(support.scale(x)), x, atol=1e-12)

    def test_center_offset_definition(self):
        support = mo.ScaledSupport(20.0, 100.0)
        # center 60, half-width 40 -> c = 1.5
        assert support.center_offset == pytest.approx(1.5)

    def test_degenerate_support(self):
        support = mo.ScaledSupport(4.0, 4.0)
        assert support.degenerate
        assert support.center_offset == 0.0
        assert np.all(support.scale(np.asarray([4.0, 4.0])) == 0.0)


class TestRawMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.normal(2.0, 3.0, 1000)
        sums = np.asarray([np.sum(data ** i) for i in range(6)])
        mu = mo.raw_moments(sums, data.size)
        for i in range(6):
            assert mu[i] == pytest.approx(np.mean(data ** i))

    def test_zeroth_moment_forced_to_one(self):
        mu = mo.raw_moments(np.array([999.0, 5.0]), 10)
        assert mu[0] == 1.0

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            mo.raw_moments(np.array([1.0]), 0)


class TestShiftedScaledMoments:
    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-5.0, 5.0), (20.0, 100.0)])
    def test_matches_direct_computation(self, lo, hi):
        rng = np.random.default_rng(1)
        data = rng.uniform(lo, hi, 5000)
        support = mo.ScaledSupport(float(data.min()), float(data.max()))
        mu = mo.raw_moments(np.asarray([np.sum(data ** i) for i in range(9)]), data.size)
        scaled = mo.shifted_scaled_moments(mu, support)
        u = support.scale(data)
        for i in range(9):
            assert scaled[i] == pytest.approx(np.mean(u ** i), abs=1e-9)

    def test_scaled_moments_bounded_by_one(self):
        rng = np.random.default_rng(2)
        data = rng.exponential(1.0, 2000)
        support = mo.ScaledSupport(float(data.min()), float(data.max()))
        mu = mo.raw_moments(np.asarray([np.sum(data ** i) for i in range(7)]), data.size)
        scaled = mo.shifted_scaled_moments(mu, support)
        assert np.all(np.abs(scaled) <= 1.0 + 1e-9)

    def test_degenerate_support_gives_point_mass_moments(self):
        support = mo.ScaledSupport(5.0, 5.0)
        scaled = mo.shifted_scaled_moments(np.array([1.0, 5.0, 25.0]), support)
        np.testing.assert_allclose(scaled, [1.0, 0.0, 0.0])


def reference_shifted_moments(mu, shift):
    """The stacked branch of ``shifted_moments`` as an explicit loop: the
    left fold over the moment index that ``np.cumsum`` replaces."""
    mu = np.asarray(mu, dtype=float)
    size = mu.shape[-1]
    pascal, exponent_index = mo._shift_structure(size)
    with np.errstate(all="ignore"):
        powers = (-np.asarray(shift, dtype=float))[..., None] ** np.arange(size)
        matrix = pascal * powers[..., exponent_index]
        out = matrix[..., :, 0] * mu[..., 0, None]
        for j in range(1, size):
            out += matrix[..., :, j] * mu[..., j, None]
    out[..., 0] = 1.0
    return out


class TestShiftedMomentsStacked:
    def test_matches_loop_reference_bit_for_bit(self):
        # Sizes 2-17 and 1-50 rows, with inf/nan debris in some moments
        # and shifts.  Every non-NaN entry matches bit for bit and NaNs sit
        # in the same places; a NaN's sign bit is not part of its value
        # (the loop's in-place add keeps the addend's NaN, the cumulative
        # sum the running total's).
        rng = np.random.default_rng(6)
        for case in range(600):
            size = int(rng.integers(2, 18))
            rows = int(rng.integers(1, 51))
            mu = (rng.normal(size=(rows, size))
                  * 10.0 ** rng.uniform(-5, 5, (rows, size)))
            shift = rng.normal(size=rows) * 10.0 ** rng.uniform(-3, 3, rows)
            if case % 3 == 0:
                mu[rng.integers(rows), rng.integers(size)] = rng.choice(
                    [np.inf, -np.inf, np.nan])
            if case % 5 == 0:
                shift[rng.integers(rows)] = rng.choice([np.inf, np.nan, 1e200])
            expected = reference_shifted_moments(mu, shift)
            got = mo.shifted_moments(mu, shift)
            nan = np.isnan(expected)
            assert np.array_equal(nan, np.isnan(got))
            assert expected[~nan].tobytes() == got[~nan].tobytes()

    def test_row_alone_equals_row_in_batch(self):
        rng = np.random.default_rng(7)
        mu = rng.normal(size=(9, 11)) * 10.0 ** rng.uniform(-3, 3, (9, 11))
        shift = rng.normal(size=9) * 50.0
        batch = mo.shifted_moments(mu, shift)
        for row in range(9):
            alone = mo.shifted_moments(mu[row:row + 1], shift[row:row + 1])
            assert alone[0].tobytes() == batch[row].tobytes()


class TestChebyshevMoments:
    def test_matches_direct_average(self):
        rng = np.random.default_rng(3)
        data = rng.beta(2.0, 5.0, 4000) * 10 + 2
        support = mo.ScaledSupport(float(data.min()), float(data.max()))
        sums = np.asarray([np.sum(data ** i) for i in range(11)])
        result = mo.power_sums_to_chebyshev_moments(sums, data.size, support)
        expected = direct_chebyshev_moments(data, support, 10)
        np.testing.assert_allclose(result, expected, atol=1e-7)

    def test_chebyshev_moments_bounded(self):
        rng = np.random.default_rng(4)
        data = rng.normal(0, 1, 3000)
        support = mo.ScaledSupport(float(data.min()), float(data.max()))
        sums = np.asarray([np.sum(data ** i) for i in range(11)])
        result = mo.power_sums_to_chebyshev_moments(sums, data.size, support)
        assert np.all(np.abs(result) <= 1.0 + 1e-9)
        assert result[0] == pytest.approx(1.0)


class TestMomentRows:
    def test_rows_equal_one_row_pipeline_bit_for_bit(self):
        # Offset data loses ~7 digits in the binomial shift, so a row that
        # rounded differently from the one-row pipeline would show.
        rng = np.random.default_rng(5)
        datasets = [rng.normal(0, 1, 500), 163.0 + rng.exponential(2.0, 900),
                    rng.lognormal(1, 1, 300), np.full(40, 7.5)]
        sums = np.stack([[np.sum(d ** i) for i in range(9)] for d in datasets])
        counts = np.array([d.size for d in datasets])
        lows = np.array([d.min() for d in datasets])
        highs = np.array([d.max() for d in datasets])
        rows = mo.chebyshev_moment_rows(sums, counts, lows, highs)
        for row, d in enumerate(datasets):
            support = mo.ScaledSupport(float(d.min()), float(d.max()))
            one = mo.power_sums_to_chebyshev_moments(sums[row], d.size, support)
            assert np.array_equal(rows[row], one)
            alone = mo.chebyshev_moment_rows(sums[row:row + 1], counts[row:row + 1],
                                             lows[row:row + 1], highs[row:row + 1])
            assert np.array_equal(alone[0], one)


class TestStability:
    def test_shift_error_bound_grows_with_order_and_offset(self):
        assert (mo.shift_error_bound(4, 0.0)
                < mo.shift_error_bound(8, 0.0)
                < mo.shift_error_bound(8, 2.0))

    def test_max_stable_order_centered_data(self):
        # Eq. 21: c = 0 gives k ~ 17, capped at 16 per the paper's findings.
        assert mo.max_stable_order(0.0) == 16

    def test_max_stable_order_offset_two(self):
        # Paper: range [xmin, 3 xmin] -> c = 2 -> at least 10 stable moments.
        assert 10 <= mo.max_stable_order(2.0) <= 11

    def test_max_stable_order_monotone_in_offset(self):
        orders = [mo.max_stable_order(c) for c in (0.0, 1.0, 2.0, 5.0, 20.0)]
        assert orders == sorted(orders, reverse=True)

    def test_empirical_stability_flags_blowup(self):
        good = np.array([1.0, 0.1, 0.5, -0.2])
        assert mo.stable_order_empirical(good) == 3
        bad = np.array([1.0, 0.1, 0.5, 37.0])
        assert mo.stable_order_empirical(bad) == 2
        nan = np.array([1.0, np.nan])
        assert mo.stable_order_empirical(nan) == 0


class TestUniformChebyshevMoments:
    def test_closed_form(self):
        values = mo.uniform_chebyshev_moments(6)
        # E[T_i(U)] = 0 for odd i, 1/(1 - i^2) for even i.
        assert values[0] == 1.0
        assert values[1] == 0.0
        assert values[2] == pytest.approx(-1.0 / 3.0)
        assert values[4] == pytest.approx(-1.0 / 15.0)
        assert values[6] == pytest.approx(-1.0 / 35.0)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(-1, 1, 400_000)
        expected = mo.uniform_chebyshev_moments(5)
        for i in range(6):
            empirical = np.mean(np.cos(i * np.arccos(u)))
            assert empirical == pytest.approx(expected[i], abs=5e-3)
