"""Tests for Markov and RTT moment bounds (Section 5.1, Appendix E)."""

import numpy as np
import pytest

from repro.core import MomentsSketch
from repro.core.bounds import (
    RankBounds,
    markov_bound,
    quantile_error_bound,
    rtt_bound,
)
from repro.core.errors import BoundError


@pytest.fixture(scope="module", params=["gauss", "expon", "lognorm", "uniform"])
def dataset(request):
    rng = np.random.default_rng(hash(request.param) % 2 ** 31)
    data = {
        "gauss": lambda: rng.normal(0, 1, 20_000),
        "expon": lambda: rng.exponential(1, 20_000),
        "lognorm": lambda: rng.lognormal(0.5, 1.2, 20_000),
        "uniform": lambda: rng.uniform(-3, 3, 20_000),
    }[request.param]()
    return request.param, np.sort(data), MomentsSketch.from_data(data, k=10)


QUERY_PHIS = (0.05, 0.2, 0.5, 0.8, 0.95, 0.99)


class TestRankBounds:
    def test_fraction_and_width(self):
        bounds = RankBounds(lower=100.0, upper=300.0, count=1000.0)
        assert bounds.fraction() == (0.1, 0.3)
        assert bounds.width == 200.0

    def test_intersect_takes_tighter(self):
        a = RankBounds(100, 300, 1000)
        b = RankBounds(150, 400, 1000)
        merged = a.intersect(b)
        assert merged.lower == 150 and merged.upper == 300


class TestMarkovBound:
    def test_contains_true_rank(self, dataset):
        name, data_sorted, sketch = dataset
        n = data_sorted.size
        for phi in QUERY_PHIS:
            t = float(data_sorted[int(phi * n)])
            true_rank = np.searchsorted(data_sorted, t, side="left")
            bounds = markov_bound(sketch, t)
            assert bounds.lower - 1e-6 * n <= true_rank <= bounds.upper + 1e-6 * n, \
                f"{name} phi={phi}"

    def test_out_of_range_thresholds(self, dataset):
        _, data_sorted, sketch = dataset
        n = sketch.count
        below = markov_bound(sketch, float(data_sorted[0]) - 1.0)
        assert below.lower == 0.0 and below.upper == 0.0
        above = markov_bound(sketch, float(data_sorted[-1]) + 1.0)
        assert above.lower == n and above.upper == n
        assert markov_bound(sketch, -np.inf).upper == 0.0
        assert markov_bound(sketch, np.inf).lower == n

    def test_bounds_ordered_and_within_count(self, dataset):
        _, data_sorted, sketch = dataset
        t = float(np.median(data_sorted))
        bounds = markov_bound(sketch, t)
        assert 0.0 <= bounds.lower <= bounds.upper <= sketch.count

    def test_max_order_restriction_loosens_bound(self, dataset):
        _, data_sorted, sketch = dataset
        t = float(data_sorted[int(0.9 * data_sorted.size)])
        full = markov_bound(sketch, t)
        restricted = markov_bound(sketch, t, max_order=1)
        assert restricted.width >= full.width - 1e-9


class TestRTTBound:
    def test_contains_true_rank(self, dataset):
        name, data_sorted, sketch = dataset
        n = data_sorted.size
        for phi in QUERY_PHIS:
            t = float(data_sorted[int(phi * n)])
            true_rank = np.searchsorted(data_sorted, t, side="left")
            bounds = rtt_bound(sketch, t)
            assert bounds.lower - 1e-4 * n <= true_rank <= bounds.upper + 1e-4 * n, \
                f"{name} phi={phi}"

    def test_tighter_than_markov(self, dataset):
        # The reason the cascade orders RTT after Markov (Section 5.2).
        name, data_sorted, sketch = dataset
        t = float(np.median(data_sorted))
        assert rtt_bound(sketch, t).width <= markov_bound(sketch, t).width + 1e-9, name

    def test_out_of_range_thresholds(self, dataset):
        _, data_sorted, sketch = dataset
        assert rtt_bound(sketch, float(data_sorted[0]) - 1.0).upper == 0.0
        assert rtt_bound(sketch, float(data_sorted[-1]) + 1.0).lower == sketch.count
        assert rtt_bound(sketch, -np.inf).upper == 0.0
        assert rtt_bound(sketch, np.inf).lower == sketch.count

    def test_degenerate_data_falls_back_to_markov(self):
        # Two distinct values: the Hankel system is singular; the bound
        # must degrade gracefully rather than raise.
        sketch = MomentsSketch.from_data([0.0] * 50 + [1.0] * 50, k=8)
        bounds = rtt_bound(sketch, 0.5)
        assert 0.0 <= bounds.lower <= bounds.upper <= sketch.count


class TestErrorBound:
    def test_bounds_true_error(self, dataset):
        # Appendix E: the certified error must dominate the actual error.
        from repro.core import estimate_quantiles
        name, data_sorted, sketch = dataset
        n = data_sorted.size
        phis = np.asarray([0.1, 0.5, 0.9])
        estimates = estimate_quantiles(sketch, phis)
        for phi, q in zip(phis, estimates):
            certified = quantile_error_bound(sketch, float(q), float(phi))
            true_rank = np.searchsorted(data_sorted, q, side="left")
            actual = abs(true_rank - np.floor(phi * n)) / n
            assert actual <= certified + 1e-3, f"{name} phi={phi}"

    def test_invalid_phi_rejected(self, dataset):
        _, _, sketch = dataset
        with pytest.raises(BoundError):
            quantile_error_bound(sketch, 0.0, 1.5)


class TestNaNThresholds:
    """A NaN threshold has no rank: every bound entry point raises the
    typed error instead of LAPACK's, and the batch forms are the one
    place that checks."""

    SKETCH = MomentsSketch.from_data(
        np.random.default_rng(3).lognormal(0.0, 1.0, 2000), k=8)

    def test_scalar_and_batch_bounds_raise(self):
        from repro.core.bounds import markov_bound_batch, rtt_bound_batch
        from repro.core.sketch import ColumnarMoments
        block = ColumnarMoments.from_sketches([self.SKETCH, self.SKETCH])
        nan = float("nan")
        for call in (lambda: markov_bound(self.SKETCH, nan),
                     lambda: rtt_bound(self.SKETCH, nan),
                     lambda: quantile_error_bound(self.SKETCH, nan, 0.5),
                     lambda: markov_bound_batch(block, nan),
                     lambda: rtt_bound_batch(block, np.array([1.0, nan]))):
            with pytest.raises(BoundError, match="NaN"):
                call()

    def test_cascade_raises(self):
        from repro.core.cascade import ThresholdCascade
        cascade = ThresholdCascade()
        with pytest.raises(BoundError):
            cascade.evaluate(self.SKETCH, float("nan"), 0.9)
        with pytest.raises(BoundError):
            cascade.evaluate_batch([self.SKETCH], float("nan"), 0.9)


# ----------------------------------------------------------------------
# The stacked RTT core against the per-row reference
# ----------------------------------------------------------------------

#: Why the reference left a row unsolved, keyed by its BoundError text.
_PATHS: dict[str, int] = {}


def _reference_representation(moments, point):
    """The per-row canonical representation the stacked core replaces.

    Roots come from ``eigvals`` of the explicit companion matrix (what
    ``polyroots`` runs), not from ``polyroots`` itself, whose matrix some
    numpy versions rotate.
    """
    size = moments.size
    if size < 3:
        raise BoundError("short")
    n = (size - 1) // 2
    index = np.arange(n)[:, None] + np.arange(n)[None, :]
    system = moments[index + 1] - point * moments[index]
    tail = np.arange(n) + n
    rhs = -(moments[tail + 1] - point * moments[tail])
    try:
        coeffs = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise BoundError("hankel") from exc
    if n == 1:
        roots = np.array([-coeffs[0] / 1.0])
    else:
        companion = np.zeros((n, n))
        companion.reshape(-1)[n::n + 1] = 1.0
        companion[:, -1] -= coeffs / 1.0
        roots = np.linalg.eigvals(companion)
        roots.sort()
    if np.any(np.abs(roots.imag) > 1e-7):
        raise BoundError("complex")
    atoms = np.concatenate([roots.real, [point]])
    vander = np.vander(atoms, len(atoms), increasing=True).T
    try:
        weights = np.linalg.solve(vander, moments[: len(atoms)])
    except np.linalg.LinAlgError as exc:
        raise BoundError("vandermonde") from exc
    if np.any(weights < -1e-6):
        raise BoundError("negative")
    return atoms, np.clip(weights, 0.0, None)


def _reference_cdf(moments, point):
    from repro.core.bounds import _ATOM_TOL
    atoms, weights = _reference_representation(moments, point)
    below = float(weights[atoms < point - _ATOM_TOL].sum())
    at = float(weights[np.abs(atoms - point) <= _ATOM_TOL].sum())
    total = float(weights.sum())
    if total <= 0:
        raise BoundError("total")
    return below / total, min(1.0, (below + at) / total)


def _reference_family_rows(sums, counts, orders, members, lows, highs,
                           points, lo_frac, hi_frac, solved):
    """Per-row twin of ``bounds._rtt_family_rows``: one solve per row."""
    from repro.core import bounds
    from repro.core.moments import stable_orders_rows
    for order in np.unique(orders[members]):
        group = members[orders[members] == order]
        mu = bounds._raw_moment_rows(sums[group], counts[group], int(order))
        centers = 0.5 * (highs[group] + lows[group])
        halves = 0.5 * (highs[group] - lows[group])
        scaled = bounds._shifted_scaled_rows(mu, centers, halves)
        usable = np.maximum(stable_orders_rows(scaled), 1) + 1
        scaled_points = (points[group] - centers) / halves
        for position, row in enumerate(group):
            size = int(usable[position])
            prefix = scaled[position, : size if size % 2 else size - 1]
            try:
                lo, hi = _reference_cdf(prefix, float(scaled_points[position]))
            except BoundError as exc:
                _PATHS[str(exc)] = _PATHS.get(str(exc), 0) + 1
                continue
            _PATHS["solved"] = _PATHS.get("solved", 0) + 1
            lo_frac[row] = max(lo_frac[row], lo)
            hi_frac[row] = min(hi_frac[row], hi)
            solved[row] = True


def _reference_rtt(monkeypatch, block, ts):
    from repro.core import bounds
    from repro.core.bounds import rtt_bound_batch
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_rtt_family_rows", _reference_family_rows)
        return rtt_bound_batch(block, ts)


def _same_bits(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def _corpus(k):
    """(data, sketch) pairs: milan cells, five smooth families, and data
    with few distinct values or just two points."""
    from repro.datasets import load
    rng = np.random.default_rng(100 + k)
    datasets = [np.asarray(cell) for cell in
                np.array_split(np.asarray(load("milan", 32_000)), 64)]
    for _ in range(24):
        size = int(rng.integers(50, 2000))
        datasets += [
            rng.lognormal(rng.normal(), rng.uniform(0.2, 2.0), size),
            rng.normal(10 * rng.normal(), rng.uniform(0.1, 5.0), size),
            rng.uniform(-3.0, 5.0, size),
            rng.gamma(rng.uniform(0.3, 5.0), 2.0, size),
            rng.integers(0, int(rng.integers(2, 6)), size) + 1.0,
            np.repeat(rng.uniform(0.5, 3.0, 2),
                      rng.integers(1, 100, 2)),
        ]
    # Centred data keeps high orders stable: at k >= 14 its odd prefixes
    # reach 15 and 17 moments, 8 and 9 atoms, where numpy sums pairwise.
    rng = np.random.default_rng(200 + k)
    for _ in range(24):
        size = int(rng.integers(50, 2000))
        datasets += [rng.normal(0.0, 1.0, size), rng.lognormal(0.0, 1.0, size)]
    return [(data, MomentsSketch.from_data(data, k=k)) for data in datasets]


def _threshold_sets(corpus, rng):
    mins = np.array([sketch.min for _, sketch in corpus])
    maxs = np.array([sketch.max for _, sketch in corpus])
    atoms = np.array([np.unique(data)[rng.integers(np.unique(data).size)]
                      for data, _ in corpus])
    return {
        "middle": 0.5 * (mins + maxs),
        "uniform": mins + (maxs - mins) * rng.random(mins.size),
        "low tail": mins + (maxs - mins) * rng.random(mins.size) ** 4,
        "atoms": atoms,
        "min + 1 ulp": np.nextafter(mins, np.inf),
        "max - 1 ulp": np.nextafter(maxs, -np.inf),
    }


class TestStackedRTTCore:
    """The stacked Hankel/eigvals/Vandermonde core is bit-identical to one
    LAPACK solve per row."""

    @pytest.mark.parametrize("k", [6, 8, 10, 14, 16])
    def test_matches_per_row_reference(self, monkeypatch, k):
        from repro.core.bounds import rtt_bound_batch
        from repro.core.sketch import ColumnarMoments
        corpus = _corpus(k)
        assert len(corpus) >= 200
        block = ColumnarMoments.from_sketches([s for _, s in corpus])
        _PATHS.clear()
        rng = np.random.default_rng(k)
        for name, ts in _threshold_sets(corpus, rng).items():
            got = rtt_bound_batch(block, ts)
            want = _reference_rtt(monkeypatch, block, ts)
            assert _same_bits(got.lower, want.lower), (k, name)
            assert _same_bits(got.upper, want.upper), (k, name)
        # the corpus reaches every way a row's solve fails (at k = 10 no
        # row's stable prefix is shorter than three moments)
        paths = {"solved", "hankel", "complex", "negative"}
        if k < 10:
            paths.add("short")
        assert paths <= set(_PATHS), (k, _PATHS)

    def test_unsolvable_core_rows(self):
        """A singular Vandermonde matrix and a zero total mass leave a
        row unsolved, as they raised per row; the other rows keep the
        bounds they get alone."""
        from repro.core.bounds import _rtt_cdf_rows
        tiny = 2.0 ** -30
        rows = np.array([[1.0, 0.1, 0.4], [1.0, 0.5, 0.0],
                         [-tiny, tiny, -tiny], [1.0, -0.2, 0.3]])
        points = np.array([0.2, 0.0, 0.0, 0.1])
        with pytest.raises(BoundError, match="vandermonde"):
            _reference_cdf(rows[1], 0.0)
        with pytest.raises(BoundError, match="total"):
            _reference_cdf(rows[2], 0.0)
        lower, upper, solved = _rtt_cdf_rows(rows, points)
        assert solved.tolist() == [True, False, False, True]
        for row in (0, 3):
            lo, hi = _reference_cdf(rows[row], float(points[row]))
            assert _same_bits([lower[row], upper[row]], [lo, hi])
            alone = _rtt_cdf_rows(rows[row:row + 1], points[row:row + 1])
            assert _same_bits(alone[0], lower[row:row + 1])
            assert _same_bits(alone[1], upper[row:row + 1])

    def test_singular_row_leaves_neighbours_unchanged(self):
        from repro.core.bounds import rtt_bound_batch
        from repro.core.sketch import ColumnarMoments
        rng = np.random.default_rng(5)
        smooth = [MomentsSketch.from_data(rng.lognormal(0, 1, 500), k=10)
                  for _ in range(6)]
        # five evenly spaced values: a singular Hankel system at k = 10
        singular = MomentsSketch.from_data(
            np.repeat(np.linspace(1.0, 3.0, 5), 40), k=10)
        sketches = smooth[:3] + [singular] + smooth[3:]
        ts = np.array([np.median([s.min, s.max]) for s in sketches])
        batch = rtt_bound_batch(ColumnarMoments.from_sketches(sketches), ts)
        for row, sketch in enumerate(sketches):
            alone = rtt_bound_batch(ColumnarMoments.from_sketches([sketch]),
                                    ts[row])
            assert _same_bits(batch.lower[row], alone.lower[0])
            assert _same_bits(batch.upper[row], alone.upper[0])

    def test_row_alone_equals_shuffled_batch(self):
        from repro.core.bounds import rtt_bound_batch
        from repro.core.sketch import ColumnarMoments
        rng = np.random.default_rng(11)
        corpus = _corpus(10)
        picks = rng.choice(len(corpus), 64, replace=False)
        sketches = [corpus[i][1] for i in picks]
        ts = np.array([s.min + (s.max - s.min) * rng.random() ** 2
                       for s in sketches])
        batch = rtt_bound_batch(ColumnarMoments.from_sketches(sketches), ts)
        for row in rng.permutation(64):
            alone = rtt_bound(sketches[row], float(ts[row]))
            assert _same_bits([batch.lower[row], batch.upper[row]],
                              [alone.lower, alone.upper])


class TestMarkovHandOff:
    """The cascade hands its Markov bounds to the RTT stage instead of
    recomputing them."""

    SKETCHES = [MomentsSketch.from_data(
        np.random.default_rng(seed).lognormal(0.0, 1.0, 800), k=10)
        for seed in range(32)]

    def test_handed_bounds_give_the_same_result(self):
        from repro.core.bounds import (_rtt_bound_rows, markov_bound_batch,
                                       rtt_bound_batch)
        from repro.core.sketch import ColumnarMoments
        block = ColumnarMoments.from_sketches(self.SKETCHES)
        ts = np.linspace(0.5, 3.0, len(self.SKETCHES))
        handed = _rtt_bound_rows(block, ts, markov_bound_batch(block, ts))
        computed = rtt_bound_batch(block, ts)
        assert _same_bits(handed.lower, computed.lower)
        assert _same_bits(handed.upper, computed.upper)

    def test_one_markov_pass_per_cascade(self, monkeypatch):
        from repro.core import bounds, cascade
        from repro.core.cascade import ThresholdCascade
        calls = []
        real = bounds.markov_bound_batch

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(bounds, "markov_bound_batch", counting)
        monkeypatch.setattr(cascade, "markov_bound_batch", counting)
        runner = ThresholdCascade()
        outcomes = runner.evaluate_batch(self.SKETCHES, 2.0, 0.5)
        assert runner.stats.stages["rtt"].entered > 0
        assert calls == [len(self.SKETCHES)]
        monkeypatch.undo()
        assert outcomes == ThresholdCascade().evaluate_batch(
            self.SKETCHES, 2.0, 0.5)


def _reference_markov_side(mu, shifts, points, spans, upper):
    """One family's lower or upper Markov fractions, one pass per side."""
    from repro.core.moments import shifted_moments
    gaps = shifts - points if upper else points - shifts
    moments = shifted_moments(mu, shifts)
    if upper:
        moments[:, 1::2] = -moments[:, 1::2]
    powers = np.arange(moments.shape[1], dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ceiling = spans[:, None] ** powers * (1.0 + 1e-9)
        ratios = moments[:, 1:] / gaps[:, None] ** powers[1:]
    valid = np.isfinite(moments) & (moments >= 0.0) & (moments <= ceiling)
    usable = valid[:, 1:] & np.isfinite(ratios)
    best = np.where(usable, ratios, np.inf).min(axis=1, initial=1.0)
    if upper:
        return np.where(gaps > 0, np.minimum(best, 1.0), 1.0)
    return np.where(gaps > 0, 1.0 - np.minimum(best, 1.0), 0.0)


def _reference_markov(block, ts, max_order=None):
    """``markov_bound_batch`` with each family and side in its own pass."""
    from repro.core.bounds import _cheap_order_caps_rows, _raw_moment_rows
    counts = block.counts
    below, above = ts <= block.mins, ts > block.maxs
    lower_frac, upper_frac = np.zeros(len(block)), np.ones(len(block))
    middle = np.flatnonzero(~below & ~above)
    k1, k2 = _cheap_order_caps_rows(block, middle)
    if max_order is not None:
        k1, k2 = np.minimum(k1, max_order), np.minimum(k2, max_order)
    k1 = np.maximum(k1, 1)
    mins, maxs, t = block.mins[middle], block.maxs[middle], ts[middle]
    lf, uf = np.zeros(middle.size), np.ones(middle.size)
    for order in np.unique(k1):
        members = np.flatnonzero(k1 == order)
        rows = middle[members]
        mu = _raw_moment_rows(block.power_sums[rows], counts[rows], int(order))
        spans = maxs[members] - mins[members]
        lf[members] = _reference_markov_side(mu, mins[members], t[members],
                                             spans, upper=False)
        uf[members] = _reference_markov_side(mu, maxs[members], t[members],
                                             spans, upper=True)
    log_rows = np.flatnonzero((k2 > 0) & (t > 0))
    for order in np.unique(k2[log_rows]):
        members = log_rows[k2[log_rows] == order]
        rows = middle[members]
        nu = _raw_moment_rows(block.log_sums[rows], counts[rows], int(order))
        lo, hi = np.log(mins[members]), np.log(maxs[members])
        log_t = np.log(t[members])
        lf[members] = np.maximum(lf[members], _reference_markov_side(
            nu, lo, log_t, hi - lo, upper=False))
        uf[members] = np.minimum(uf[members], _reference_markov_side(
            nu, hi, log_t, hi - lo, upper=True))
    lf = np.clip(lf, 0.0, 1.0)
    lower_frac[middle], upper_frac[middle] = lf, np.clip(uf, lf, 1.0)
    return (np.where(below, 0.0, np.where(above, counts, lower_frac * counts)),
            np.where(below, 0.0, np.where(above, counts, upper_frac * counts)))


class TestStackedMarkov:
    """Both families and both sides of one order share one stacked pass,
    bit-identical to a pass per family and side."""

    @pytest.mark.parametrize("k", [6, 10, 16])
    def test_matches_per_family_reference(self, k):
        from repro.core.bounds import markov_bound_batch
        from repro.core.sketch import ColumnarMoments
        corpus = _corpus(k)
        block = ColumnarMoments.from_sketches([s for _, s in corpus])
        rng = np.random.default_rng(k)
        for name, ts in _threshold_sets(corpus, rng).items():
            for max_order in (None, 2, 5):
                got = markov_bound_batch(block, ts, max_order=max_order)
                lower, upper = _reference_markov(block, ts, max_order)
                assert _same_bits(got.lower, lower), (k, name, max_order)
                assert _same_bits(got.upper, upper), (k, name, max_order)
