"""Tests for the Zipf cell popularity behind the exact-oracle suites.

``assign_cells`` deals rows into cells for ``tests/test_exact_oracle.py``:
every cell must exist, and the hot (low-numbered) cells must be the
biggest, the skew ``zipf_weights`` promises.
"""

import numpy as np

from repro.harness import zipf_weights
from repro.harness.traffic import assign_cells


class TestZipfSkew:
    def test_weights_are_normalized_and_monotone(self):
        weights = zipf_weights(32, 1.2)
        np.testing.assert_allclose(weights.sum(), 1.0)
        assert np.all(np.diff(weights) < 0)

    def test_zero_skew_is_uniform(self):
        np.testing.assert_allclose(zipf_weights(10, 0.0), np.full(10, 0.1))


class TestCellAssignment:
    def test_every_cell_is_populated(self):
        rng = np.random.default_rng(0)
        cells = assign_cells(500, 32, 1.5, rng)
        assert set(np.unique(cells)) == set(range(32))

    def test_hot_cells_are_bigger(self):
        rng = np.random.default_rng(0)
        cells = assign_cells(20_000, 16, 1.2, rng)
        counts = np.bincount(cells, minlength=16)
        assert counts[0] == counts.max()
        assert counts[:8].sum() > counts[8:].sum()
