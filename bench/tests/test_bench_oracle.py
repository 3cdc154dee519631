"""The numpy grader agrees with the harness's sqlite exact oracle.

This is the only place the benchmark touches ``repro.harness``.
"""

import numpy as np
import pytest

from bench.oracle import Oracle, exact_quantile, rank_error
from repro.harness.oracle import ExactOracle


@pytest.fixture(scope="module")
def rows():
    rng = np.random.default_rng(7)
    cells = rng.integers(0, 4, 600)
    # Rounded values make ties, which Eq. 1's tie range must handle.
    values = np.round(rng.lognormal(1.0, 1.0, 600), 1)
    timestamps = rng.uniform(0, 30, 600)
    return cells, values, timestamps


def test_exact_answers_match_the_sqlite_oracle(rows):
    cells, values, _ = rows
    exact = ExactOracle("cell")
    exact.insert(cells, values)
    ours = Oracle(cells, values)
    try:
        for cell in range(4):
            selected = ours.select(cells.size, cell=cell)
            assert selected.size == exact.count(cell)
            probes = np.concatenate([selected[:5], selected[:5] + 0.05,
                                     [selected.min() - 1, selected.max() + 1]])
            for q in (0.1, 0.5, 0.9, 0.99):
                assert exact_quantile(selected, q) == \
                    exact.exact_quantile(q, cell)
                for x in probes:
                    assert rank_error(selected, x, q) == pytest.approx(
                        exact.rank_error(x, q, cell), abs=1e-12)
                    assert rank_error(selected, x, q) == pytest.approx(
                        exact.threshold_margin(x, q, cell), abs=1e-12)
    finally:
        exact.close()


def test_cursor_and_chunk_selection(rows):
    cells, values, timestamps = rows
    ours = Oracle(cells, values, timestamps)
    cursor = 400
    head = slice(0, cursor)
    np.testing.assert_array_equal(
        np.sort(ours.select(cursor, cell=2)),
        np.sort(values[head][cells[head] == 2]))
    chunk = np.floor(timestamps[head])
    mask = (chunk >= 5) & (chunk <= 12) & (cells[head] == 1)
    np.testing.assert_array_equal(
        np.sort(ours.select(cursor, cell=1, chunks=(5.0, 12.0))),
        np.sort(values[head][mask]))
    np.testing.assert_array_equal(ours.select(cursor), values[head])
