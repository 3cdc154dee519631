"""Tests for the Druid topN-by-quantile query."""

import numpy as np
import pytest

from repro.api import QueryService, QuerySpec
from repro.core.errors import QueryError
from repro.druid import DruidEngine, registry


def top_n(engine, aggregator, dimension, n, q=0.99, filters=None):
    """Druid-style topN: (dimension value, q-quantile) pairs, best first."""
    response = QueryService(druid=engine).execute(QuerySpec(
        kind="top_n", quantiles=(q,), measure=aggregator,
        group_dimension=dimension, n=n, filters=filters or {}))
    return response.top


@pytest.fixture(scope="module")
def engine():
    rng = np.random.default_rng(0)
    n = 40_000
    # Ten app versions with clearly separated tail latencies.
    version = rng.integers(0, 10, n)
    region = rng.choice(["na", "eu"], n)
    scale = 1.0 + version * 2.0          # version 9 is the slowest
    values = rng.lognormal(2.0, 0.5, n) * scale
    engine = DruidEngine(("version", "region"),
                         registry(histogram_bins=(100,)),
                         granularity=3600.0)
    engine.ingest(rng.uniform(0, 6 * 3600, n), [version, region], values)
    engine._truth = (version, region, values)  # type: ignore[attr-defined]
    return engine


def brute_force_top(engine, n_top, phi):
    version, region, values = engine._truth
    scores = {v: float(np.quantile(values[version == v], phi))
              for v in np.unique(version)}
    ranked = sorted(scores, key=scores.get, reverse=True)
    return ranked[:n_top]


class TestTopN:
    @pytest.mark.parametrize("n_top", [1, 3, 5])
    def test_matches_brute_force_ranking(self, engine, n_top):
        result = top_n(engine, "momentsSketch@10", "version",
                       n=n_top, q=0.99)
        got = [value for value, _ in result]
        expected = brute_force_top(engine, n_top, 0.99)
        assert got == expected

    def test_scores_are_descending_quantiles(self, engine):
        result = top_n(engine, "momentsSketch@10", "version", n=4, q=0.9)
        scores = [score for _, score in result]
        assert scores == sorted(scores, reverse=True)
        version, _, values = engine._truth
        for value, score in result:
            truth = np.quantile(values[version == value], 0.9)
            assert score == pytest.approx(truth, rel=0.15)

    def test_filtered_topn(self, engine):
        version, region, values = engine._truth
        result = top_n(engine, "momentsSketch@10", "version",
                       n=2, q=0.99, filters={"region": "na"})
        mask = region == "na"
        scores = {v: float(np.quantile(values[mask & (version == v)], 0.99))
                  for v in np.unique(version)}
        expected = sorted(scores, key=scores.get, reverse=True)[:2]
        assert [value for value, _ in result] == expected

    def test_works_for_non_moments_aggregator(self, engine):
        # Histograms score through their own estimates: same ranking.
        result = top_n(engine, "S-Hist@100", "version", n=3, q=0.99)
        assert [value for value, _ in result] == brute_force_top(engine, 3, 0.99)

    def test_n_larger_than_groups_returns_all(self, engine):
        result = top_n(engine, "momentsSketch@10", "version", n=50, q=0.5)
        assert len(result) == 10

    def test_validation(self, engine):
        with pytest.raises(QueryError):
            top_n(engine, "momentsSketch@10", "version", n=0)
        with pytest.raises(QueryError):
            top_n(engine, "momentsSketch@10", "flavor", n=1)
        with pytest.raises(QueryError):
            top_n(engine, "nope", "version", n=1)
