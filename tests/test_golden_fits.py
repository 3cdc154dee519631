"""Golden max-entropy fits: frozen outputs of an earlier estimator build.

``fixtures/golden_fits.json`` holds ~45 sketches (serialized with
``MomentsSketch.to_bytes``) together with what the estimator produced for
them when the fixture was generated: the automatic moment selection, the
Brent quantiles and the tabulated quantiles.  These are the references
the estimation kernels are held to, so a refactor of the selector, the
basis construction, the Newton loop or the CDF build cannot drift
silently.

* selections must be equal;
* ``quantile_brent`` inverts the solved density's CDF directly, so it
  moves only if the density moves: within 1e-9 of the support width;
* ``quantiles`` invert the tabulated CDF, so they may move with the
  tabulation grid, but must stay within 1e-5 of the support width of the
  exact inverse, the recorded Brent answers.

The fixture also records the generating build's tabulated answers
(``quantiles``).  Its uniform table missed that bound on three of the
milan cells (by up to 1.1e-4 of the width, at q = .99 in the log domain),
so they document the old table rather than bound the new one.

Regenerate (only to move the reference on purpose) with::

    PYTHONPATH=src python tests/test_golden_fits.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import MomentsSketch, QuantileEstimator, fit_estimators
from repro.core.selector import select_moments
from repro.core.solver import SolverConfig

FIXTURE = Path(__file__).parent / "fixtures" / "golden_fits.json"
QS = (0.01, 0.1, 0.5, 0.9, 0.95, 0.99)
CONFIG = SolverConfig()


def _cases() -> list[dict]:
    return json.loads(FIXTURE.read_text())["cases"]


def _sketch(case: dict) -> MomentsSketch:
    return MomentsSketch.from_bytes(bytes.fromhex(case["sketch"]))


CASES = _cases() if __name__ != "__main__" else []
IDS = [case["name"] for case in CASES]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_scalar_fit_matches_golden(case):
    sketch = _sketch(case)
    width = sketch.max - sketch.min
    selection = select_moments(sketch, CONFIG)
    assert (selection.k1, selection.k2) == tuple(case["selection"])
    estimator = QuantileEstimator.fit(sketch, config=CONFIG)
    brent = np.array([estimator.quantile_brent(q) for q in QS])
    np.testing.assert_allclose(brent, case["quantile_brent"], rtol=0,
                               atol=1e-9 * width)
    np.testing.assert_allclose(estimator.quantiles(np.array(QS)),
                               case["quantile_brent"], rtol=0,
                               atol=1e-5 * width)


def test_batched_fit_matches_golden():
    sketches = [_sketch(case) for case in CASES]
    estimators, errors, _ = fit_estimators(sketches, CONFIG)
    assert all(error is None for error in errors)
    for case, sketch, estimator in zip(CASES, sketches, estimators):
        width = sketch.max - sketch.min
        assert (estimator.selection.k1, estimator.selection.k2) \
            == tuple(case["selection"]), case["name"]
        np.testing.assert_allclose(
            [estimator.quantile_brent(q) for q in QS], case["quantile_brent"],
            rtol=0, atol=1e-9 * width, err_msg=case["name"])
        np.testing.assert_allclose(
            estimator.quantiles(np.array(QS)), case["quantile_brent"],
            rtol=0, atol=1e-5 * width, err_msg=case["name"])


def _golden_sketches() -> list[tuple[str, MomentsSketch]]:
    """The fixture's inputs: milan Zipf cells plus synthetic shapes."""
    from repro.datasets import load

    out = []
    values = np.array(load("milan", n=60_000, seed=0), dtype=float)
    rng = np.random.default_rng(7)
    np.random.default_rng(8).shuffle(values)
    ranks = np.arange(1, 257, dtype=float)
    weights = ranks ** -1.1 / np.sum(ranks ** -1.1)
    cells = rng.choice(256, size=values.size, p=weights)
    for cell in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 120, 160, 200, 250):
        out.append((f"milan-cell{cell}",
                    MomentsSketch.from_data(values[cells == cell], k=10)))
    for i in range(6):
        k = (6, 8, 10)[i % 3]
        n = (200, 2000, 20_000)[i // 2]
        out.append((f"lognormal-{i}", MomentsSketch.from_data(
            rng.lognormal(rng.uniform(-1, 3), rng.uniform(0.3, 1.5), n), k=k)))
        out.append((f"normal-{i}", MomentsSketch.from_data(
            rng.normal(rng.uniform(-50, 50), rng.uniform(0.5, 20), n), k=k)))
        out.append((f"uniform-{i}", MomentsSketch.from_data(
            rng.uniform(-rng.uniform(0, 10), rng.uniform(1, 10), n), k=k)))
        out.append((f"gamma-{i}", MomentsSketch.from_data(
            rng.gamma(rng.uniform(0.5, 5), rng.uniform(0.5, 4), n), k=k)))
        out.append((f"offset-exponential-{i}", MomentsSketch.from_data(
            rng.uniform(1, 1000) + rng.exponential(rng.uniform(0.5, 50), n),
            k=k)))
    return out


def _generate() -> None:
    cases = []
    for name, sketch in _golden_sketches():
        selection = select_moments(sketch, CONFIG)
        estimator = QuantileEstimator.fit(sketch, config=CONFIG)
        cases.append({
            "name": name,
            "sketch": sketch.to_bytes().hex(),
            "selection": [selection.k1, selection.k2],
            "quantile_brent": [estimator.quantile_brent(q) for q in QS],
            "quantiles": estimator.quantiles(np.array(QS)).tolist(),
        })
    FIXTURE.write_text(json.dumps({"qs": list(QS), "cases": cases},
                                  indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {FIXTURE}")


if __name__ == "__main__":
    _generate()
