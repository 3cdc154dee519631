"""Benchmark inputs are a pure function of the seed; names follow the contract."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bench.workloads import WORKLOADS, make_inputs, repeat_share

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_differs(name):
    workload = replace(WORKLOADS[name], base_rows=20_000)
    a = make_inputs(workload, 3, 2.0, 0.5)
    b = make_inputs(workload, 3, 2.0, 0.5)
    c = make_inputs(workload, 4, 2.0, 0.5)
    assert a.events == b.events and a.warmup == b.warmup
    for column in ("cells", "values", "timestamps"):
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column))
    assert a.events != c.events
    assert not np.array_equal(a.values[:1000], c.values[:1000])


def test_every_name_matches_the_pattern_and_carries_a_unit():
    metrics = CONFIG["end_to_end"] + CONFIG["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"]
                                            for w in CONFIG["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_benchmark_json_lists_the_code_workloads():
    assert {w["name"]: w["why"] for w in CONFIG["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}


def test_repeat_share_resets_at_flushes():
    inputs = make_inputs(replace(WORKLOADS["groups-cluster"], base_rows=20_000),
                         0, 10.0, 0.5)
    share = repeat_share(inputs.events)
    assert 0.0 < share < 1.0
    no_flush = [event for event in inputs.events if event.op != "flush"]
    assert repeat_share(no_flush) > share
