"""The comparator's verdicts, pairing rule and refusals."""

import json

from bench import compare


def test_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2]
    assert compare.verdict(parent, [10.1, 10.0, 10.2, 9.9, 10.1], 0.1,
                           "lower") == "unchanged"
    assert compare.verdict(parent, [12.0, 12.1, 11.9, 12.0, 12.2], 0.1,
                           "lower") == "regression"
    assert compare.verdict(parent, [8.0, 8.1, 7.9, 8.0, 8.2], 0.1,
                           "higher") == "regression"
    noisy = [6.0, 14.0, 9.0, 12.0, 8.0]
    assert compare.verdict(parent, noisy, 0.1, "lower") == "unresolved"
    # A wide spread is resolved when every change run beats every parent run.
    assert compare.verdict(noisy, [1.0, 2.0, 3.0], 0.1, "lower") == \
        "unchanged"


def _runs(values, workload="w", start=0.0, step=2.0):
    return [{"workload": workload, "seed": i, "seconds": 15, "trace": 0,
             "comparable": True, "valid": True,
             "started_at": start + step * i + (i % 2),
             "details": {"correct": True, "attempted": 100, "failed": 0},
             "metrics": {"query_p50_ms": [value, "ms"]}}
            for i, value in enumerate(values)]


def test_claim_pairing_rule():
    parent = _runs([10.0 + 0.01 * i for i in range(10)])
    # Alternate which side runs first: odd pairs start the change earlier.
    change = [dict(run, started_at=run["started_at"] + (0.5 if i % 2 == 0
                                                        else -1.5))
              for i, run in enumerate(_runs([8.0] * 10))]
    met, why = compare.claim(parent, change, "query_p50_ms", "w", "lower")
    assert met, why
    met, _ = compare.claim(parent[:9], change[:9], "query_p50_ms", "w",
                           "lower")
    assert not met
    same_order = _runs([8.0] * 10, start=0.5)
    met, why = compare.claim(parent, same_order, "query_p50_ms", "w", "lower")
    assert not met and "alternate" in why


def test_refuses_non_default_invalid_and_failing_runs(tmp_path, capsys):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({
        "workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [{"name": "query_p50_ms", "unit": "ms",
                        "better": "lower", "bound": 0.1}]}))
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text("".join(json.dumps(r) + "\n" for r in _runs([1.0, 1.0])))
    runs = _runs([1.0, 1.0, 1.0])
    runs[0]["comparable"] = False
    runs[1]["valid"] = False
    runs[2]["details"] = {"correct": False, "attempted": 100, "failed": 3}
    bad.write_text("".join(json.dumps(r) + "\n" for r in runs))
    assert compare.main([str(good), str(bad)], benchmark) == 2
    out = capsys.readouterr().out
    assert "default duration" in out and "start lag" in out
    assert "failed 3 of 100" in out
    assert compare.main([str(good), str(good)], benchmark) == 0
    # A faster change that fails operations claims nothing.
    failing = [dict(run, details={"correct": False, "attempted": 100,
                                  "failed": 1}) for run in _runs([0.5] * 2)]
    bad.write_text("".join(json.dumps(r) + "\n" for r in failing))
    assert compare.main([str(good), str(bad), "--claim", "query_p50_ms@w"],
                        benchmark) == 2
