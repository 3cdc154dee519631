"""Compare a parent's runs with a change's runs under BENCHMARK.json bounds.

    python3 bench/run.py compare PARENT.jsonl CHANGE.jsonl [--claim M@W ...]

Each file holds run records written by ``run.py --out``.  For every
(end-to-end metric, workload) the comparator prints one row:

* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — either side's run-to-run spread (interquartile range
  over median) is wider than the bound and the change's runs do not all
  read better than every parent run;
* ``unchanged`` — otherwise.

A ``--claim metric@workload`` applies the pairing rule: at least 10
pairs of runs that alternate which side ran first, the change winning at
least 9 in 10 (ties count for neither), and a gap between the medians
wider than the parent's interquartile range.  Runs with a non-default
duration, an invalid driver start lag or a failed operation are refused:
a gain does not count when more operations fail than at the parent, and
no operation of these workloads fails on a correct program.  Exits 1 on
a regression or an unmet claim, 2 on refused runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> list[dict]:
    with open(path) as stream:
        return [json.loads(line) for line in stream if line.strip()]


def _refusals(runs: list[dict], label: str) -> list[str]:
    out = []
    for run in runs:
        if not run.get("comparable", False):
            out.append(f"{label}: {run['workload']} seed {run['seed']} ran "
                       f"{run['seconds']:g} s, not the default duration")
        if not run.get("valid", False):
            out.append(f"{label}: {run['workload']} seed {run['seed']} has "
                       f"an invalid driver start lag")
        details = run.get("details", {})
        if details.get("failed", 1) or not details.get("correct", False):
            out.append(f"{label}: {run['workload']} seed {run['seed']} "
                       f"failed {details.get('failed')} of "
                       f"{details.get('attempted')} operations")
    return out


def _values(runs: list[dict], metric: str, workload: str) -> list[float]:
    return [run["metrics"][metric][0] for run in runs
            if run["workload"] == workload and run["trace"] == 0]


def _spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent: list[float], change: list[float], bound: float,
            better: str) -> str:
    """The row verdict for one (metric, workload)."""
    pm, p1, p3 = _spread(parent)
    cm, c1, c3 = _spread(change)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(_better(c, p, better) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    worse = (cm - pm) if better == "lower" else (pm - cm)
    if pm and worse / abs(pm) > bound:
        return "regression"
    return "unchanged"


def claim(parent_runs: list[dict], change_runs: list[dict], metric: str,
          workload: str, better: str) -> tuple[bool, str]:
    """The pairing rule for a claimed gain on ``metric@workload``."""
    pick = [r for r in parent_runs if r["workload"] == workload
            and r["trace"] == 0]
    mine = [r for r in change_runs if r["workload"] == workload
            and r["trace"] == 0]
    pairs = list(zip(pick, mine))
    if len(pairs) < MIN_PAIRS:
        return False, f"{len(pairs)} pairs, need {MIN_PAIRS}"
    firsts = [p["started_at"] < c["started_at"] for p, c in pairs]
    if any(a == b for a, b in zip(firsts, firsts[1:])):
        return False, "pairs do not alternate which side ran first"
    wins = sum(_better(c["metrics"][metric][0], p["metrics"][metric][0],
                       better) for p, c in pairs)
    pm, p1, p3 = _spread([p["metrics"][metric][0] for p, _ in pairs])
    cm = _spread([c["metrics"][metric][0] for _, c in pairs])[0]
    gap = (pm - cm) if better == "lower" else (cm - pm)
    met = wins >= WIN_SHARE * len(pairs) and gap > p3 - p1
    return met, (f"change won {wins}/{len(pairs)}, median gap {gap:.6g} vs "
                 f"parent IQR {p3 - p1:.6g}")


def main(argv: list[str], benchmark: Path) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)
    config = json.loads(benchmark.read_text())
    metrics = {m["name"]: m for m in config["end_to_end"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    refused = _refusals(parent, "parent") + _refusals(change, "change")
    if refused:
        print("\n".join(refused))
        return 2

    failed = False
    print(f"{'metric':<18} {'workload':<15} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'bound':>6}  verdict")
    for workload in [w["name"] for w in config["workloads"]]:
        for name, spec in metrics.items():
            p, c = _values(parent, name, workload), _values(change, name,
                                                             workload)
            if not p or not c:
                continue
            row = verdict(p, c, spec["bound"], spec["better"])
            failed |= row == "regression"
            pm, p1, p3 = _spread(p)
            cm, c1, c3 = _spread(c)
            delta = (cm - pm) / abs(pm) * 100 if pm else 0.0
            print(f"{name:<18} {workload:<15} "
                  f"{pm:>12.5g} [{p1:>9.5g}, {p3:>9.5g}] "
                  f"{cm:>12.5g} [{c1:>9.5g}, {c3:>9.5g}] "
                  f"{delta:>+7.1f}% {spec['bound'] * 100:>5.0f}%  {row}")
    for text in args.claim:
        metric, _, workload = text.partition("@")
        if metric not in metrics:
            print(f"claim {text}: unknown end-to-end metric")
            failed = True
            continue
        met, why = claim(parent, change, metric, workload,
                         metrics[metric]["better"])
        failed |= not met
        print(f"claim {text}: {'met' if met else 'not met'} ({why})")
    return 1 if failed else 0
