#!/usr/bin/env python3
"""Run the repository benchmark, or compare two sets of recorded runs.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace 0|1] [--out RUNS.jsonl]
    python3 bench/run.py compare PARENT.jsonl CHANGE.jsonl
                         [--claim METRIC@WORKLOAD ...]

Each workload runs in its own subprocess, one after another.  With
``--trace 0`` a run prints every end-to-end metric of BENCHMARK.json,
with ``--trace 1`` every per-layer metric; answers are graded against
exact results after the timed pass either way.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run whose generator fell
behind its own schedule is invalid and exits non-zero without a result.
``--out`` appends the full record of each workload run, which
``compare`` reads.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
#: Per-workload subprocess limit; a run must finish within 180 s.
CHILD_TIMEOUT = 170
EXIT_INVALID = 3


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``, nothing else."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: {ROOT / 'src' / 'repro'} is missing; run the "
                 f"benchmark from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _number(value) -> float | int:
    """JSON-safe number: a failed operation's +inf latency saturates."""
    if isinstance(value, float) and not math.isfinite(value):
        return sys.float_info.max
    return value


def _worker(argv: list[str]) -> None:
    mode, name, seed, seconds = argv
    from bench import driver
    from bench.workloads import WORKLOADS
    workdir = ROOT / ".bench_tmp" / f"run-{name}-{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        run = driver.measure if mode == "measure" else driver.trace
        result = run(WORKLOADS[name], int(seed), float(seconds), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, default=float))


def _run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    mode = "trace" if trace else "measure"
    started = time.time()
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", mode,
         name, str(seed), repr(seconds)],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
    if child.returncode != 0:
        sys.exit(f"bench: workload {name} failed (exit {child.returncode})")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "started_at": started, **result}


def _print_record(record: dict, comparable: bool) -> None:
    details = record["details"]
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"seconds={record['seconds']:g}  trace={record['trace']}  "
          f"comparable={comparable}")
    print(f"   correct={details['correct']}  attempted={details['attempted']}"
          f"  failed={details['failed']}  "
          f"start_lag_p99_us={details['start_lag_p99_us']:.2f}  "
          f"valid={details['valid']}")
    for key in ("queries", "flushes", "query_tail_pct", "query_tail_ms",
                "measured_query_p50_ms", "slowdown_median", "failed_ratio",
                "graded_estimates"):
        if key in details:
            print(f"   {key}={details[key]}")
    for problem in details["problems"]:
        print(f"   problem: {problem}")
    for metric, (value, unit) in record["metrics"].items():
        print(f"   {metric:<34} {value:>14.6g} {unit}")


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        sys.path.insert(0, str(ROOT))
        from bench import compare
        return compare.main(argv[1:], BENCHMARK)
    if argv[:1] == ["--worker"]:
        _bootstrap()
        _worker(argv[1:])
        return 0

    config = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(config["run_seconds"]),
                        help="measured seconds per workload; any other "
                             "value than the default marks the run "
                             "comparable=false")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append each workload's full record (JSON lines)")
    args = parser.parse_args(argv)
    _bootstrap()

    listed = [m["name"] for m in config["per_layer" if args.trace
                                        else "end_to_end"]]
    comparable = args.seconds == float(config["run_seconds"])
    records = []
    try:
        for name in ([args.workload] if args.workload else names):
            record = _run_workload(name, args.seed, args.seconds, args.trace)
            record["comparable"] = comparable
            record["valid"] = record["details"]["valid"]
            if sorted(record["metrics"]) != sorted(listed):
                sys.exit(f"bench: {name} reported metrics that do not match "
                         f"BENCHMARK.json: {sorted(record['metrics'])}")
            records.append(record)
            _print_record(record, comparable)
            if args.out is not None:
                with open(args.out, "a") as stream:
                    stream.write(json.dumps(record, default=float) + "\n")
    finally:
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass
    if not all(record["valid"] for record in records):
        print("bench: invalid run: the generator started events that came "
              "due while it was idle too late (start lag tail)",
              file=sys.stderr)
        return EXIT_INVALID
    print(json.dumps(result_line(records), allow_nan=False))
    return 0


def result_line(records: list[dict]) -> dict:
    """The last output line; several workloads key metrics ``name@workload``."""
    shown = {}
    for record in records:
        suffix = "@" + record["workload"] if len(records) > 1 else ""
        shown.update({name + suffix: {"value": _number(value), "unit": unit}
                      for name, (value, unit) in record["metrics"].items()})
    return {"correct": all(r["details"]["correct"] for r in records),
            "attempted": sum(r["details"]["attempted"] for r in records),
            "failed": sum(r["details"]["failed"] for r in records),
            "metrics": shown}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
