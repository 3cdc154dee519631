"""Command-line interface: build, merge, and query moments sketches.

Mirrors how the sketch would be operated from shell pipelines or cron
jobs around an analytics engine:

    python -m repro sketch build data.csv -o shard.msk --k 10
    python -m repro sketch merge shard1.msk shard2.msk -o total.msk
    python -m repro sketch query total.msk --q 0.5 0.9 0.99
    python -m repro sketch query total.msk --spec '{"kind": "quantile", "quantiles": [0.5, 0.99], "report_bounds": true}'
    python -m repro sketch threshold total.msk --t 100 --q 0.99
    python -m repro sketch bounds total.msk --t 100
    python -m repro sketch info total.msk
    python -m repro ingest rows.csv --spec '{"backend": "cube", "dimensions": ["service"]}' --query '{"kind": "quantile", "quantiles": [0.99]}'
    python -m repro datasets list
    python -m repro datasets stats milan --rows 100000

The ``query``/``threshold``/``bounds`` commands execute through the
unified query API (:mod:`repro.api`): pass ``--spec`` with a
:class:`~repro.api.QuerySpec` JSON document to run any spec against the
sketch and emit the full :class:`~repro.api.QueryResponse` JSON;
without ``--spec`` the flag-based invocations build the equivalent spec
and emit the historical compact output.  ``--spec`` replaces ``--q`` and
``--t``; passing either beside it is a usage error (exit 2).

Input files are one float per line (CSV with a single column); sketch
files use the library's binary serialization.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .api import QueryService, QuerySpec, SummariesBackend, qkey
from .core import (ConvergenceError, IngestError, MomentsSketch,
                   QuantileEstimator, QueryError, TelemetryError, merge_all)
from .datasets import available, load, spec, summary_statistics
from .summaries.moments_summary import MomentsSummary


def _read_values(path: str) -> np.ndarray:
    """Load one-float-per-line data (use '-' for stdin)."""
    stream = sys.stdin if path == "-" else open(path, "r", encoding="utf-8")
    try:
        values = np.loadtxt(stream, dtype=float, ndmin=1)
    finally:
        if stream is not sys.stdin:
            stream.close()
    return values


def _load_sketch(path: str) -> MomentsSketch:
    return MomentsSketch.from_bytes(Path(path).read_bytes())


def _sketch_service(sketch: MomentsSketch) -> QueryService:
    """A single-sketch query service (the CLI's one-cell backend)."""
    summary = MomentsSummary(k=sketch.k, track_log=sketch.track_log)
    summary.sketch = sketch
    return QueryService(sketch=SummariesBackend([summary]))


# ----------------------------------------------------------------------
# Subcommand handlers (each returns a JSON-serializable result)
# ----------------------------------------------------------------------

def cmd_build(args: argparse.Namespace) -> dict:
    values = _read_values(args.input)
    sketch = MomentsSketch.from_data(values, k=args.k,
                                     track_log=not args.no_log)
    Path(args.output).write_bytes(sketch.to_bytes())
    return {"output": args.output, "count": sketch.count,
            "min": sketch.min, "max": sketch.max,
            "size_bytes": sketch.size_bytes()}


def cmd_merge(args: argparse.Namespace) -> dict:
    sketches = [_load_sketch(path) for path in args.inputs]
    merged = merge_all(sketches)
    Path(args.output).write_bytes(merged.to_bytes())
    return {"output": args.output, "merged": len(sketches),
            "count": merged.count}


def cmd_query(args: argparse.Namespace) -> dict:
    sketch = _load_sketch(args.sketch)
    service = _sketch_service(sketch)
    if args.spec:
        return service.execute(QuerySpec.from_json(args.spec)).to_dict()
    qs = args.q or [0.5, 0.99]
    response = service.execute(QuerySpec(kind="quantile", quantiles=qs))
    return {"count": sketch.count,
            "quantiles": {qkey(q): float(response.estimates[qkey(q)])
                          for q in qs}}


def cmd_threshold(args: argparse.Namespace) -> dict:
    sketch = _load_sketch(args.sketch)
    service = _sketch_service(sketch)
    if args.spec:
        return service.execute(QuerySpec.from_json(args.spec)).to_dict()
    if args.t is None:
        raise QueryError("--t is required without --spec")
    q = 0.99 if args.q is None else args.q
    response = service.execute(QuerySpec(kind="threshold_count",
                                         thresholds=(args.t,),
                                         quantiles=(q,)))
    outcome = response.groups["*"][qkey(args.t)]
    return {"q": q, "threshold": args.t,
            "exceeds": outcome["exceeds"], "decided_by": outcome["stage"],
            "solve_route": response.timings.solve_route,
            "solve_seconds": response.timings.solve_seconds}


def cmd_info(args: argparse.Namespace) -> dict:
    sketch = _load_sketch(args.sketch)
    info = {"k": sketch.k, "count": sketch.count, "min": sketch.min,
            "max": sketch.max, "size_bytes": sketch.size_bytes(),
            "log_moments": sketch.has_log_moments}
    if not sketch.is_empty and sketch.max > sketch.min:
        try:
            estimator = QuantileEstimator.fit(sketch, allow_backoff=True)
            if estimator.selection is not None:
                info["selected_k1"] = estimator.selection.k1
                info["selected_k2"] = estimator.selection.k2
        except ConvergenceError:
            info["estimation"] = "non-convergent (near-discrete data)"
    return info


def cmd_bounds(args: argparse.Namespace) -> dict:
    sketch = _load_sketch(args.sketch)
    service = _sketch_service(sketch)
    if args.spec:
        return service.execute(QuerySpec.from_json(args.spec)).to_dict()
    if args.t is None:
        raise QueryError("--t is required without --spec")
    response = service.execute(QuerySpec(kind="cdf", thresholds=(args.t,),
                                         report_bounds=True))
    bounds = response.bounds[qkey(args.t)]
    return {"t": args.t, "count": sketch.count,
            "markov": bounds["markov"], "rtt": bounds["rtt"]}


def cmd_datasets_list(args: argparse.Namespace) -> dict:
    return {"datasets": sorted(available())}


def cmd_datasets_stats(args: argparse.Namespace) -> dict:
    data = np.asarray(load(args.name, n=args.rows, seed=args.seed))
    stats = summary_statistics(data)
    published = spec(args.name)
    return {"dataset": args.name, "generated": stats,
            "paper": {"size": published.paper_size, "min": published.paper_min,
                      "max": published.paper_max, "mean": published.paper_mean,
                      "stddev": published.paper_stddev,
                      "skew": published.paper_skew}}


def cmd_datasets_generate(args: argparse.Namespace) -> dict:
    data = np.asarray(load(args.name, n=args.rows, seed=args.seed))
    np.savetxt(args.output, data)
    return {"output": args.output, "rows": int(data.size)}


def _read_ingest_columns(path: str, fmt: str, dimensions: tuple[str, ...]
                         ) -> tuple[list, list[list], list | None]:
    """Parse CSV (with header) or JSONL rows into ingest columns.

    Every row needs the spec's dimension columns plus ``value``;
    ``timestamp`` is optional (required by time-bucketed backends).
    """
    if fmt == "auto":
        fmt = ("jsonl" if path.endswith((".jsonl", ".ndjson")) else "csv")
    stream = sys.stdin if path == "-" else open(path, "r", encoding="utf-8")
    try:
        if fmt == "jsonl":
            rows = [json.loads(line) for line in stream if line.strip()]
        else:
            rows = list(csv.DictReader(stream))
    finally:
        if stream is not sys.stdin:
            stream.close()
    if not rows:
        raise IngestError(f"no rows in {path}")
    missing = [c for c in (*dimensions, "value") if c not in rows[0]]
    if missing:
        raise IngestError(f"input is missing columns {missing}; "
                          f"have {sorted(rows[0])}")
    with_time = "timestamp" in rows[0]
    try:
        values = [float(row["value"]) for row in rows]
        dims = [[row[d] for row in rows] for d in dimensions]
        timestamps = ([float(row["timestamp"]) for row in rows]
                      if with_time else None)
    except KeyError as exc:
        raise IngestError(f"a row is missing column {exc}") from None
    except (TypeError, ValueError) as exc:
        raise IngestError(f"bad numeric value in input: {exc}") from None
    return values, dims, timestamps


def cmd_ingest(args: argparse.Namespace) -> dict:
    """Unified ingestion: rows from a file into a spec-built backend.

    Builds the target engine named by the :class:`~repro.ingest.IngestSpec`,
    streams the rows through an :class:`~repro.ingest.IngestSession`
    (micro-batched at the spec's flush triggers), and optionally runs a
    :class:`~repro.api.QuerySpec` against the freshly written backend —
    the whole write+read loop from one shell command.
    """
    from .ingest import IngestSession, IngestSpec, build_target

    spec = IngestSpec.from_json(args.spec)
    if spec.backend is None:
        raise IngestError("--spec needs a 'backend' field "
                          "(cube/druid/packed/window/cluster)")
    values, dims, timestamps = _read_ingest_columns(
        args.input, args.format, spec.dimensions)
    target = build_target(spec)
    chunk = spec.flush_rows or len(values)
    with IngestSession(target, spec) as session:
        for start in range(0, len(values), chunk):
            stop = start + chunk
            session.append_columns(
                values[start:stop],
                dims=[column[start:stop] for column in dims],
                timestamps=(timestamps[start:stop]
                            if timestamps is not None else None))
    result = {"backend": session.backend.name, "rows": session.total_rows,
              "cells": session.total_cells,
              "flushes": len(session.reports),
              "reports": [report.to_dict() for report in session.reports]}
    if args.query:
        response = session.query_service().execute(
            QuerySpec.from_json(args.query))
        result["query"] = response.to_dict()
    return result


def cmd_telemetry_dump(args: argparse.Namespace) -> dict:
    """Re-render a metrics dump as JSON or Prometheus text."""
    from .telemetry import load_metrics, render_prometheus

    payload = load_metrics(args.metrics)
    series = sum(len(payload.get(kind, []))
                 for kind in ("counters", "gauges", "histograms"))
    if args.format == "prometheus":
        # Prometheus exposition is line-oriented text, not a JSON doc —
        # print it directly and hand main() a tiny summary envelope.
        print(render_prometheus(payload), end="")
        return {"format": "prometheus", "series": series}
    return {"format": "json", "series": series, "metrics": payload}


def cmd_telemetry_top(args: argparse.Namespace) -> dict:
    """Rank histogram series from a metrics dump by a latency quantile."""
    from .telemetry import LogHistogram, MetricsRegistry, load_metrics

    registry = MetricsRegistry.from_dict(load_metrics(args.metrics))
    rows = []
    for name, labels, metric in registry.items():
        if not isinstance(metric, LogHistogram) or metric.count == 0:
            continue
        if args.name and name != args.name:
            continue
        p50, p99 = metric.quantiles([0.5, 0.99])
        rows.append({"name": name, "labels": dict(labels),
                     "count": metric.count,
                     "p50": p50, "p99": p99,
                     "rank_by": metric.quantile(args.quantile)})
    rows.sort(key=lambda row: row["rank_by"], reverse=True)
    for row in rows:
        row[f"p{args.quantile * 100:g}"] = row.pop("rank_by")
    return {"quantile": args.quantile, "series": rows[:args.limit]}


def cmd_telemetry_trace(args: argparse.Namespace) -> dict:
    """Render one trace tree from a ``spans.jsonl`` export."""
    from .telemetry import build_trace_tree, render_trace_tree

    spans = []
    with open(args.spans, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    if not spans:
        raise TelemetryError(f"no spans in {args.spans}")
    trace_id = args.trace_id
    if trace_id is None:
        # Default to the trace owning the longest root span — the
        # most interesting one in a slow-query investigation.
        roots = [s for s in spans if not s.get("parent_id")]
        pick = max(roots or spans,
                   key=lambda s: s.get("duration_seconds") or 0.0)
        trace_id = pick["trace_id"]
    selected = [s for s in spans if s["trace_id"] == trace_id]
    if not selected:
        traces = len({s["trace_id"] for s in spans})
        raise TelemetryError(
            f"trace {trace_id!r} not found among the {traces} traces "
            f"in {args.spans}")
    roots = build_trace_tree(selected)
    print("\n".join(render_trace_tree(selected)))
    return {"trace_id": trace_id, "spans": len(selected),
            "roots": len(roots)}


def _positive_int(text: str) -> int:
    """argparse type: a count of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _unit_float(text: str) -> float:
    """argparse type: a quantile in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _load_json_document(path: str) -> dict:
    """Read one JSON document (a dict) from ``path``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return payload


def cmd_optimizer_advise(args: argparse.Namespace) -> dict:
    """Offline caching advice from a telemetry metrics dump.

    Reads the ``scan_signature_{hits,misses}_total`` counters of a
    ``metrics.json`` dump and ranks the backends where the optimizer's
    scan cache would reclaim the most scans.
    """
    from .optimizer import rank_metrics

    payload = _load_json_document(args.source)
    if "counters" in payload or "metrics" in payload:
        return {"source": args.source,
                "advice": rank_metrics(payload, top=args.top)}
    raise ValueError(
        f"{args.source} is not a telemetry metrics dump (counters)")


def cmd_optimizer_stats(args: argparse.Namespace) -> dict:
    """Show an ``Optimizer.stats()`` dump (the scan cache's counters)."""
    payload = _load_json_document(args.source)
    if "cache" in payload:
        return {"source": args.source, "optimizer": payload}
    raise ValueError(
        f"{args.source} carries no optimizer stats (expected an "
        "Optimizer.stats() dump)")


def cmd_storage_inspect(args: argparse.Namespace) -> dict:
    """Dump one segment file's footer, keys, and per-tier geometry."""
    from .storage import open_segment

    reader = open_segment(args.segment, verify=not args.no_verify)
    try:
        info = {
            "path": args.segment,
            "kind": "cold" if reader.kind else "warm",
            "k": reader.k,
            "rows": reader.rows,
            "track_log": reader.track_log,
            "keeps_log": reader.keeps_log,
            "size_bytes": reader.size_bytes,
            "min_key": reader.min_key,
            "max_key": reader.max_key,
            "total_count": int(reader.counts.sum()),
            "codec": reader.codec.to_dict() if reader.codec else None,
        }
        if args.keys:
            info["keys"] = [list(key) for key in reader.keys]
        return info
    finally:
        reader.close()


def cmd_storage_compact(args: argparse.Namespace) -> dict:
    """Open a tiered store directory and compact it until stable."""
    from .storage import ColdSpec, CompactionPolicy, Compactor, TieredStore

    policy = CompactionPolicy(size_ratio=args.size_ratio,
                              min_run=args.min_run, max_run=args.max_run)
    with TieredStore(args.directory) as store:
        before = store.stats()
        compactor = Compactor(store, policy=policy)
        rounds = compactor.run_until_stable(max_rounds=args.max_rounds)
        if args.demote_cold:
            store.demote(count=len(before["segments"]), spec=ColdSpec())
        after = store.stats()
    return {"directory": args.directory, "rounds": rounds,
            "segments_before": len(before["segments"]),
            "segments_after": len(after["segments"]),
            "rows_before": sum(s["rows"] for s in before["segments"]),
            "rows_after": sum(s["rows"] for s in after["segments"]),
            "disk_bytes_before": before["warm_bytes"] + before["cold_bytes"],
            "disk_bytes_after": after["warm_bytes"] + after["cold_bytes"],
            "segments": after["segments"]}


def cmd_cluster_demo(args: argparse.Namespace) -> dict:
    """Build a simulated cluster, query it, kill a node, query again.

    The single-process Druid reference ingests the same rows with
    shard-aligned time chunks, so its per-segment fold matches the
    broker's per-shard fold and the comparison is bit-exact.
    """
    from .api import as_backend
    from .cluster import ClusterCoordinator, timings_breakdown
    from .druid import DruidEngine, MomentsSketchAggregator

    qs = args.q or [0.5, 0.99]
    rng = np.random.default_rng(args.seed)
    values = rng.lognormal(1.0, 1.0, args.rows)
    cells = (np.arange(args.rows) % args.cells).astype(int)

    aggregators = {"value": MomentsSketchAggregator(k=10)}
    cluster = ClusterCoordinator(
        dimensions=("cell",), aggregators=aggregators,
        num_shards=args.shards, replication=args.replication,
        granularity=1.0, nodes=[f"node-{i}" for i in range(args.nodes)])
    timestamps = cluster.shard_ids([cells]).astype(float)
    cluster.ingest(timestamps, [cells], values)

    reference = DruidEngine(dimensions=("cell",), aggregators=aggregators,
                            granularity=1.0)
    reference.ingest(timestamps, [cells], values)

    backend = as_backend(cluster, threads=args.threads)
    service = QueryService(cluster=backend, druid=reference)
    spec = QuerySpec(kind="quantile", quantiles=tuple(qs),
                     report_moments=True)
    before = service.execute(spec, backend="cluster")
    single = service.execute(spec, backend="druid")

    victim = args.kill or f"node-{args.nodes - 1}"
    cluster.fail_node(victim, repair=not args.no_repair)
    after = service.execute(spec, backend="cluster")

    status = cluster.status()
    return {
        "topology": {"nodes": args.nodes, "shards": args.shards,
                     "replication": args.replication,
                     "cells": cluster.num_cells,
                     "live_nodes": list(cluster.live_nodes)},
        "quantiles": {qkey(q): float(before.estimates[qkey(q)]) for q in qs},
        "matches_single_process": before.estimates == single.estimates
        and before.moments == single.moments,
        "timings": timings_breakdown(backend,
                                     solve_seconds=after.timings.solve_seconds),
        "failover": {
            "killed": victim,
            "repaired": not args.no_repair,
            "answers_unchanged": after.estimates == before.estimates
            and after.moments == before.moments,
            "rebalance": (
                {"copied_shards": cluster.last_rebalance.copied_shards,
                 "bytes_copied": cluster.last_rebalance.bytes_copied}
                if not args.no_repair and cluster.last_rebalance else None),
        },
        "status": status.to_dict(),
    }


def cmd_cluster_placement(args: argparse.Namespace) -> dict:
    """Show consistent-hash shard placement and the cost of one node add."""
    from .cluster import HashRing

    node_ids = [f"node-{i}" for i in range(args.nodes)]
    ring = HashRing(nodes=node_ids, replication=args.replication,
                    vnodes=args.vnodes)
    before = ring.placement(args.shards)
    primaries: dict[str, int] = {node_id: 0 for node_id in node_ids}
    for owners in before.values():
        primaries[owners[0]] += 1
    ring.add_node(f"node-{args.nodes}")
    moved = HashRing.moved_shards(before, ring.placement(args.shards))
    return {"nodes": args.nodes, "shards": args.shards,
            "replication": args.replication, "vnodes": args.vnodes,
            "primary_shards_per_node": primaries,
            "moved_on_one_node_add": len(moved),
            "moved_fraction": len(moved) / args.shards,
            "ideal_fraction": args.replication / (args.nodes + 1)}


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def cmd_analysis_lint(args) -> dict:
    """Run the repo-invariant static analyzers; exits 1 on new findings.

    Unlike the other handlers this one prints its own report (text or
    JSON) and raises ``SystemExit`` directly: lint is a pass/fail
    gate, and its exit code must reflect the findings, not whether the
    handler itself ran cleanly.
    """
    from .analysis import (all_rules, analyze_paths, apply_baseline,
                           load_baseline, save_baseline)

    if args.rules:
        catalogue = {spec.rule: spec.summary for spec in all_rules()}
        print(json.dumps({"rules": catalogue}, indent=2))
        raise SystemExit(0)

    findings, files = analyze_paths(args.paths or ["src"])
    if args.update_baseline:
        if not args.baseline:
            print(json.dumps(
                {"error": "--update-baseline requires --baseline PATH"}))
            raise SystemExit(2)
        save_baseline(args.baseline, findings)
        print(json.dumps({"baseline": str(args.baseline),
                          "accepted": len(findings)}))
        raise SystemExit(0)
    suppressed = 0
    if args.baseline:
        findings, suppressed = apply_baseline(findings,
                                              load_baseline(args.baseline))

    document = {
        "files_checked": files,
        "findings": [finding.to_dict() for finding in findings],
        "suppressed_by_baseline": suppressed,
    }
    if args.output:
        Path(args.output).write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf-8")
    if args.format == "json":
        print(json.dumps(document, indent=2))
    else:
        for finding in findings:
            print(finding.format())
        summary = (f"{len(findings)} finding(s) in {files} file(s)"
                   + (f", {suppressed} baselined" if suppressed else ""))
        print(summary)
    raise SystemExit(1 if findings else 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Moments sketch toolkit (VLDB 2018 reproduction)")
    subcommands = parser.add_subparsers(dest="command", required=True)

    sketch = subcommands.add_parser("sketch", help="sketch operations")
    sketch_sub = sketch.add_subparsers(dest="action", required=True)

    build = sketch_sub.add_parser("build", help="build a sketch from values")
    build.add_argument("input", help="value file, one float per line ('-' = stdin)")
    build.add_argument("-o", "--output", required=True)
    build.add_argument("--k", type=int, default=10, help="moment order")
    build.add_argument("--no-log", action="store_true",
                       help="skip log moments (halves the footprint)")
    build.set_defaults(handler=cmd_build)

    merge = sketch_sub.add_parser("merge", help="merge sketch files")
    merge.add_argument("inputs", nargs="+")
    merge.add_argument("-o", "--output", required=True)
    merge.set_defaults(handler=cmd_merge)

    query = sketch_sub.add_parser("query", help="estimate quantiles")
    query.add_argument("sketch")
    query.add_argument("--q", type=float, nargs="+", default=None,
                       help="target quantile fractions (default 0.5 0.99)")
    query.add_argument("--spec", default=None,
                       help="QuerySpec JSON; emits the full QueryResponse")
    query.set_defaults(handler=cmd_query)

    threshold = sketch_sub.add_parser("threshold",
                                      help="cascade threshold predicate")
    threshold.add_argument("sketch")
    threshold.add_argument("--t", type=float, default=None,
                           help="threshold (required without --spec)")
    threshold.add_argument("--q", type=float, default=None,
                           help="quantile fraction (default 0.99)")
    threshold.add_argument("--spec", default=None,
                           help="QuerySpec JSON; emits the full QueryResponse")
    threshold.set_defaults(handler=cmd_threshold)

    info = sketch_sub.add_parser("info", help="inspect a sketch file")
    info.add_argument("sketch")
    info.set_defaults(handler=cmd_info)

    bounds = sketch_sub.add_parser("bounds", help="rank bounds at a point")
    bounds.add_argument("sketch")
    bounds.add_argument("--t", type=float, default=None,
                        help="threshold (required without --spec)")
    bounds.add_argument("--spec", default=None,
                        help="QuerySpec JSON; emits the full QueryResponse")
    bounds.set_defaults(handler=cmd_bounds)

    ingest = subcommands.add_parser(
        "ingest", help="unified ingestion: CSV/JSONL rows -> any write backend")
    ingest.add_argument("input",
                        help="row file ('-' = stdin); CSV needs a header "
                             "with the spec's dimensions plus 'value' "
                             "(and 'timestamp' for druid/cluster)")
    ingest.add_argument("--spec", required=True,
                        help="IngestSpec JSON; must name a 'backend'")
    ingest.add_argument("--format", choices=("auto", "csv", "jsonl"),
                        default="auto",
                        help="input format (auto: by file extension)")
    ingest.add_argument("--query", default=None,
                        help="QuerySpec JSON to run against the freshly "
                             "ingested backend")
    ingest.set_defaults(handler=cmd_ingest)

    cluster = subcommands.add_parser(
        "cluster", help="simulated scatter-gather cluster (repro.cluster)")
    cluster_sub = cluster.add_subparsers(dest="action", required=True)

    demo = cluster_sub.add_parser(
        "demo", help="ingest, query, kill a node, verify identical answers")
    demo.add_argument("--nodes", type=int, default=4)
    demo.add_argument("--shards", type=int, default=32)
    demo.add_argument("--replication", type=int, default=2)
    demo.add_argument("--rows", type=int, default=50_000)
    demo.add_argument("--cells", type=int, default=200,
                      help="distinct dimension values (cluster cells)")
    demo.add_argument("--threads", type=int, default=4,
                      help="broker fan-out threads")
    demo.add_argument("--q", type=float, nargs="+", default=None,
                      help="target quantile fractions (default 0.5 0.99)")
    demo.add_argument("--kill", default=None,
                      help="node id to fail (default: the last node)")
    demo.add_argument("--no-repair", action="store_true",
                      help="serve degraded instead of re-replicating")
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(handler=cmd_cluster_demo)

    placement = cluster_sub.add_parser(
        "placement", help="inspect consistent-hash shard placement")
    placement.add_argument("--nodes", type=int, default=4)
    placement.add_argument("--shards", type=int, default=64)
    placement.add_argument("--replication", type=int, default=2)
    placement.add_argument("--vnodes", type=int, default=64)
    placement.set_defaults(handler=cmd_cluster_placement)

    storage = subcommands.add_parser(
        "storage", help="persistent tiered sketch storage (repro.storage)")
    storage_sub = storage.add_subparsers(dest="action", required=True)

    inspect = storage_sub.add_parser(
        "inspect", help="dump a segment file's footer and geometry")
    inspect.add_argument("segment", help="path to a .rsg segment file")
    inspect.add_argument("--keys", action="store_true",
                         help="include the full sorted key list")
    inspect.add_argument("--no-verify", action="store_true",
                         help="skip the body checksum (faster on huge files)")
    inspect.set_defaults(handler=cmd_storage_inspect)

    compact = storage_sub.add_parser(
        "compact", help="run leveled compaction on a tiered store directory")
    compact.add_argument("directory", help="TieredStore home directory")
    compact.add_argument("--size-ratio", type=float, default=4.0,
                         help="rows-per-level fanout of the leveled policy")
    compact.add_argument("--min-run", type=int, default=2,
                         help="smallest same-level run worth merging")
    compact.add_argument("--max-run", type=int, default=8,
                         help="largest run merged in one pass")
    compact.add_argument("--max-rounds", type=int, default=64,
                         help="safety cap on compaction rounds")
    compact.add_argument("--demote-cold", action="store_true",
                         help="re-encode surviving warm segments with the "
                              "low-precision cold codec afterwards")
    compact.set_defaults(handler=cmd_storage_compact)

    telemetry = subcommands.add_parser(
        "telemetry", help="inspect telemetry dumps (repro.telemetry)")
    telemetry_sub = telemetry.add_subparsers(dest="action", required=True)

    tele_dump = telemetry_sub.add_parser(
        "dump", help="re-render a metrics dump as JSON or Prometheus text")
    tele_dump.add_argument("metrics",
                           help="metrics.json dump (render_json of a "
                                "MetricsRegistry)")
    tele_dump.add_argument("--format", choices=("json", "prometheus"),
                           default="json")
    tele_dump.set_defaults(handler=cmd_telemetry_dump)

    tele_top = telemetry_sub.add_parser(
        "top", help="rank latency histograms from a metrics dump")
    tele_top.add_argument("metrics", help="metrics dump (as for 'dump')")
    tele_top.add_argument("--quantile", type=_unit_float, default=0.99,
                          help="ranking quantile (default p99)")
    tele_top.add_argument("--name", default=None,
                          help="only rank series of this histogram name "
                               "(e.g. query_seconds)")
    tele_top.add_argument("--limit", type=_positive_int, default=10)
    tele_top.set_defaults(handler=cmd_telemetry_top)

    tele_trace = telemetry_sub.add_parser(
        "trace", help="render one trace tree from a spans.jsonl export")
    tele_trace.add_argument("spans", help="spans.jsonl file "
                                          "(Tracer.export_jsonl)")
    tele_trace.add_argument("--trace-id", default=None,
                            help="trace to render (default: the trace of "
                                 "the longest root span)")
    tele_trace.set_defaults(handler=cmd_telemetry_trace)

    optimizer = subcommands.add_parser(
        "optimizer", help="multi-query optimizer tooling (repro.optimizer)")
    optimizer_sub = optimizer.add_subparsers(dest="action", required=True)

    opt_advise = optimizer_sub.add_parser(
        "advise", help="rank the backends whose repeated scans the "
                       "optimizer would cache, from a telemetry metrics "
                       "dump")
    opt_advise.add_argument("source", help="metrics.json dump")
    opt_advise.add_argument("--top", type=_positive_int, default=5,
                            help="number of recommendations (default 5)")
    opt_advise.set_defaults(handler=cmd_optimizer_advise)

    opt_stats = optimizer_sub.add_parser(
        "stats", help="show an Optimizer.stats() dump (scan cache "
                      "hits, misses, bytes, evictions)")
    opt_stats.add_argument("source", help="Optimizer.stats() JSON")
    opt_stats.set_defaults(handler=cmd_optimizer_stats)

    analysis = subcommands.add_parser(
        "analysis", help="repo-invariant static analysis")
    analysis_sub = analysis.add_subparsers(dest="action", required=True)

    lint = analysis_sub.add_parser(
        "lint", help="check lock/determinism/telemetry/API invariants")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to check (default: src)")
    lint.add_argument("--baseline", default=None,
                      help="baseline file of accepted legacy findings")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite --baseline with the current findings")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format (default: text)")
    lint.add_argument("--output", default=None,
                      help="also write the JSON report to this path "
                           "(CI artifact)")
    lint.add_argument("--rules", action="store_true",
                      help="list the rule catalogue and exit")
    lint.set_defaults(handler=cmd_analysis_lint)

    datasets = subcommands.add_parser("datasets",
                                      help="synthetic evaluation datasets")
    datasets_sub = datasets.add_subparsers(dest="action", required=True)

    ds_list = datasets_sub.add_parser("list")
    ds_list.set_defaults(handler=cmd_datasets_list)

    ds_stats = datasets_sub.add_parser("stats")
    ds_stats.add_argument("name")
    ds_stats.add_argument("--rows", type=int, default=100_000)
    ds_stats.add_argument("--seed", type=int, default=0)
    ds_stats.set_defaults(handler=cmd_datasets_stats)

    ds_generate = datasets_sub.add_parser("generate")
    ds_generate.add_argument("name")
    ds_generate.add_argument("-o", "--output", required=True)
    ds_generate.add_argument("--rows", type=int, default=100_000)
    ds_generate.add_argument("--seed", type=int, default=0)
    ds_generate.set_defaults(handler=cmd_datasets_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; prints one JSON document and returns an exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.handler in (cmd_query, cmd_threshold, cmd_bounds) and args.spec \
            and (getattr(args, "q", None) is not None
                 or getattr(args, "t", None) is not None):
        parser.error("--spec replaces --q/--t; pass one or the other")
    try:
        result = args.handler(args)
    except FileNotFoundError as exc:
        print(json.dumps({"error": f"file not found: {exc.filename}"}))
        return 2
    except Exception as exc:  # surfaced as structured output, not traceback
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(result, indent=2, default=float))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
