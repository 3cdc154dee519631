"""Telemetry monitoring on a Druid-like engine (the Section 1 scenario).

Simulates the paper's motivating deployment: devices streaming latency
telemetry tagged with country, app version, and OS; an ingestion layer
rolling rows up into a time x dimensions cube of moments sketches; and an
analyst issuing percentile aggregations across slices ("p99 latency for
version v8 in the US over the last day"), each answered by merging
thousands of pre-aggregated cells.

Run:  python examples/telemetry_cube.py
"""

import time

import numpy as np

from repro.api import QueryService, QuerySpec, qkey
from repro.druid import DruidEngine, registry

MEASURE = "momentsSketch@10"
P99 = qkey(0.99)


def simulate_telemetry(n: int, seed: int = 0):
    """Latency rows with realistic structure: versions differ in speed."""
    rng = np.random.default_rng(seed)
    timestamps = rng.uniform(0, 3 * 24 * 3600, n)          # three days
    country = rng.choice(["US", "CA", "MX"], n, p=[0.6, 0.25, 0.15])
    version = rng.choice(["v7", "v8"], n, p=[0.7, 0.3])
    os_name = rng.choice(["ios16", "ios17", "android14"], n)
    base = rng.lognormal(3.0, 0.9, n)
    # v8 regressed tail latency on one OS: the needle to find.
    slow = (version == "v8") & (os_name == "ios17")
    base[slow] *= 6.0
    return timestamps, [country, version, os_name], base


def main() -> None:
    n = 400_000
    timestamps, dims, latencies = simulate_telemetry(n)

    engine = DruidEngine(
        dimensions=("country", "version", "os"),
        aggregators=registry(moment_orders=(10,), histogram_bins=(100,)),
        granularity=3600.0,          # hourly segments
        processing_threads=2,
    )
    start = time.perf_counter()
    engine.ingest(timestamps, dims, latencies)
    print(f"ingested {n} rows into {engine.num_cells} cube cells "
          f"in {time.perf_counter() - start:.2f}s")

    service = QueryService(druid=engine)

    # Global p99 across every cell.
    result = service.execute(QuerySpec(kind="quantile", quantiles=(0.99,),
                                       measure=MEASURE))
    print(f"\nglobal p99: {result.value:.1f}  "
          f"({result.cells_scanned} cells merged in "
          f"{result.timings.merge_seconds * 1e3:.1f} ms, estimate in "
          f"{result.timings.solve_seconds * 1e3:.1f} ms)")

    # Drill-down: p99 per app version (a groupBy over merged sketches).
    print("\np99 by version:")
    by_version = service.execute(QuerySpec(
        kind="group_by", quantiles=(0.99,), measure=MEASURE,
        group_dimension="version"))
    for version, estimates in sorted(by_version.groups.items()):
        print(f"  {version}: {estimates[P99]:10.1f}")

    # Slice: where did v8 regress?  p99 by OS, filtered to v8.
    print("\np99 by OS for version v8:")
    by_os = service.execute(QuerySpec(
        kind="group_by", quantiles=(0.99,), measure=MEASURE,
        group_dimension="os", filters={"version": "v8"}))
    for os_name, estimates in sorted(by_os.groups.items()):
        value = estimates[P99]
        marker = "  <-- regression" if value > 500 else ""
        print(f"  {os_name}: {value:10.1f}{marker}")

    # Time-windowed query: last 24 hours only.
    last_day = service.execute(QuerySpec(
        kind="quantile", quantiles=(0.99,), measure=MEASURE,
        interval=(2 * 24 * 3600.0, 3 * 24 * 3600.0)))
    print(f"\np99 over the last day: {last_day.value:.1f} "
          f"({last_day.cells_scanned} cells)")


if __name__ == "__main__":
    main()
