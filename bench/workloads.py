"""The benchmark workloads: seeded inputs, system set-up, one operation.

Everything a run feeds the system is generated here from ``--seed``
before the run starts (open loop: arrival times never depend on how fast
the system answers).  The system under test sees only the generated rows
and :class:`~repro.api.QuerySpec` values, through its public API:
``IngestSpec``/``build_target``/``IngestSession`` for writes,
``QueryService.execute`` for reads and ``Compactor.run_once`` for
scheduled compaction.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import QuerySpec
from repro.datasets import load
from repro.ingest import IngestSession, IngestSpec, build_target

#: Zipf exponent of cell popularity, for rows and for point queries.
ZIPF_S = 1.1
#: Quantile fractions a point or range query asks for (one per query).
QS = (0.5, 0.95, 0.99)
#: Base-value percentiles the threshold queries compare against.
THRESHOLD_PCTS = (50.0, 90.0, 99.0, 99.9)
#: Fraction of chunks (the newest) that druid flushes land in.
NEWEST_CHUNKS = 0.05
#: Range lengths, in chunks, drawn log-uniformly.
RANGE_CHUNKS = (10, 1000)
#: Range queries filtered to one cell pick among this many hottest cells.
HOT_CELLS = 16
#: Base rows a filtered range query must match: on fewer, one row is a
#: rank step near the ε = 0.05 contract, which no sketch can meet.
MIN_RANGE_ROWS = 100

INGEST_OPS = ("flush", "compact")


@dataclass(frozen=True)
class Workload:
    """One traffic mix over one storage layout."""

    name: str
    why: str
    backend: str
    cells: int
    base_rows: int
    #: Poisson arrival rate of all events, per second.
    rate: float
    #: (operation, share of the events) pairs.
    mix: tuple[tuple[str, float], ...]
    flush_rows: int
    #: IngestSpec overrides for the target.
    spec: tuple[tuple[str, object], ...] = ()
    #: Druid time chunks (granularity one second); 0 for untimed layouts.
    chunks: int = 0
    #: Schedule one Compactor.run_once after every this many flushes.
    compact_every: int = 0


#: Each mix keeps the read/write shares the workload was designed with.
#: The rate keeps the system busy at most about 40% of the time: at the
#: design rates of 40/s and 10/s, range-druid and groups-cluster were
#: busy 58% and 46% of the time, and queueing behind other queries made
#: their median response 2.5x and 1.3x their median service time
#: (bench/README.md).
WORKLOADS = {w.name: w for w in (
    Workload(
        name="point-zipf",
        why="Interactive single-cell quantiles on a cube, skewed to hot "
            "cells: the scalar max-entropy fit does nearly all the work.",
        backend="cube", cells=256, base_rows=200_000,
        rate=80.0, mix=(("quantile", 0.9), ("flush", 0.1)), flush_rows=500),
    Workload(
        name="range-druid",
        why="Druid time-range roll-ups over ~55k chunk-cell sketches: "
            "locate and merge grow with the range and queries almost never "
            "repeat.",
        backend="druid", cells=64, base_rows=400_000,
        rate=16.0, mix=(("range", 0.95), ("flush", 0.05)), flush_rows=500,
        spec=(("granularity", 1.0),), chunks=1000),
    Workload(
        name="groups-cluster",
        why="Group scans, top-n and threshold cascades over a 2-node "
            "cluster: the batched solver, bounds and scatter-gather work, "
            "and most queries repeat one since the last flush.",
        backend="cluster", cells=64, base_rows=200_000,
        rate=5.0, mix=(("group_by", 0.35), ("top_n", 0.25),
                       ("threshold", 0.3), ("flush", 0.1)), flush_rows=500,
        spec=(("nodes", 2), ("num_shards", 16), ("replication", 2))),
    Workload(
        name="ingest-tiered",
        why="Writes beside reads on the tiered store: nearly every "
            "flush seals an fsync'd segment and compaction runs every "
            "10 flushes, so write stalls delay the queries queued behind.",
        backend="tiered", cells=256, base_rows=200_000,
        rate=70.0, mix=(("quantile", 0.5), ("flush", 0.5)), flush_rows=1000,
        spec=(("hot_budget_bytes", 16384),), compact_every=10),
)}


@dataclass(frozen=True)
class Event:
    """One scheduled operation; ``at`` is seconds after the pass starts."""

    at: float
    op: str
    spec: QuerySpec | None = None
    flush: int = -1


@dataclass
class Inputs:
    """Rows (ingest order: base rows, then each flush) and schedules."""

    workload: Workload
    cells: np.ndarray
    values: np.ndarray
    timestamps: np.ndarray | None
    #: Unrecorded queries in the ``warmup_seconds`` before the pass.
    warmup: list[Event]
    warmup_seconds: float
    events: list[Event]

    def rows_after(self, flushes: int) -> int:
        """Rows ingested once ``flushes`` measured flushes have landed."""
        return self.workload.base_rows + flushes * self.workload.flush_rows

    def columns(self, lo: int, hi: int) -> dict:
        """append_columns arguments for rows ``[lo, hi)``."""
        return {"values": self.values[lo:hi], "dims": [self.cells[lo:hi]],
                "timestamps": (None if self.timestamps is None
                               else self.timestamps[lo:hi])}


def zipf_weights(n: int, s: float) -> np.ndarray:
    weights = (np.arange(n, dtype=float) + 1.0) ** -s
    return weights / weights.sum()


def _schedule(rate: float, mix, seconds: float,
              rng) -> tuple[np.ndarray, list]:
    """Arrival times and operations: ``rate * share * seconds`` of each op.

    Fixing the count per operation (a Poisson process conditioned on its
    count) keeps the mix identical across seeds; only the order, the
    arrival times and the query targets vary.
    """
    ops = [op for op, share in mix
           for _ in range(round(rate * share * seconds))]
    rng.shuffle(ops)
    return np.sort(rng.uniform(0.0, seconds, len(ops))), ops


class _QueryMaker:
    """Query specs for one op, their parameters stratified over the count.

    Quantile fractions, thresholds, range lengths and which half of the
    range queries is filtered are spread evenly over the queries (in a
    seeded order), so the cost mix of a pass does not depend on the
    seed; cells, range positions and arrival order do.
    """

    def __init__(self, workload: Workload, cells: np.ndarray,
                 values: np.ndarray, timestamps: np.ndarray | None):
        w = workload
        self.workload = w
        self.weights = zipf_weights(w.cells, ZIPF_S)
        self.thresholds = tuple(float(t) for t in np.percentile(
            values[:w.base_rows], THRESHOLD_PCTS))
        if w.chunks:
            # Cumulative base rows per (chunk, cell), to place filtered
            # range queries where they match enough rows.
            counts = np.zeros((w.chunks + 1, w.cells), dtype=np.int64)
            np.add.at(counts,
                      (np.floor(timestamps[:w.base_rows]).astype(int) + 1,
                       cells[:w.base_rows]), 1)
            self.cumulative = np.cumsum(counts, axis=0)

    def make(self, op: str, count: int, rng) -> list[QuerySpec]:
        w = self.workload
        if op == "quantile":
            q = rng.permutation(count) % len(QS)
            cells = rng.choice(w.cells, size=count, p=self.weights)
            return [QuerySpec(kind="quantile", quantiles=(QS[i],),
                              filters={"cell": int(cell)})
                    for i, cell in zip(q, cells)]
        if op == "range":
            q = rng.permutation(count) % len(QS)
            filtered = rng.permutation(count) % 2 == 0
            lo, hi = np.log(RANGE_CHUNKS[0]), np.log(RANGE_CHUNKS[1])
            lengths = np.rint(np.exp(
                lo + (rng.permutation(count) + 0.5) / count * (hi - lo)))
            return [self._range(int(length), QS[i], bool(f), rng)
                    for length, i, f in zip(lengths, q, filtered)]
        if op == "group_by":
            return [QuerySpec(kind="group_by", quantiles=QS,
                              group_dimension="cell")] * count
        if op == "top_n":
            return [QuerySpec(kind="top_n", quantiles=(0.99,),
                              group_dimension="cell", n=5)] * count
        if op == "threshold":
            t = rng.permutation(count) % len(self.thresholds)
            return [QuerySpec(kind="threshold_count", quantiles=(0.9,),
                              thresholds=(self.thresholds[i],),
                              group_dimension="cell") for i in t]
        raise ValueError(f"unknown query op {op!r}")

    def _range(self, length: int, q: float, filtered: bool,
               rng) -> QuerySpec:
        """A range of ``length`` chunks; filtered ones on a hot cell that
        has at least ``MIN_RANGE_ROWS`` base rows in it."""
        cell = None
        starts = np.arange(self.workload.chunks - length + 1)
        if filtered:
            window = self.cumulative[length:] - self.cumulative[:-length]
            for candidate in rng.permutation(HOT_CELLS):
                fits = np.flatnonzero(window[:, candidate] >= MIN_RANGE_ROWS)
                if fits.size:
                    cell, starts = int(candidate), fits
                    break
        start = int(rng.choice(starts))
        return QuerySpec(kind="quantile", quantiles=(q,),
                         interval=(float(start), float(start + length - 1)),
                         filters={} if cell is None else {"cell": cell})


def _events(times, ops, maker: _QueryMaker, rng,
            compact_every: int = 0) -> list[Event]:
    """Events in arrival order; flushes numbered, compactions inserted."""
    specs = {op: iter(maker.make(op, ops.count(op), rng))
             for op in dict.fromkeys(ops) if op not in INGEST_OPS}
    events: list[Event] = []
    flushes = 0
    for at, op in zip(times, ops):
        if op == "flush":
            events.append(Event(float(at), "flush", flush=flushes))
            flushes += 1
            if compact_every and flushes % compact_every == 0:
                events.append(Event(float(at), "compact"))
        else:
            events.append(Event(float(at), op, next(specs[op])))
    return events


def make_inputs(workload: Workload, seed: int, seconds: float,
                warmup_seconds: float) -> Inputs:
    """Every row and event of one run, a pure function of the seed."""
    w = workload
    times, ops = _schedule(w.rate, w.mix, seconds,
                           np.random.default_rng([seed, 1]))
    n_flushes = ops.count("flush")

    total = w.base_rows + n_flushes * w.flush_rows
    values = np.array(load("milan", n=total, seed=seed), dtype=float)
    # load() appends its near-zero readings last; spread them over time.
    np.random.default_rng([seed, 2]).shuffle(values)
    cells = np.empty(total, dtype=np.int64)
    head = min(w.cells, total)
    cells[:head] = np.arange(head)  # every cell exists in the base rows
    cells[head:] = np.random.default_rng([seed, 3]).choice(
        w.cells, size=total - head, p=zipf_weights(w.cells, ZIPF_S))
    timestamps = None
    if w.backend == "druid":
        ts_rng = np.random.default_rng([seed, 4])
        timestamps = np.empty(total)
        timestamps[:w.base_rows] = ts_rng.uniform(0, w.chunks, w.base_rows)
        timestamps[w.base_rows:] = ts_rng.uniform(
            w.chunks * (1 - NEWEST_CHUNKS), w.chunks, total - w.base_rows)
    elif w.backend == "cluster":
        timestamps = np.zeros(total)

    maker = _QueryMaker(w, cells, values, timestamps)
    events = _events(times, ops, maker, np.random.default_rng([seed, 5]),
                     w.compact_every)
    warm = np.random.default_rng([seed, 6])
    warm_times, warm_ops = _schedule(
        w.rate, [(op, share) for op, share in w.mix if op not in INGEST_OPS],
        warmup_seconds, warm)
    warmup = _events(warm_times, warm_ops, maker, warm)
    return Inputs(workload=w, cells=cells, values=values,
                  timestamps=timestamps, warmup=warmup,
                  warmup_seconds=warmup_seconds, events=events)


def repeat_share(events: list[Event]) -> float:
    """Share of queries identical to an earlier one since the last flush."""
    seen: set = set()
    queries = repeats = 0
    for event in events:
        if event.op == "flush":
            seen.clear()
        elif event.spec is not None:
            queries += 1
            repeats += event.spec in seen
            seen.add(event.spec)
    return repeats / queries if queries else 0.0


# ----------------------------------------------------------------------
# The system under test
# ----------------------------------------------------------------------

@dataclass
class System:
    session: IngestSession
    service: object
    target: object
    compactor: object | None
    directory: Path | None


def setup(inputs: Inputs, workdir: Path) -> System:
    """Empty to queryable: build the target, load the base rows."""
    w = inputs.workload
    overrides = dict(w.spec)
    directory = None
    if w.backend == "tiered":
        directory = Path(tempfile.mkdtemp(prefix="tiered-", dir=workdir))
        overrides["storage_dir"] = str(directory)
    spec = IngestSpec(backend=w.backend, dimensions=("cell",),
                      flush_rows=None, **overrides)
    target = build_target(spec)
    session = IngestSession(target, spec)
    session.append_columns(**inputs.columns(0, w.base_rows))
    session.flush()
    service = session.query_service()
    compactor = None
    if w.compact_every:
        from repro.storage import Compactor
        compactor = Compactor(target)
    return System(session=session, service=service, target=target,
                  compactor=compactor, directory=directory)


def teardown(system: System) -> None:
    """Stop the cluster broker pool and remove on-disk state."""
    for name in system.service.backends:
        broker = getattr(system.service.backend(name), "broker", None)
        if broker is not None:
            broker.close()
    system.session.close()
    if system.directory is not None:
        system.target.close(seal=False)
        shutil.rmtree(system.directory, ignore_errors=True)


def run_event(system: System, inputs: Inputs, event: Event):
    """Execute one scheduled operation; returns what the API returned."""
    if event.op == "flush":
        lo = inputs.rows_after(event.flush)
        system.session.append_columns(
            **inputs.columns(lo, lo + inputs.workload.flush_rows))
        return system.session.flush()
    if event.op == "compact":
        return system.compactor.run_once()
    return system.service.execute(event.spec)
