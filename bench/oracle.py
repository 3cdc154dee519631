"""Exact grader: numpy answers over the rows a run sent, graded after it.

Every recorded answer is checked against the exact answer over the rows
ingested before the query ran (its *cursor*: base rows plus the flushes
that preceded it in the schedule).  Grading runs after the timed pass,
never inside it.

The accuracy currency is the paper's Eq. 1 rank error: for an estimate
``x`` of quantile ``q`` over ``n`` rows, the distance from ``q * n`` to
the tie range ``[count(< x), count(<= x)]``, divided by ``n``.  An answer
fails when its rank error exceeds ``EPSILON``; a threshold decision fails
when it disagrees with the exact one and the threshold lies more than
``EPSILON`` in rank from the exact quantile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api import qkey

#: The ε of the paper's ε-approximate quantile contract.
EPSILON = 0.05


def rank_error(values: np.ndarray, estimate: float, q: float) -> float:
    """Eq. 1 rank error of ``estimate`` as the q-quantile of ``values``."""
    n = values.size
    below = int(np.count_nonzero(values < estimate))
    at_or_below = int(np.count_nonzero(values <= estimate))
    target = q * n
    if below <= target <= at_or_below:
        return 0.0
    return min(abs(below - target), abs(at_or_below - target)) / n


def exact_quantile(values: np.ndarray, q: float) -> float:
    """The nearest-rank q-quantile (rank ``floor(q * n)``)."""
    rank = min(max(int(np.floor(q * values.size)), 0), values.size - 1)
    return float(np.partition(values, rank)[rank])


class Oracle:
    """Exact answers over rows ``[0, cursor)`` of a run's ingest order."""

    def __init__(self, cells: np.ndarray, values: np.ndarray,
                 timestamps: np.ndarray | None = None):
        self.cells = np.asarray(cells)
        self.values = np.asarray(values, dtype=float)
        order = np.argsort(self.cells, kind="stable")
        bounds = np.searchsorted(self.cells[order],
                                 np.arange(self.cells.max() + 2))
        #: cell -> its row ids, ascending (a cursor is a prefix).
        self._by_cell = [order[bounds[c]:bounds[c + 1]]
                         for c in range(bounds.size - 1)]
        self._by_chunk = None
        if timestamps is not None:
            chunks = np.floor(timestamps).astype(np.int64)
            self._by_chunk = np.argsort(chunks, kind="stable")
            self._chunk_start = np.searchsorted(
                chunks[self._by_chunk], np.arange(chunks.max() + 2))

    def select(self, cursor: int, cell=None, chunks=None) -> np.ndarray:
        """Values of rows before ``cursor`` matching a cell / chunk range.

        ``chunks`` is an inclusive ``(lo, hi)`` range of one-second time
        chunks, the Druid backend's interval semantics.
        """
        if chunks is not None:
            lo, hi = (int(np.floor(bound)) for bound in chunks)
            hi = min(hi, self._chunk_start.size - 2)
            rows = self._by_chunk[self._chunk_start[lo]:
                                  self._chunk_start[hi + 1]]
            rows = rows[rows < cursor]
            if cell is not None:
                rows = rows[self.cells[rows] == cell]
        elif cell is not None:
            rows = self._by_cell[int(cell)]
            rows = rows[:np.searchsorted(rows, cursor)]
        else:
            return self.values[:cursor]
        return self.values[rows]


@dataclass
class Grades:
    """Per-event verdicts and every graded rank error of one pass."""

    bad: np.ndarray
    rank_errors: list = field(default_factory=list)
    #: Cells that entered a threshold cascade, and those the max-entropy
    #: stage had to decide.
    cascade_cells: int = 0
    cascade_solved: int = 0
    problems: list = field(default_factory=list)

    def note(self, index: int, message: str) -> None:
        self.bad[index] = True
        if len(self.problems) < 5:
            self.problems.append(f"event {index}: {message}")

    def check(self, index: int, values: np.ndarray, estimate: float,
              q: float, where: str) -> None:
        error = rank_error(values, float(estimate), q)
        self.rank_errors.append(error)
        if error > EPSILON:
            self.note(index, f"{where} q={q}: rank error {error:.4f}")


def grade(inputs, events: list, outputs: list) -> Grades:
    """Grade every query answer of a pass against the exact rows."""
    oracle = Oracle(inputs.cells, inputs.values, inputs.timestamps)
    grades = Grades(bad=np.zeros(len(events), dtype=bool))
    every_cell = set(range(inputs.workload.cells))
    flushes = 0
    by_cell: dict = {}  # cell -> its values at the current cursor
    for index, (event, response) in enumerate(zip(events, outputs)):
        if event.op == "flush":
            flushes += 1
            by_cell.clear()
            continue
        if event.spec is None or response is None:
            continue
        spec = event.spec
        cursor = inputs.rows_after(flushes)
        if spec.kind == "quantile":
            cell = spec.filters_dict().get("cell")
            if spec.interval is not None:
                values = oracle.select(cursor, cell=cell, chunks=spec.interval)
            else:
                values = _cell(by_cell, oracle, cursor, cell)
            for q in spec.quantiles:
                grades.check(index, values, response.estimates[qkey(q)], q,
                             f"cell {cell} interval {spec.interval}")
        elif spec.kind == "group_by":
            if set(response.groups) != every_cell:
                grades.note(index, "group_by did not return every cell")
            for cell, estimates in response.groups.items():
                values = _cell(by_cell, oracle, cursor, cell)
                for q in spec.quantiles:
                    grades.check(index, values, estimates[qkey(q)], q,
                                 f"group {cell}")
        elif spec.kind == "top_n":
            if len(response.top) != spec.n:
                grades.note(index, f"top_n returned {len(response.top)}")
            for cell, estimate in response.top:
                grades.check(index, _cell(by_cell, oracle, cursor, cell),
                             estimate, spec.q, f"top {cell}")
        elif spec.kind == "threshold_count":
            t = spec.thresholds[0]
            if set(response.groups) != every_cell:
                grades.note(index, "threshold_count skipped cells")
            for cell, outcomes in response.groups.items():
                outcome = outcomes[qkey(t)]
                grades.cascade_cells += 1
                grades.cascade_solved += outcome["stage"] == "maxent"
                values = _cell(by_cell, oracle, cursor, cell)
                truth = exact_quantile(values, spec.q) > t
                if outcome["exceeds"] != truth \
                        and rank_error(values, t, spec.q) > EPSILON:
                    grades.note(index, f"threshold {t} wrong for cell {cell}")
    return grades


def _cell(by_cell: dict, oracle: Oracle, cursor: int, cell) -> np.ndarray:
    """One cell's values at the cursor, selected once per flush interval."""
    key = int(cell)
    if key not in by_cell:
        by_cell[key] = oracle.select(cursor, cell=key)
    return by_cell[key]
