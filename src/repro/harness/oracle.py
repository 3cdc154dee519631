"""Exact-answer oracle: ground truth for every sketch estimate.

The oracle mirrors each ingested row into an in-memory stdlib
:mod:`sqlite3` table, and answers the questions sketches only
approximate — exact quantiles by ``ORDER BY ... LIMIT 1 OFFSET rank``,
exact ranks by indexed ``COUNT`` — so every query can be graded against
the true answer on the *identical* data, including rows that arrived
after earlier queries.

The accuracy currency is the paper's Eq. 1 **rank error**: for an
estimate ``x`` of quantile ``q`` over ``n`` rows,

    ``rank_error = distance(q * n, [count(< x), count(<= x)]) / n``

i.e. zero whenever the target rank falls inside ``x``'s tie range, else
the gap to the nearer edge, normalized by ``n``.  This is exactly the ε
the moments sketch promises (ε-approximate quantiles), so checking
``rank_error <= epsilon`` is the paper's own guarantee.
"""

from __future__ import annotations

import sqlite3

import numpy as np

from ..core.errors import HarnessError


class ExactOracle:
    """Exact quantile/rank answers over the rows ingested so far."""

    def __init__(self, dimension: str = "cell"):
        self.dimension = str(dimension)
        self._db = sqlite3.connect(":memory:")
        self._db.execute(
            f"CREATE TABLE rows ({self.dimension} INTEGER, value REAL)")
        # Point lookups and per-group rank counts dominate; a composite
        # index makes both O(log n) instead of full scans.
        self._db.execute(
            f"CREATE INDEX idx_cell_value ON rows ({self.dimension}, value)")
        self.rows = 0

    def close(self) -> None:
        self._db.close()

    # ------------------------------------------------------------------
    # Ingest mirror
    # ------------------------------------------------------------------

    def insert(self, cells, values) -> int:
        """Mirror one ingested batch; returns rows inserted."""
        cells = np.asarray(cells)
        values = np.asarray(values, dtype=float)
        if cells.shape[0] != values.shape[0]:
            raise HarnessError(
                f"oracle batch length mismatch: {cells.shape[0]} cells "
                f"vs {values.shape[0]} values")
        self._db.executemany(
            "INSERT INTO rows VALUES (?, ?)",
            zip((int(c) for c in cells), (float(v) for v in values)))
        self._db.commit()
        self.rows += int(values.shape[0])
        return int(values.shape[0])

    # ------------------------------------------------------------------
    # Exact answers
    # ------------------------------------------------------------------

    def _where(self, cell: int | None) -> tuple[str, tuple]:
        if cell is None:
            return "", ()
        return f" WHERE {self.dimension} = ?", (int(cell),)

    def count(self, cell: int | None = None) -> int:
        where, params = self._where(cell)
        row = self._db.execute(f"SELECT COUNT(*) FROM rows{where}",
                               params).fetchone()
        return int(row[0])

    def cells(self) -> list[int]:
        """Distinct cells present, ascending."""
        return [int(row[0]) for row in self._db.execute(
            f"SELECT DISTINCT {self.dimension} FROM rows "
            f"ORDER BY {self.dimension}")]

    def exact_quantile(self, q: float, cell: int | None = None) -> float:
        """The true q-quantile (nearest-rank, the paper's definition)."""
        n = self.count(cell)
        if n == 0:
            raise HarnessError(f"oracle has no rows for cell {cell!r}")
        rank = min(max(int(np.floor(float(q) * n)), 0), n - 1)
        where, params = self._where(cell)
        row = self._db.execute(
            f"SELECT value FROM rows{where} ORDER BY value "
            f"LIMIT 1 OFFSET ?", (*params, rank)).fetchone()
        return float(row[0])

    def rank_of(self, value: float, cell: int | None = None
                ) -> tuple[int, int]:
        """``(count(< value), count(<= value))`` — the tie range."""
        where, params = self._where(cell)
        conjunction = "AND" if where else "WHERE"
        below = self._db.execute(
            f"SELECT COUNT(*) FROM rows{where} {conjunction} value < ?",
            (*params, float(value))).fetchone()[0]
        at_or_below = self._db.execute(
            f"SELECT COUNT(*) FROM rows{where} {conjunction} value <= ?",
            (*params, float(value))).fetchone()[0]
        return int(below), int(at_or_below)

    def rank_error(self, estimate: float, q: float,
                   cell: int | None = None) -> float:
        """Paper Eq. 1 rank error of ``estimate`` for quantile ``q``."""
        n = self.count(cell)
        if n == 0:
            raise HarnessError(f"oracle has no rows for cell {cell!r}")
        below, at_or_below = self.rank_of(estimate, cell)
        target = float(q) * n
        if below <= target <= at_or_below:
            return 0.0
        return min(abs(below - target), abs(at_or_below - target)) / n

    def exceeds_threshold(self, t: float, q: float, cell: int) -> bool:
        """Whether the cell's true q-quantile exceeds ``t``."""
        return self.exact_quantile(q, cell) > float(t)

    def threshold_margin(self, t: float, q: float, cell: int) -> float:
        """Rank distance of ``t`` from the cell's q-rank, normalized.

        A threshold decision that disagrees with the oracle is only a
        real violation when this margin exceeds ε — inside the margin the
        sketch's ε-approximate quantile is *allowed* to fall on either
        side of ``t``.
        """
        n = self.count(cell)
        below, at_or_below = self.rank_of(t, cell)
        target = float(q) * n
        if below <= target <= at_or_below:
            return 0.0
        return min(abs(below - target), abs(at_or_below - target)) / n
