"""The quantile-fraction check shared by every query entry point."""

from __future__ import annotations

from numbers import Real

from .errors import QueryError


def check_q(q: object) -> float:
    """Return ``q`` as a float, or raise :class:`QueryError` unless it is a
    real number strictly inside (0, 1) (NaN and ``None`` are rejected)."""
    if not isinstance(q, Real) or not 0.0 < float(q) < 1.0:
        raise QueryError(f"quantile fraction must be in (0, 1), got {q!r}")
    return float(q)
