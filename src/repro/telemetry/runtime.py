"""The process-wide telemetry switchboard.

Instrumentation sites throughout the codebase guard on the module-level
singleton ``TELEMETRY.enabled`` — a single attribute read when disabled,
which is what keeps the disabled-mode overhead near zero (gated ≤3% by
``benchmarks/bench_telemetry.py``).

Typical use::

    from repro.telemetry import TELEMETRY

    TELEMETRY.enable(slow_query_threshold_seconds=0.25)
    ...run queries/ingest...
    print(render_prometheus(TELEMETRY.registry))
    TELEMETRY.tracer.export_jsonl("spans.jsonl")
"""

from __future__ import annotations

from typing import Any, Optional

from .metrics import MetricsRegistry
from .slowlog import SlowQueryLog
from .trace import DEFAULT_RING_CAPACITY, Tracer


class TelemetryRuntime:
    """Holds the tracer, metrics registry, and slow-query log."""

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        self.slow_queries = SlowQueryLog()

    def enable(self, slow_query_threshold_seconds: Optional[float] = None,
               ring_capacity: int = DEFAULT_RING_CAPACITY,
               reset: bool = False) -> "TelemetryRuntime":
        if reset:
            self.tracer = Tracer(capacity=ring_capacity)
            self.registry = MetricsRegistry()
            self.slow_queries = SlowQueryLog(
                threshold_seconds=slow_query_threshold_seconds)
        else:
            if slow_query_threshold_seconds is not None:
                self.slow_queries.threshold_seconds = slow_query_threshold_seconds
        self.enabled = True
        return self

    def disable(self) -> "TelemetryRuntime":
        self.enabled = False
        return self

    def reset(self) -> "TelemetryRuntime":
        """Drop collected state, keeping the enabled flag as-is."""
        self.tracer.reset()
        self.registry.reset()
        self.slow_queries.reset()
        return self


TELEMETRY = TelemetryRuntime()


def enable(**kwargs: Any) -> TelemetryRuntime:
    return TELEMETRY.enable(**kwargs)


def disable() -> TelemetryRuntime:
    return TELEMETRY.disable()


def reset() -> TelemetryRuntime:
    return TELEMETRY.reset()
