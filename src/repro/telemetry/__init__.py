"""repro.telemetry: tracing, mergeable metrics, and exposition.

An always-available, near-zero-overhead-when-disabled observability
plane.  See runtime.py for the ``TELEMETRY`` singleton that every
instrumentation site guards on, trace.py for hierarchical spans with
cross-thread/cross-node propagation, metrics.py for exactly-mergeable
counters/gauges/log-linear histograms, export.py for Prometheus/JSON
renderers, and slowlog.py for threshold-triggered span-tree capture.
"""

from .metrics import (
    Counter, Gauge, LogHistogram, MetricsRegistry, DEFAULT_SUBBUCKETS,
)
from .trace import (
    Span, SpanContext, Tracer, build_trace_tree, render_trace_tree,
    DEFAULT_RING_CAPACITY,
)
from .slowlog import SlowQueryLog
from .export import load_metrics, render_json, render_prometheus
from .runtime import TELEMETRY, TelemetryRuntime, disable, enable, reset

__all__ = [
    "TELEMETRY", "TelemetryRuntime", "enable", "disable", "reset",
    "Tracer", "Span", "SpanContext", "build_trace_tree", "render_trace_tree",
    "MetricsRegistry", "Counter", "Gauge", "LogHistogram",
    "SlowQueryLog", "render_prometheus", "render_json", "load_metrics",
    "DEFAULT_SUBBUCKETS", "DEFAULT_RING_CAPACITY",
]
