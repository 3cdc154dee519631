"""Hierarchical tracing: spans, context propagation, ring-buffered export.

Spans carry ``trace_id``/``span_id``/``parent_id``, a monotonic start
plus duration, and structured attributes.  The active span is tracked in
a :class:`contextvars.ContextVar`, so nesting works transparently on one
thread.  Thread pools do NOT inherit context vars automatically — code
fanning out across a pool must capture ``tracer.current_span()`` before
the fan-out and pass it as the explicit ``parent`` of per-worker spans.

Spans can also be created *detached*: they never touch the context var
and their payload is returned to the caller instead of recorded, so a
data node can serialize its per-shard spans into the reply partials and
the broker can :meth:`Tracer.adopt` them into the local ring, keeping a
single connected trace tree across the process boundary.

Completed spans land in a bounded ring buffer (newest win) and can be
exported as JSON-lines.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Union

DEFAULT_RING_CAPACITY = 8192


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span."""

    trace_id: str
    span_id: str


ParentLike = Union[None, SpanContext, "Span"]


def _parent_context(parent: ParentLike) -> Optional[SpanContext]:
    if parent is None or isinstance(parent, SpanContext):
        return parent
    return parent.context


class Span:
    """One timed operation.  Use as a context manager to activate it."""

    __slots__ = ("tracer", "name", "trace_id", "span_id", "parent_id",
                 "attributes", "events", "status", "start_unix",
                 "start_monotonic", "duration_seconds", "detached",
                 "payload", "_token")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 parent_id: Optional[str], attributes: Dict[str, Any],
                 detached: bool = False) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id(8)
        self.parent_id = parent_id
        self.attributes = attributes
        self.events: List[dict] = []
        self.status = "ok"
        self.start_unix = time.time()
        self.start_monotonic = time.perf_counter()
        self.duration_seconds: Optional[float] = None
        self.detached = detached
        self.payload: Optional[dict] = None
        self._token: Optional[contextvars.Token] = None

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, **attributes: Any) -> None:
        event = {"name": name,
                 "offset_seconds": time.perf_counter() - self.start_monotonic}
        if attributes:
            event.update(attributes)
        self.events.append(event)

    def end(self, duration_seconds: Optional[float] = None) -> dict:
        payload = self.payload
        if payload is None:
            self.duration_seconds = (duration_seconds
                                     if duration_seconds is not None
                                     else time.perf_counter() - self.start_monotonic)
            payload = self.to_dict()
            self.payload = payload
            if not self.detached:
                self.tracer._record(payload)
        return payload

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "start_monotonic": self.start_monotonic,
            "duration_seconds": self.duration_seconds,
            "status": self.status,
            "attributes": dict(self.attributes),
            "events": list(self.events),
        }

    def __enter__(self) -> "Span":
        if not self.detached:
            self._token = self.tracer._current.set(self)
        return self

    def __exit__(self, exc_type: Optional[type],
                 exc: Optional[BaseException], tb: object) -> bool:
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", f"{exc_type.__name__}: {exc}")
        if self._token is not None:
            self.tracer._current.reset(self._token)
            self._token = None
        self.end()
        return False


class Tracer:
    """Creates spans and collects finished ones in a bounded ring."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Optional[Span]] = \
            contextvars.ContextVar("repro_current_span", default=None)
        self.spans_recorded = 0
        self.spans_dropped = 0

    # -- creation ----------------------------------------------------

    def current_span(self) -> Optional[Span]:
        return self._current.get()

    def current_context(self) -> Optional[SpanContext]:
        span = self._current.get()
        return span.context if span is not None else None

    def span(self, name: str, parent: Union[str, ParentLike] = "current",
             detached: bool = False, **attributes: Any) -> Span:
        """Create a span.

        ``parent="current"`` (default) parents to the active span of this
        thread/context; pass an explicit Span/SpanContext to parent a
        span created on another thread, or ``None`` to force a new root
        trace.
        """
        ctx = (self.current_context() if isinstance(parent, str)
               else _parent_context(parent))
        trace_id = ctx.trace_id if ctx is not None else _new_id(16)
        parent_id = ctx.span_id if ctx is not None else None
        return Span(self, name, trace_id, parent_id, attributes,
                    detached=detached)

    def record(self, name: str, duration_seconds: float,
               parent: Union[str, ParentLike] = "current",
               start_monotonic: Optional[float] = None,
               **attributes: Any) -> dict:
        """Record an already-measured span with an explicit duration.

        Used for phase spans whose durations must equal the values
        reported in :class:`~repro.api.spec.QueryTimings` exactly.
        """
        span = self.span(name, parent=parent, detached=True, **attributes)
        if start_monotonic is not None:
            span.start_unix -= span.start_monotonic - start_monotonic
            span.start_monotonic = start_monotonic
        payload = span.end(duration_seconds=duration_seconds)
        self._record(payload)
        return payload

    def adopt(self, payload: Mapping) -> None:
        """Record a span payload produced elsewhere (e.g. shipped inside
        a node's reply partial) into the local ring."""
        self._record(dict(payload))

    # -- collection --------------------------------------------------

    def _record(self, payload: dict) -> None:
        with self._lock:
            if len(self._ring) == self._ring.maxlen:
                self.spans_dropped += 1
            self._ring.append(payload)
            self.spans_recorded += 1

    def spans(self) -> List[dict]:
        with self._lock:
            return list(self._ring)

    def trace(self, trace_id: str) -> List[dict]:
        return [s for s in self.spans() if s.get("trace_id") == trace_id]

    def reset(self) -> None:
        with self._lock:
            self._ring.clear()
            self.spans_recorded = 0
            self.spans_dropped = 0

    def export_jsonl(self, path: str) -> int:
        """Write every buffered span as one JSON object per line."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
        return len(spans)


def build_trace_tree(spans: List[Mapping]) -> List[dict]:
    """Nest span payloads into parent->children trees (roots returned).

    Spans whose parent is absent from the set are treated as roots, so a
    truncated ring still renders.  Children sort by start time.
    """
    by_id: Dict[str, dict] = {}
    for span in spans:
        node = dict(span)
        node["children"] = []
        by_id[node["span_id"]] = node
    roots: List[dict] = []
    for node in by_id.values():
        parent = by_id.get(node.get("parent_id"))
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    def _sort(nodes: List[dict]) -> None:
        nodes.sort(key=lambda n: (n.get("start_unix") or 0, n["span_id"]))
        for n in nodes:
            _sort(n["children"])
    _sort(roots)
    return roots


def render_trace_tree(spans: List[Mapping]) -> List[str]:
    """ASCII rendering of a span tree, one line per span."""
    lines: List[str] = []

    def _walk(node: dict, depth: int) -> None:
        dur = node.get("duration_seconds")
        dur_ms = f"{dur * 1e3:.3f}ms" if dur is not None else "?"
        attrs = node.get("attributes") or {}
        attr_str = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        marker = "" if node.get("status", "ok") == "ok" else " [ERROR]"
        events = node.get("events") or []
        event_str = "".join(f" !{e['name']}" for e in events)
        lines.append("  " * depth
                     + f"{node['name']} {dur_ms}{marker}{event_str}"
                     + (f" ({attr_str})" if attr_str else ""))
        for child in node.get("children", []):
            _walk(child, depth + 1)

    for root in build_trace_tree(spans):
        _walk(root, 0)
    return lines
