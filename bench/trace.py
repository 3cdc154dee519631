"""Outside-in per-layer tracer: wraps public functions, reports self time.

The tracer patches the public entry points of each layer (``SPANS``) for
the duration of a traced pass and attributes wall-clock time to them:

* a span's **self time** is its duration minus the time its child spans
  cover, computed on each thread's own span stack;
* every traced driver operation is a root (``op.query`` /
  ``op.ingest``), so the self times under one root kind sum to that
  kind's root time.  Outside a root the wrappers only call through, so
  a pass can trace some operations and leave the others untraced;
* a span that starts on a thread with an empty stack (the cluster
  broker's pool threads) is a child of the span the driver thread has
  open at that moment.  That span's self time excludes the union of its
  pool children's intervals, and the pool subtrees share that union in
  proportion to their durations, so concurrent workers are not counted
  twice.

Targets are resolved by function identity: every binding of the original
function in a loaded ``repro.*`` module is replaced, which catches
``from x import f`` copies.  ``Backend``/``WriteBackend`` subclasses are
found by protocol.  A target that no longer exists is reported absent and
its span reads zero, so the benchmark keeps running when a layer is
deleted.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager

#: span name -> targets.  A target is ``"module:qualname"`` or
#: ``("protocol", "module:Base", methods)`` for every subclass of ``Base``.
SPANS: dict[str, tuple] = {
    "core.fit_scalar": ("repro.core.quantile:QuantileEstimator.fit",),
    "core.select_scalar": ("repro.core.selector:select_moments",),
    "core.newton_scalar": ("repro.core.solver:solve",),
    "core.quantiles": ("repro.core.quantile:QuantileEstimator.quantiles",),
    "core.fit_batch": ("repro.core.batch_solver:fit_estimators",),
    "core.select_batch": ("repro.core.selector:select_moments_batch",),
    "core.bases_batch": ("repro.core.solver:build_bases_batch",),
    "core.newton_batch": ("repro.core.batch_solver:solve_batch",),
    "core.bounds": ("repro.core.bounds:rtt_bound_batch",
                    "repro.core.bounds:markov_bound_batch",
                    "repro.core.bounds:rtt_bound",
                    "repro.core.bounds:markov_bound"),
    "core.cascade": ("repro.core.cascade:ThresholdCascade.evaluate",
                     "repro.core.cascade:ThresholdCascade.evaluate_batch"),
    "api.plan": ("repro.api.planner:plan",),
    "backend.rollup": (("protocol", "repro.api.backends:Backend",
                        ("rollup", "group_rollup")),),
    "store.merge": ("repro.store.packed:PackedSketchStore.batch_merge",
                    "repro.store.packed:PackedSketchStore.batch_merge_groups",
                    "repro.store.packed:PackedSketchStore.batch_merge_by"),
    "core.sketch_merge": ("repro.core.sketch:MomentsSketch.merge",),
    "cluster.route": ("repro.cluster.broker:ClusterBroker.route",),
    "cluster.scatter": ("repro.cluster.broker:ClusterBroker.scatter_rollup",
                        "repro.cluster.broker:ClusterBroker.scatter_group"),
    "cluster.node": ("repro.cluster.node:DataNode.shard_partials",
                     "repro.cluster.node:DataNode.group_partials"),
    "ingest.append": ("repro.ingest.session:IngestSession.append_columns",),
    "ingest.flush": ("repro.ingest.session:IngestSession.flush",),
    "ingest.write": (("protocol", "repro.ingest.backends:WriteBackend",
                      ("write",)),),
    "store.accumulate": (
        "repro.store.packed:PackedSketchStore.batch_accumulate",
        "repro.store.packed:PackedSketchStore.accumulate_row"),
    "storage.seal": ("repro.storage.tiered:TieredStore.seal",),
    "storage.compact": ("repro.storage.tiered:TieredStore.compact_run",),
    "storage.read": ("repro.storage.tiered:TieredStore.gather",
                     "repro.storage.tiered:TieredStore.probe"),
    "optimizer.lookup": ("repro.optimizer.planner:Optimizer.cached_response",
                         "repro.optimizer.planner:Optimizer.lookup_scan"),
}

#: Root kinds: every driver operation opens exactly one root span.
ROOTS = ("query", "ingest")

#: Packages imported before patching (they register the protocol
#: subclasses and hold the `from x import f` copies).
LAYERS = ("repro.api", "repro.ingest", "repro.cluster", "repro.storage",
          "repro.optimizer.planner")


def _resolve(path: str):
    """``"module:Qual.name"`` -> (owner, attribute name, raw attribute).

    A method resolves to the class in the MRO that defines it, so moving
    it into a base class keeps it traced.
    """
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if not isinstance(owner, type):
        return owner, attr, getattr(owner, attr)
    for klass in owner.__mro__:
        if attr in klass.__dict__:
            return klass, attr, klass.__dict__[attr]
    raise AttributeError(f"{path} does not exist")


def _subclasses(base: type) -> list[type]:
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return found


class _Frame:
    """One open span on a thread's stack."""

    __slots__ = ("name", "stack", "sink", "start", "child", "pool", "parent")

    def __init__(self, name: str, stack: list, sink: dict, parent=None):
        self.name = name
        #: The span stack of the thread the span runs on.
        self.stack = stack
        #: {span: [calls, self seconds]} this span's time goes to.
        self.sink = sink
        self.child = 0.0
        #: (start, end, sink) of pool-thread subtrees run during this span.
        self.pool: list | None = None
        #: For a pool-thread root: the driver span it ran under.
        self.parent = parent
        self.start = time.perf_counter()


class Tracer:
    """Per-layer self-time accounting over one traced pass."""

    def __init__(self, spans: dict[str, tuple] = SPANS):
        self.spans = dict(spans)
        self._local = threading.local()
        #: Guards pool-thread subtrees handed to driver spans.
        self._lock = threading.Lock()
        self._driver_stack: list = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: dict[str, list[str]] = {}
        #: True while the driver has a root span open.
        self.active = False
        #: root kind -> {span: [calls, self seconds]}
        self.sinks: dict[str, dict] = {kind: {} for kind in ROOTS}
        #: root kind -> [operations, total seconds]
        self.roots: dict[str, list] = {kind: [0, 0.0] for kind in ROOTS}
        #: Pool-thread spans that outlived the driver span they ran under.
        self.orphans: dict = {}

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        """Push a span on the calling thread's stack."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        if stack:
            frame = _Frame(name, stack, stack[-1].sink)
        else:  # a pool thread: a child of the driver's open span
            frame = _Frame(name, stack, {}, self._driver_stack[-1]
                           if self._driver_stack else None)
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> float:
        """Book the span's self time; returns its duration."""
        end = time.perf_counter()
        stack = frame.stack
        stack.pop()
        duration = end - frame.start
        child = frame.child
        if frame.pool is not None:
            child += self._absorb(frame, end)
        entry = frame.sink.get(frame.name)
        if entry is None:
            entry = frame.sink[frame.name] = [0, 0.0]
        entry[0] += 1
        entry[1] += duration - child
        if stack:
            stack[-1].child += duration
        elif stack is not self._driver_stack:
            with self._lock:
                parent = frame.parent
                if parent is None or parent not in self._driver_stack:
                    self._merge(self.orphans, frame.sink, 1.0)
                else:
                    parent.pool = (parent.pool or []) + [
                        (frame.start, end, frame.sink)]
        return duration

    @staticmethod
    def _merge(into: dict, sink: dict, factor: float) -> None:
        for name, (calls, seconds) in sink.items():
            entry = into.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds * factor

    def _absorb(self, frame: _Frame, end: float) -> float:
        """Fold a driver span's pool subtrees in; returns the time covered.

        The subtrees share the union of their intervals in proportion to
        their durations, so threads that ran side by side are not counted
        twice.
        """
        with self._lock:
            pool, frame.pool = frame.pool, None
        intervals = sorted((max(s, frame.start), min(e, end))
                           for s, e, _ in pool)
        covered = 0.0
        lo, hi = intervals[0]
        for s, e in intervals[1:]:
            if s > hi:
                covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        covered += hi - lo
        total = sum(e - s for s, e, _ in pool)
        for _, _, sink in pool:
            self._merge(frame.sink, sink, covered / total if total else 0.0)
        return covered

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def op(self, kind: str):
        """Root span around one driver operation of ``kind``."""
        frame = _Frame(f"op.{kind}", self._driver_stack, self.sinks[kind])
        self._driver_stack.append(frame)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.roots[kind][0] += 1
            self.roots[kind][1] += self._close(frame)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Patch every resolvable target; the calling thread is the driver."""
        self._driver_stack = self._local.stack = []
        # Load every layer first, so no module binds a wrapped function
        # by `from x import f` after install and keeps it past uninstall.
        for module in LAYERS:
            try:
                importlib.import_module(module)
            except ImportError:
                pass  # its spans resolve as absent below
        for name, targets in self.spans.items():
            for target in targets:
                try:
                    if isinstance(target, tuple):
                        self._patch_protocol(name, target)
                    else:
                        self._patch_path(name, target)
                except (ImportError, AttributeError):
                    label = target if isinstance(target, str) else target[1]
                    self.absent.setdefault(name, []).append(label)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_member(self, name: str, cls: type, attr: str, raw) -> None:
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._wrap(raw.__func__, name)))
        elif isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
        else:
            self._set(cls, attr, self._wrap(raw, name))

    def _patch_path(self, name: str, path: str) -> None:
        owner, attr, raw = _resolve(path)
        if isinstance(owner, type):
            self._patch_member(name, owner, attr, raw)
            return
        wrapped = self._wrap(raw, name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for binding, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, binding, wrapped)

    def _patch_protocol(self, name: str, target: tuple) -> None:
        _, base_path, methods = target
        base = _resolve(base_path)[2]
        for cls in _subclasses(base):
            for attr in methods:
                if attr in cls.__dict__:
                    self._patch_member(name, cls, attr, cls.__dict__[attr])

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------

    def report(self) -> dict:
        """Per-root-kind span table plus root totals and absent targets."""
        per_root = {kind: {name: {"calls": calls, "self_ms": seconds * 1e3}
                           for name, (calls, seconds) in sink.items()}
                    for kind, sink in self.sinks.items()}
        return {"roots": {kind: {"ops": ops, "total_ms": seconds * 1e3}
                          for kind, (ops, seconds) in self.roots.items()},
                "spans": per_root,
                "orphans": {name: {"calls": calls, "self_ms": seconds * 1e3}
                            for name, (calls, seconds) in self.orphans.items()},
                "absent": {name: labels for name, labels in self.absent.items()
                           if len(labels) == len(self.spans[name])}}
