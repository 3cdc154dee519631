"""Telemetry guard discipline: the data plane is free when disabled.

The telemetry plane's core promise is near-zero cost while disabled, so
every call into the data plane (``TELEMETRY.tracer``,
``TELEMETRY.registry``, ``TELEMETRY.slow_queries``) outside
``repro/telemetry/`` itself must be dominated by an enabledness check:

* **TEL001** — a data-plane call not dominated by ``TELEMETRY.enabled``
  (or a recognized proxy for it).  Recognized guards, tracked
  intraprocedurally:

  - a direct ``if TELEMETRY.enabled:`` (or ``... and other:``) test;
  - a boolean alias — ``telemetry_on = TELEMETRY.enabled`` — used the
    same way;
  - an early return — ``if not TELEMETRY.enabled: return`` dominates
    the rest of the function;
  - a *span-like* optional — ``span = tracer.span(...) if enabled else
    None`` — whose ``if span is not None:`` (or truthiness) test
    re-establishes the guard later.

  Control-plane calls (``TELEMETRY.enable()``, ``disable()``,
  ``reset()``) are exempt: they are exactly the calls that must work
  while disabled.  Nested functions inherit alias facts but not
  dominance — a closure defined under a guard may run later, when
  telemetry has been toggled.

* **TEL002** — span lifecycle outside a context manager: an explicit
  ``span.end()`` on a span that was not opened ``detached=True``, a
  literal ``__enter__()`` call, or a ``.span(...)`` opened and
  immediately discarded as a bare expression statement.  Detached spans
  are the sanctioned exception — they exist precisely for lifetimes
  that cross thread boundaries (the cluster node ends them manually).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set

from .core import Checker, Finding, ModuleContext, RuleSpec, attribute_chain

UNGUARDED = "TEL001"
SPAN_LIFECYCLE = "TEL002"

#: Attributes of the TELEMETRY singleton that form the data plane.
DATA_ROOTS = ("tracer", "registry", "slow_queries")


@dataclass
class _Facts:
    """Per-function alias knowledge, inherited by nested functions."""

    #: names aliasing a data-plane handle (``tracer = TELEMETRY.tracer``).
    handles: Set[str] = field(default_factory=set)
    #: names aliasing the enabled flag (``on = TELEMETRY.enabled``).
    enabled: Set[str] = field(default_factory=set)
    #: span-like optionals -> opened detached?  (``s = span(...) if on
    #: else None``; truthiness of ``s`` re-establishes the guard).
    spanlike: Dict[str, bool] = field(default_factory=dict)

    def copy(self) -> "_Facts":
        return _Facts(set(self.handles), set(self.enabled),
                      dict(self.spanlike))


def _telemetry_root(chain: Optional[List[str]], facts: _Facts) -> str:
    """Data-plane root of an attribute chain, or '' when not telemetry."""
    if not chain:
        return ""
    if chain[0] in facts.handles:
        return chain[0]
    try:
        idx = chain.index("TELEMETRY")
    except ValueError:
        return ""
    if idx + 1 < len(chain) and chain[idx + 1] in DATA_ROOTS:
        return f"TELEMETRY.{chain[idx + 1]}"
    return ""


def _is_enabled_attr(node: ast.expr) -> bool:
    chain = attribute_chain(node)
    return bool(chain) and len(chain) >= 2 \
        and chain[-2] == "TELEMETRY" and chain[-1] == "enabled"


def _span_call(node: ast.expr, facts: _Facts) -> Optional[ast.Call]:
    """The Call node when ``node`` is a tracer ``.span(...)`` call."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "span" \
            and _telemetry_root(attribute_chain(node.func), facts):
        return node
    return None


def _is_detached(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "detached" and isinstance(kw.value, ast.Constant) \
                and bool(kw.value.value):
            return True
    return False


def _terminates(body: Sequence[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


class TelemetryGuardChecker(Checker):
    """TEL001/TEL002 over every function (and module body) of a file."""

    rules = (
        RuleSpec(UNGUARDED,
                 "telemetry data-plane call not dominated by an "
                 "enabledness check"),
        RuleSpec(SPAN_LIFECYCLE,
                 "span lifecycle managed manually instead of via a "
                 "context manager"),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.matches(self.config.telemetry_exempt_modules):
            return
        self._ctx = ctx
        self._out: List[Finding] = []
        self._block(ctx.tree.body, _Facts(), guarded=False)
        yield from self._out

    # -- guard recognition ---------------------------------------------

    def _is_guard(self, test: ast.expr, facts: _Facts) -> bool:
        if _is_enabled_attr(test):
            return True
        if isinstance(test, ast.Name) and (test.id in facts.enabled
                                           or test.id in facts.spanlike):
            return True
        if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                and isinstance(test.ops[0], ast.IsNot) \
                and isinstance(test.left, ast.Name) \
                and test.left.id in facts.spanlike \
                and isinstance(test.comparators[0], ast.Constant) \
                and test.comparators[0].value is None:
            return True
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            return any(self._is_guard(v, facts) for v in test.values)
        return False

    def _is_unguard(self, test: ast.expr, facts: _Facts) -> bool:
        """``not <guard>`` / ``x is None`` — the early-return shapes."""
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._is_guard(test.operand, facts)
        if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                and isinstance(test.ops[0], ast.Is) \
                and isinstance(test.left, ast.Name) \
                and test.left.id in facts.spanlike \
                and isinstance(test.comparators[0], ast.Constant) \
                and test.comparators[0].value is None:
            return True
        return False

    # -- statement dataflow --------------------------------------------

    def _block(self, body: Sequence[ast.stmt], facts: _Facts,
               guarded: bool) -> None:
        for stmt in body:
            guarded = self._stmt(stmt, facts, guarded)

    def _stmt(self, stmt: ast.stmt, facts: _Facts, guarded: bool) -> bool:
        """Process one statement; returns guardedness for its successors."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._block(stmt.body, facts.copy(), guarded=False)
            return guarded
        if isinstance(stmt, ast.ClassDef):
            self._block(stmt.body, facts.copy(), guarded=False)
            return guarded
        if isinstance(stmt, ast.If):
            self._expr(stmt.test, facts, guarded)
            body_guarded = guarded or self._is_guard(stmt.test, facts)
            self._block(stmt.body, facts, body_guarded)
            self._block(stmt.orelse, facts, guarded)
            if not guarded and self._is_unguard(stmt.test, facts) \
                    and _terminates(stmt.body) and not stmt.orelse:
                return True
            return guarded
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            if value is not None:
                self._expr(value, facts, guarded)
                if isinstance(stmt, ast.Assign):
                    self._record_assign(stmt.targets, value, facts, guarded)
            return guarded
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr(item.context_expr, facts, guarded)
                span = _span_call(item.context_expr, facts)
                if span is not None and item.optional_vars is not None \
                        and isinstance(item.optional_vars, ast.Name):
                    facts.spanlike[item.optional_vars.id] = True
            self._block(stmt.body, facts, guarded)
            return guarded
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter, facts, guarded)
            self._block(stmt.body, facts, guarded)
            self._block(stmt.orelse, facts, guarded)
            return guarded
        if isinstance(stmt, ast.While):
            self._expr(stmt.test, facts, guarded)
            self._block(stmt.body, facts, guarded)
            self._block(stmt.orelse, facts, guarded)
            return guarded
        if isinstance(stmt, ast.Try):
            self._block(stmt.body, facts, guarded)
            for handler in stmt.handlers:
                self._block(handler.body, facts, guarded)
            self._block(stmt.orelse, facts, guarded)
            self._block(stmt.finalbody, facts, guarded)
            return guarded
        if isinstance(stmt, ast.Expr):
            value = stmt.value
            span = _span_call(value, facts)
            if span is not None:
                self._out.append(self._ctx.finding(
                    value, SPAN_LIFECYCLE,
                    "span opened and discarded; use 'with ...tracer."
                    "span(...):' so it is always closed"))
            self._expr(value, facts, guarded)
            return guarded
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._expr(child, facts, guarded)
            elif isinstance(child, ast.stmt):
                self._stmt(child, facts, guarded)
        return guarded

    def _record_assign(self, targets: Sequence[ast.expr], value: ast.expr,
                       facts: _Facts, guarded: bool) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        chain = attribute_chain(value)
        # tracer = TELEMETRY.tracer  (plain attribute, no call involved)
        if isinstance(value, ast.Attribute) and chain \
                and chain[-1] in DATA_ROOTS and "TELEMETRY" in chain:
            facts.handles.update(names)
            return
        # on = TELEMETRY.enabled  /  on = TELEMETRY.enabled and fast
        if _is_enabled_attr(value):
            facts.enabled.update(names)
            return
        if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.And) \
                and any(self._is_guard(v, facts) for v in value.values):
            facts.enabled.update(names)
            return
        # span = tracer.span(...) if <guard> else None
        if isinstance(value, ast.IfExp) \
                and self._is_guard(value.test, facts) \
                and isinstance(value.orelse, ast.Constant) \
                and value.orelse.value is None:
            span = _span_call(value.body, facts)
            detached = _is_detached(span) if span is not None else False
            for name in names:
                facts.spanlike[name] = detached
            return
        # other = span  (transitive span-like)
        if isinstance(value, ast.Name) and value.id in facts.spanlike:
            for name in names:
                facts.spanlike[name] = facts.spanlike[value.id]
            return
        # span = tracer.span(...) under an established guard
        span = _span_call(value, facts)
        if span is not None and guarded:
            for name in names:
                facts.spanlike[name] = _is_detached(span)
            return
        # reassignment kills stale facts
        for name in names:
            facts.handles.discard(name)
            facts.enabled.discard(name)
            facts.spanlike.pop(name, None)

    # -- expression dataflow -------------------------------------------

    def _expr(self, node: ast.expr, facts: _Facts, guarded: bool) -> None:
        if isinstance(node, ast.IfExp):
            self._expr(node.test, facts, guarded)
            body_guarded = guarded or self._is_guard(node.test, facts)
            self._expr(node.body, facts, body_guarded)
            self._expr(node.orelse, facts, guarded)
            return
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            running = guarded
            for value in node.values:
                self._expr(value, facts, running)
                running = running or self._is_guard(value, facts)
            return
        if isinstance(node, ast.Lambda):
            self._expr(node.body, facts.copy(), guarded=False)
            return
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr == "__enter__":
                    self._out.append(self._ctx.finding(
                        node, SPAN_LIFECYCLE,
                        "explicit __enter__() call; use a 'with' block"))
                if func.attr == "end" and isinstance(func.value, ast.Name) \
                        and func.value.id in facts.spanlike \
                        and not facts.spanlike[func.value.id]:
                    self._out.append(self._ctx.finding(
                        node, SPAN_LIFECYCLE,
                        f"manual '{func.value.id}.end()' on a span not "
                        "opened detached; use 'with' (detached=True spans "
                        "may be ended manually)"))
            root = _telemetry_root(attribute_chain(func), facts)
            if root:
                if not guarded:
                    self._out.append(self._ctx.finding(
                        node, UNGUARDED,
                        f"call into '{root}' is not dominated by a "
                        "'TELEMETRY.enabled' check; guard it so disabled "
                        "telemetry stays free"))
                # One finding per chained call: skip the func chain
                # (inner calls are part of it), still visit arguments.
                for arg in node.args:
                    self._expr(arg, facts, guarded)
                for kw in node.keywords:
                    self._expr(kw.value, facts, guarded)
                return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, facts, guarded)
