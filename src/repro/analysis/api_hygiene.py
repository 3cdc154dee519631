"""API hygiene: public errors come from the error taxonomy.

**API002** — a public entry point raising a bare builtin exception
(``raise ValueError(...)``) inside a module covered by the
``core/errors.py`` taxonomy.  Callers dispatch on :class:`ReproError`
subclasses at system boundaries; a bare builtin escapes that net.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .core import Checker, Finding, ModuleContext, RuleSpec

BARE_ERROR = "API002"


class ApiHygieneChecker(Checker):
    """API002 over the configured module patterns."""

    rules = (
        RuleSpec(BARE_ERROR,
                 "public entry point raises a bare builtin exception "
                 "instead of the core.errors taxonomy"),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.matches(self.config.error_taxonomy_modules):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise):
                yield from self._check_raise(ctx, node)

    def _check_raise(self, ctx: ModuleContext,
                     node: ast.Raise) -> Iterator[Finding]:
        exc = node.exc
        if exc is None:
            return
        name: Optional[str] = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in self.config.bare_errors:
            yield ctx.finding(
                node, BARE_ERROR,
                f"raise of bare '{name}' in a taxonomy-covered module; "
                "raise a repro.core.errors subclass so boundary handlers "
                "catch it")
