"""Visitor core of the repo-invariant static-analysis engine.

The engine is deliberately small: a :class:`Finding` record, a
:class:`Checker` protocol, per-file :class:`ModuleContext` construction
(AST + ``# repro: noqa[...]`` suppression map), and
:func:`analyze_paths`, which walks the target tree, runs every checker,
and filters suppressed findings.

Suppression has two in-code forms plus the baseline file (see
:mod:`repro.analysis.baseline`):

* line level — ``# repro: noqa[LOCK001]`` (or a bare ``# repro: noqa``)
  on the flagged physical line;
* function level — the same comment on a ``def`` line suppresses the
  named rules for the whole function body.  This is the escape hatch
  for functions whose *callers* establish an invariant the
  intraprocedural analysis cannot see (e.g. a tracing wrapper that is
  only dispatched when ``TELEMETRY.enabled`` is true).
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator,
                    List, Optional, Sequence, Tuple, Union)

from ..core.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .config import AnalysisConfig

PathLike = Union[str, Path]

#: Rule id for files the engine cannot parse at all.
PARSE_RULE = "PARSE001"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")

#: ``None`` in the per-line suppression map means "all rules".
NoqaRules = Optional[FrozenSet[str]]


@dataclass(frozen=True)
class RuleSpec:
    """One rule's identity and one-line summary (shown by ``--rules``)."""

    rule: str
    summary: str


@dataclass(frozen=True)
class Finding:
    """One diagnostic: where, which rule, and what went wrong."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    #: Stripped source text of the flagged line — the baseline key
    #: component that survives unrelated line-number drift.
    snippet: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def baseline_key(self) -> str:
        return f"{self.path}::{self.rule}::{self.snippet}"

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message,
                "snippet": self.snippet}


class ModuleContext:
    """One parsed target file: AST, source lines, suppression map."""

    def __init__(self, path: Path, source: str, rel: str):
        self.path = path
        self.rel = rel
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.noqa: Dict[int, NoqaRules] = _collect_noqa(source)
        self._function_spans = _function_spans(self.tree)

    def matches(self, patterns: Iterable[str]) -> bool:
        """True when any pattern occurs in this file's canonical path."""
        return any(pattern in self.rel for pattern in patterns)

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        line = int(getattr(node, "lineno", 1))
        col = int(getattr(node, "col_offset", 0)) + 1
        snippet = (self.lines[line - 1].strip()
                   if 0 < line <= len(self.lines) else "")
        return Finding(path=self.rel, line=line, col=col, rule=rule,
                       message=message, snippet=snippet)

    def suppressed(self, finding: Finding) -> bool:
        """Line-level or enclosing-function-level noqa for this rule."""
        if _noqa_covers(self.noqa.get(finding.line), finding.rule):
            return True
        for start, end in self._function_spans:
            if start <= finding.line <= end \
                    and _noqa_covers(self.noqa.get(start), finding.rule):
                return True
        return False


class Checker:
    """Base class: subclasses declare ``rules`` and implement ``check``."""

    rules: Tuple[RuleSpec, ...] = ()

    def __init__(self, config: "AnalysisConfig"):
        self.config = config

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


def _noqa_covers(entry: NoqaRules, rule: str) -> bool:
    if entry is None:
        return False
    return entry is ALL_RULES or rule in entry


#: Sentinel for a bare ``# repro: noqa`` (suppresses every rule).
ALL_RULES = frozenset({"*"})


def _collect_noqa(source: str) -> Dict[int, NoqaRules]:
    """Map line number -> suppressed rule set (ALL_RULES for bare noqa).

    Uses the tokenizer so string literals containing the marker text do
    not suppress anything.
    """
    out: Dict[int, NoqaRules] = {}
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(tok.string)
            if not match:
                continue
            rules = match.group("rules")
            if rules is None:
                out[tok.start[0]] = ALL_RULES
            else:
                names = frozenset(part.strip() for part in rules.split(",")
                                  if part.strip())
                existing = out.get(tok.start[0])
                if existing is ALL_RULES:
                    continue
                out[tok.start[0]] = (names if existing is None
                                     else existing | names)
    except tokenize.TokenizeError:
        pass
    return out


def _function_spans(tree: ast.Module) -> List[Tuple[int, int]]:
    """(def-line, end-line) for every function, for function-level noqa."""
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            end = int(getattr(node, "end_lineno", node.lineno) or node.lineno)
            spans.append((node.lineno, end))
    return spans


# ----------------------------------------------------------------------
# AST helpers shared by the rule modules
# ----------------------------------------------------------------------

def attribute_chain(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` -> ["a", "b", "c"]; None when the root is not a Name.

    Calls inside the chain are peeled (``a.b("x").c`` -> ["a","b","c"]),
    which is what lets ``TELEMETRY.registry.counter(...).inc(...)``
    resolve to its ``TELEMETRY.registry`` root.
    """
    parts: List[str] = []
    cur: ast.expr = node
    while True:
        if isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        elif isinstance(cur, ast.Call):
            cur = cur.func
        elif isinstance(cur, ast.Name):
            parts.append(cur.id)
            return list(reversed(parts))
        else:
            return None


def is_self_attr(node: ast.AST, attr: Optional[str] = None) -> bool:
    """``self.<attr>`` (any attr when ``attr`` is None)."""
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and (attr is None or node.attr == attr))


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".mypy_cache", ".pytest_cache"}


def iter_python_files(paths: Sequence[PathLike]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: Dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                seen.setdefault(path, None)
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    seen.setdefault(sub, None)
        else:
            raise AnalysisError(f"no such file or directory: {path}")
    return sorted(seen)


def canonical_rel(path: Path) -> str:
    """Stable posix path for findings and config matching.

    Relative to the current directory when possible, so findings read
    as ``src/repro/...`` regardless of how the path was spelled.
    """
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def analyze_paths(paths: Sequence[PathLike],
                  config: Optional["AnalysisConfig"] = None,
                  checkers: Optional[Sequence[type]] = None
                  ) -> Tuple[List[Finding], int]:
    """Run every checker over every target file.

    Returns ``(findings, files_checked)`` with noqa suppression already
    applied (baseline filtering is the caller's concern — see
    :func:`repro.analysis.baseline.apply_baseline`).
    """
    from .config import DEFAULT_CONFIG
    from . import DEFAULT_CHECKERS

    cfg = config if config is not None else DEFAULT_CONFIG
    checker_types = list(checkers if checkers is not None
                         else DEFAULT_CHECKERS)
    instances = [cls(cfg) for cls in checker_types]
    findings: List[Finding] = []
    files = iter_python_files(paths)
    for path in files:
        rel = canonical_rel(path)
        source = path.read_text(encoding="utf-8")
        try:
            ctx = ModuleContext(path, source, rel)
        except SyntaxError as exc:
            findings.append(Finding(
                path=rel, line=int(exc.lineno or 1), col=int(exc.offset or 1),
                rule=PARSE_RULE, message=f"cannot parse file: {exc.msg}",
                snippet=(exc.text or "").strip()))
            continue
        for checker in instances:
            for finding in checker.check(ctx):
                if not ctx.suppressed(finding):
                    findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings, len(files)


def all_rules(checkers: Optional[Sequence[type]] = None) -> List[RuleSpec]:
    """The rule catalogue of the given (default: all) checkers."""
    from . import DEFAULT_CHECKERS

    specs: List[RuleSpec] = [RuleSpec(PARSE_RULE, "file cannot be parsed")]
    for cls in (checkers if checkers is not None else DEFAULT_CHECKERS):
        specs.extend(cls.rules)
    return specs
