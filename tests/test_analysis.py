"""Tests for repro.analysis: the fixture corpus (exact file:line:rule
assertions per rule family), noqa suppression, baseline semantics, the
CLI gate, and the meta-test that the live tree is clean at head."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    ApiHygieneChecker,
    DeterminismChecker,
    Finding,
    LockDisciplineChecker,
    TelemetryGuardChecker,
    all_rules,
    analyze_paths,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis.config import AnalysisConfig, DEFAULT_CONFIG, LockSpec
from repro.core.errors import AnalysisError, ReproError

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "fixtures" / "analysis"
REPO_ROOT = TESTS_DIR.parent

#: Fixture-shaped configuration: same checkers, fixture-local scopes.
FIXTURE_CONFIG = AnalysisConfig(
    guarded_by={
        "fixtures/analysis/locks_cases.py": {
            "Account": LockSpec(guarded=frozenset({"balance", "history"})),
        },
    },
    determinism_modules=(
        "fixtures/analysis/determinism_cases.py",
        "fixtures/analysis/noqa_cases.py",
    ),
    error_taxonomy_modules=("fixtures/analysis/api_cases.py",),
)


def run_fixture(name, checker):
    findings, files = analyze_paths(
        [FIXTURES / name], config=FIXTURE_CONFIG, checkers=[checker])
    assert files == 1
    return [(f.line, f.rule) for f in findings]


# ----------------------------------------------------------------------
# Rule families against the fixture corpus
# ----------------------------------------------------------------------

def test_lock_discipline_fixture():
    assert run_fixture("locks_cases.py", LockDisciplineChecker) == [
        (23, "LOCK001"),   # read outside the lock
        (28, "LOCK001"),   # closure escape into a pool
        (31, "LOCK002"),   # _locked helper without the lock
    ]


def test_lock_closure_escape_message():
    findings, _ = analyze_paths([FIXTURES / "locks_cases.py"],
                                config=FIXTURE_CONFIG,
                                checkers=[LockDisciplineChecker])
    closure = [f for f in findings if f.line == 28]
    assert len(closure) == 1
    assert "closure" in closure[0].message


def test_determinism_fixture():
    assert run_fixture("determinism_cases.py", DeterminismChecker) == [
        (6, "DET001"),     # set literal in a for loop
        (13, "DET002"),    # .keys() in a comprehension
        (21, "DET003"),    # float-hinted sum()
    ]


def test_telemetry_guard_fixture():
    assert run_fixture("telemetry_cases.py", TelemetryGuardChecker) == [
        (8, "TEL001"),     # unguarded data-plane call
        (31, "TEL002"),    # manual .end() on an attached span
        (36, "TEL002"),    # span opened and discarded
    ]


def test_api_hygiene_fixture():
    assert run_fixture("api_cases.py", ApiHygieneChecker) == [
        (11, "API002"),    # bare ValueError in a taxonomy module
    ]


def test_noqa_suppression():
    # line-level noqa[DET001], bare noqa, and function-level noqa all
    # suppress; a noqa naming the wrong rule does not.
    assert run_fixture("noqa_cases.py", DeterminismChecker) == [
        (17, "DET001"),
    ]


def test_parse_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    findings, files = analyze_paths([bad], config=FIXTURE_CONFIG)
    assert files == 1
    assert [f.rule for f in findings] == ["PARSE001"]


def test_missing_path_raises():
    with pytest.raises(AnalysisError):
        analyze_paths([FIXTURES / "no_such_file.py"], config=FIXTURE_CONFIG)


def test_rule_catalogue_unique_and_complete():
    specs = all_rules()
    ids = [spec.rule for spec in specs]
    assert len(ids) == len(set(ids))
    assert set(ids) >= {
        "PARSE001", "LOCK001", "LOCK002", "DET001", "DET002", "DET003",
        "TEL001", "TEL002", "API002",
    }


def test_finding_format_and_sorting():
    finding = Finding(path="src/x.py", line=3, col=5, rule="DET001",
                      message="msg", snippet="for x in s:")
    assert finding.format() == "src/x.py:3:5: DET001 msg"
    assert finding.baseline_key() == "src/x.py::DET001::for x in s:"


# ----------------------------------------------------------------------
# Baseline semantics
# ----------------------------------------------------------------------

def _finding(snippet="x = 1", line=1):
    return Finding(path="src/a.py", line=line, col=1, rule="DET001",
                   message="m", snippet=snippet)


def test_baseline_roundtrip(tmp_path):
    path = tmp_path / "baseline.json"
    findings = [_finding(), _finding("y = 2", line=9)]
    save_baseline(path, findings)
    fresh, suppressed = apply_baseline(findings, load_baseline(path))
    assert fresh == []
    assert suppressed == 2


def test_baseline_survives_line_drift(tmp_path):
    path = tmp_path / "baseline.json"
    save_baseline(path, [_finding(line=10)])
    moved = [_finding(line=99)]  # same snippet, different line
    fresh, suppressed = apply_baseline(moved, load_baseline(path))
    assert fresh == []
    assert suppressed == 1


def test_baseline_is_a_multiset(tmp_path):
    # Two identical violations need two entries: fixing one of them must
    # surface the other.
    path = tmp_path / "baseline.json"
    save_baseline(path, [_finding()])
    dupes = [_finding(line=1), _finding(line=2)]
    fresh, suppressed = apply_baseline(dupes, load_baseline(path))
    assert suppressed == 1
    assert len(fresh) == 1


def test_baseline_missing_file():
    with pytest.raises(AnalysisError):
        load_baseline("/no/such/baseline.json")


def test_baseline_corrupt_and_unsupported(tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json", encoding="utf-8")
    with pytest.raises(AnalysisError):
        load_baseline(garbage)
    wrong_version = tmp_path / "version.json"
    wrong_version.write_text(json.dumps({"version": 99, "findings": []}),
                             encoding="utf-8")
    with pytest.raises(AnalysisError):
        load_baseline(wrong_version)
    keyless = tmp_path / "keyless.json"
    keyless.write_text(json.dumps({"version": 1, "findings": [{}]}),
                       encoding="utf-8")
    with pytest.raises(AnalysisError):
        load_baseline(keyless)


def test_analysis_error_is_in_taxonomy():
    assert issubclass(AnalysisError, ReproError)


# ----------------------------------------------------------------------
# CLI gate
# ----------------------------------------------------------------------

def _run_cli(*argv, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "analysis", "lint", *argv],
        capture_output=True, text=True, cwd=cwd, env=env)


def test_cli_rules_catalogue():
    proc = _run_cli("--rules")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert "LOCK001" in doc["rules"]
    assert "TEL001" in doc["rules"]


def test_cli_lint_reports_findings_as_json(tmp_path):
    # Under the default config the telemetry fixture still trips its
    # guard rules (TEL001/TEL002 apply to every non-exempt module).
    out = tmp_path / "findings.json"
    proc = _run_cli(str(FIXTURES / "telemetry_cases.py"),
                    "--format", "json", "--output", str(out))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["files_checked"] == 1
    assert [f["rule"] for f in doc["findings"]] == [
        "TEL001", "TEL002", "TEL002"]
    assert json.loads(out.read_text(encoding="utf-8")) == doc


def test_cli_update_baseline_then_clean(tmp_path):
    baseline = tmp_path / "baseline.json"
    proc = _run_cli(str(FIXTURES / "telemetry_cases.py"),
                    "--update-baseline", "--baseline", str(baseline))
    assert proc.returncode == 0
    proc = _run_cli(str(FIXTURES / "telemetry_cases.py"),
                    "--baseline", str(baseline), "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["findings"] == []
    assert doc["suppressed_by_baseline"] == 3


def test_cli_update_baseline_requires_path():
    proc = _run_cli(str(FIXTURES / "telemetry_cases.py"), "--update-baseline")
    assert proc.returncode == 2


# ----------------------------------------------------------------------
# Meta-test: the live tree is clean at head
# ----------------------------------------------------------------------

def test_live_tree_is_clean():
    findings, files = analyze_paths(
        [REPO_ROOT / "src", REPO_ROOT / "examples"], config=DEFAULT_CONFIG)
    assert files > 50
    assert [f.format() for f in findings] == []
