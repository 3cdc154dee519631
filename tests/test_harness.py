"""End-to-end workload harness tests.

Covers the full loop — spec validation and JSON round trips, a real
(unpaced) experiment run with oracle grading and trajectory output, the
schema of the emitted record, determinism of the workload side of the
record, the QueryTimings regression net (every QueryService route must
fill ``solve_calls``/``solve_route``), and the ``repro harness run``
CLI.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import (QueryService, QuerySpec, QueryTimings, WindowSpec,
                       qkey)
from repro.core.errors import HarnessError
from repro.datacube import CubeSchema, DataCube
from repro.harness import (ExperimentSpec, SCHEMA_VERSION, append_trajectory,
                           generate_schedule, load_trajectory, run_experiment)
from repro.summaries.moments_summary import MomentsSummary
from repro.window import build_panes

REPO = Path(__file__).resolve().parent.parent

SMALL = dict(name="unit", dataset="milan", rows=3000, cells=12,
             backends=("cube", "cluster"), k=10, duration_seconds=2.0,
             target_qps=12.0, ingest_fraction=0.25, ingest_batch_rows=250,
             paced=False, seed=3)


class TestExperimentSpec:
    def test_json_round_trip(self):
        spec = ExperimentSpec(**SMALL)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_rejects_unknown_fields(self):
        with pytest.raises(HarnessError):
            ExperimentSpec.from_dict({**SMALL, "frobnicate": 1})

    @pytest.mark.parametrize("bad", [
        {"backends": ("cube", "mongodb")},
        {"query_mix": (("quantile", 0.5), ("join", 0.5))},
        {"duration_seconds": 0.0},
        {"target_qps": -1.0},
        {"ingest_fraction": 1.5},
        {"burstiness": 1.0},
        {"quantiles": ()},
        {"epsilon": 0.0},
        {"rows": 0},
    ])
    def test_rejects_invalid_values(self, bad):
        with pytest.raises(HarnessError):
            ExperimentSpec(**{**SMALL, **bad})

    def test_num_events_is_qps_times_duration(self):
        spec = ExperimentSpec(**{**SMALL, "duration_seconds": 5.0,
                                 "target_qps": 20.0})
        assert spec.num_events == 100

    def test_mix_weights_normalized(self):
        spec = ExperimentSpec(**{**SMALL,
                                 "query_mix": (("quantile", 2.0),
                                               ("group_by", 2.0))})
        kinds, weights = spec.mix_weights()
        assert kinds == ("quantile", "group_by")
        assert weights == (0.5, 0.5)


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def record(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bench") / "BENCH_harness.json"
        record = run_experiment(ExperimentSpec(**SMALL),
                                trajectory_path=path,
                                fail_on_violation=True)
        return record, path

    def test_schema_and_envelope(self, record):
        record, path = record
        assert record["schema"] == SCHEMA_VERSION
        trajectory = load_trajectory(path)
        assert trajectory["schema"] == SCHEMA_VERSION
        assert trajectory["runs"] == [record]
        # The file is plain JSON a later analysis script can load.
        assert json.loads(path.read_text())["runs"][0]["spec"]["name"] == \
            "unit"

    def test_workload_accounting(self, record):
        record, _ = record
        workload = record["workload"]
        schedule = generate_schedule(ExperimentSpec(**SMALL))
        assert workload["events"] == len(schedule)
        assert workload["queries"] + workload["ingest_flushes"] \
            == workload["events"]
        assert workload["rows_ingested"] == SMALL["rows"] \
            + workload["ingest_flushes"] * SMALL["ingest_batch_rows"]
        assert workload["elapsed_seconds"] > 0
        assert workload["qps_achieved"] > 0

    def test_latency_covers_every_backend_and_kind(self, record):
        record, _ = record
        for backend in SMALL["backends"]:
            kinds = record["latency"][backend]
            assert "ingest" in kinds and "quantile" in kinds
            for kind, summary in kinds.items():
                if kind == "phase_totals":
                    assert summary["solve_calls"] > 0
                    continue
                assert summary["count"] > 0
                assert (summary["p50_seconds"] <= summary["p95_seconds"]
                        <= summary["p99_seconds"])

    def test_resources_sampled(self, record):
        record, _ = record
        assert record["resources"]["rss_max_bytes"] > 1_000_000

    def test_accuracy_graded_with_zero_violations(self, record):
        record, _ = record
        accuracy = record["accuracy"]
        assert accuracy["epsilon"] == 0.05
        for backend in SMALL["backends"]:
            graded = accuracy[backend]
            assert graded["checked"] > 0
            assert graded["violations"] == 0
            assert graded["max_rank_error"] <= 0.05
            assert len(graded["worst"]) <= 10
            # worst list is sorted most-wrong first
            errors = [w["rank_error"] for w in graded["worst"]]
            assert errors == sorted(errors, reverse=True)

    def test_cube_and_cluster_agree_bit_exactly(self, record):
        record, _ = record
        agreement = record["agreement"]["cluster"]
        assert agreement["queries"] > 0
        assert agreement["exact_matches"] == agreement["queries"]

    def test_workload_portion_deterministic(self, record, tmp_path):
        record, _ = record
        again = run_experiment(ExperimentSpec(**SMALL))
        assert again["workload"]["events"] == record["workload"]["events"]
        assert again["workload"]["queries"] == record["workload"]["queries"]
        assert again["accuracy"] == record["accuracy"]
        assert again["agreement"] == record["agreement"]

    def test_spec_coercion_from_dict_and_json(self, record):
        # run_experiment accepts the spec in any of its three forms.
        no_oracle = {**SMALL, "rows": 600, "duration_seconds": 0.5,
                     "target_qps": 8.0, "backends": ("cube",),
                     "oracle": False}
        from_dict = run_experiment(no_oracle)
        from_json = run_experiment(json.dumps({**no_oracle,
                                               "backends": ["cube"]}))
        assert "accuracy" not in from_dict
        assert from_dict["workload"] == from_json["workload"] \
            | {"elapsed_seconds": from_dict["workload"]["elapsed_seconds"],
               "qps_achieved": from_dict["workload"]["qps_achieved"]}

    def test_fail_on_violation_raises(self, tmp_path):
        # An absurdly tight ε cannot hold; the run must record, then
        # raise.
        path = tmp_path / "BENCH_harness.json"
        with pytest.raises(HarnessError, match="violations"):
            run_experiment(ExperimentSpec(**{**SMALL, "epsilon": 1e-9}),
                           trajectory_path=path, fail_on_violation=True)
        assert len(load_trajectory(path)["runs"]) == 1


class TestTrajectoryFile:
    def test_missing_file_is_empty_envelope(self, tmp_path):
        assert load_trajectory(tmp_path / "nope.json") \
            == {"schema": SCHEMA_VERSION, "runs": []}

    def test_append_accumulates(self, tmp_path):
        path = tmp_path / "t.json"
        for i in range(3):
            append_trajectory(path, {"schema": SCHEMA_VERSION, "i": i})
        assert [run["i"] for run in load_trajectory(path)["runs"]] \
            == [0, 1, 2]

    def test_corrupt_file_fails_loudly(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("not json{")
        with pytest.raises(HarnessError):
            load_trajectory(path)

    def test_wrong_schema_rejected(self, tmp_path):
        with pytest.raises(HarnessError):
            append_trajectory(tmp_path / "t.json", {"schema": "bogus/9"})


class TestQueryTimingsAlwaysFilled:
    """Satellite regression: every QueryService route fills the solve
    accounting — ``solve_calls`` and ``solve_route`` — not just the
    batched group paths."""

    @pytest.fixture(scope="class")
    def service(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(1.0, 1.0, 4000)
        cells = np.arange(values.size) // 200
        cube = DataCube(CubeSchema(("cell",)),
                        lambda: MomentsSummary(k=10))
        cube.ingest([cells], values)
        panes = build_panes(values, pane_size=200, k=10)
        return QueryService(cube=cube, window=panes), float(
            np.quantile(values, 0.9))

    def test_every_kind_reports_solve_route(self, service):
        service_obj, t = service
        specs = {
            "quantile": QuerySpec(kind="quantile", quantiles=(0.5, 0.99)),
            "cdf": QuerySpec(kind="cdf", thresholds=(t, t * 2)),
            "group_by": QuerySpec(kind="group_by", quantiles=(0.5,),
                                  group_dimension="cell"),
            "top_n": QuerySpec(kind="top_n", quantiles=(0.9,),
                               group_dimension="cell", n=3),
            "threshold_count": QuerySpec(kind="threshold_count",
                                         quantiles=(0.9,), thresholds=(t,),
                                         group_dimension="cell"),
        }
        for kind, spec in specs.items():
            response = service_obj.execute(spec, backend="cube")
            timings = response.timings
            assert timings.solve_route, kind
            assert timings.solve_calls > 0, kind

    def test_scalar_quantile_route(self, service):
        service_obj, _ = service
        response = service_obj.execute(
            QuerySpec(kind="quantile", quantiles=(0.5,)), backend="cube")
        assert response.timings.solve_route == "scalar"
        assert response.timings.solve_calls == 1

    def test_cdf_bounds_route(self, service):
        service_obj, t = service
        response = service_obj.execute(
            QuerySpec(kind="cdf", thresholds=(t, t * 2, t * 3)),
            backend="cube")
        assert response.timings.solve_route == "bounds"
        assert response.timings.solve_calls == 3

    def test_windowed_route(self, service):
        service_obj, t = service
        response = service_obj.execute(
            QuerySpec(kind="windowed", quantiles=(0.99,), thresholds=(t,),
                      window=WindowSpec(window_panes=4)), backend="window")
        assert response.timings.solve_route == "window"
        assert response.timings.solve_calls >= 1

    def test_timings_default_is_explicitly_unset(self):
        # The harness's in-loop check relies on the default being falsy.
        assert not QueryTimings().solve_route
        assert QueryTimings().solve_calls == 0


class TestHarnessCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})

    def test_run_with_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(ExperimentSpec(**SMALL).to_json())
        out_path = tmp_path / "BENCH_harness.json"
        proc = self._run("harness", "run", "--spec", str(spec_path),
                         "--out", str(out_path),
                         "--duration", "1.0", "--qps", "10")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["trajectory"] == str(out_path)
        trajectory = json.loads(out_path.read_text())
        assert trajectory["schema"] == SCHEMA_VERSION
        assert trajectory["runs"][0]["spec"]["duration_seconds"] == 1.0

    def test_run_with_inline_spec_no_out(self):
        inline = json.dumps({**SMALL, "backends": ["cube"],
                             "duration_seconds": 0.5, "target_qps": 8.0,
                             "rows": 600})
        proc = self._run("harness", "run", "--spec", inline, "--no-out")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert "trajectory" not in payload
        assert payload["workload"]["queries"] > 0

    def test_check_flag_fails_on_violation(self):
        inline = json.dumps({**SMALL, "duration_seconds": 0.5,
                             "target_qps": 8.0, "rows": 600,
                             "epsilon": 1e-9})
        proc = self._run("harness", "run", "--spec", inline, "--no-out",
                         "--check")
        assert proc.returncode != 0
        # The CLI surfaces errors as a structured JSON document.
        assert "violation" in json.loads(proc.stdout)["error"]


class TestStorageKnob:
    """The tiered backend inside the harness: knob validation, lossless
    agreement, cold-tier grading, and the record's storage section."""

    def test_storage_knob_round_trip(self):
        spec = ExperimentSpec(
            backends=("packed", "tiered"),
            storage={"hot_budget_bytes": 2048, "cold_fraction": 0.5})
        assert spec.storage_dict() == {"hot_budget_bytes": 2048,
                                       "cold_fraction": 0.5}
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_storage_knob_validation(self):
        with pytest.raises(HarnessError, match="unknown storage keys"):
            ExperimentSpec(backends=("tiered",), storage={"bogus": 1})
        with pytest.raises(HarnessError, match="cold_fraction"):
            ExperimentSpec(backends=("tiered",),
                           storage={"cold_fraction": 1.5})
        with pytest.raises(HarnessError, match="hot_budget_bytes"):
            ExperimentSpec(backends=("tiered",),
                           storage={"hot_budget_bytes": 0})
        with pytest.raises(HarnessError, match="tiered"):
            ExperimentSpec(backends=("cube",),
                           storage={"hot_budget_bytes": 2048})

    @pytest.fixture(scope="class")
    def tiered_record(self):
        spec = ExperimentSpec(
            name="tiered-unit", dataset="milan", rows=12_000, cells=16,
            backends=("packed", "tiered"), duration_seconds=1.0,
            target_qps=20.0, ingest_fraction=0.25, ingest_batch_rows=250,
            seed=3, storage={"hot_budget_bytes": 1024})
        return run_experiment(spec, fail_on_violation=True)

    def test_lossless_tiered_agrees_bit_exactly(self, tiered_record):
        agreement = tiered_record["agreement"]["tiered"]
        assert agreement["queries"] > 0
        assert agreement["exact_matches"] == agreement["queries"]

    def test_record_gains_storage_section(self, tiered_record):
        storage = tiered_record["storage"]
        assert storage["seals"] >= 1 and storage["segments"] >= 1
        assert storage["disk_bytes"] > 0 and storage["ram_bytes"] > 0
        assert storage["hot_budget_bytes"] == 1024
        assert storage["knobs"] == {"hot_budget_bytes": 1024}

    def test_cold_fraction_leaves_agreement_but_passes_epsilon(self):
        spec = ExperimentSpec(
            name="tiered-cold-unit", dataset="milan", rows=12_000,
            cells=16, backends=("packed", "tiered"), duration_seconds=1.0,
            target_qps=20.0, ingest_fraction=0.25, ingest_batch_rows=250,
            seed=3, storage={"hot_budget_bytes": 1024,
                             "cold_fraction": 1.0})
        record = run_experiment(spec, fail_on_violation=True)
        assert "tiered" not in record["agreement"]
        assert record["storage"]["cold_bytes"] > 0
        assert record["accuracy"]["tiered"]["violations"] == 0

    def test_cold_reference_backend_rejected(self):
        spec = ExperimentSpec(
            backends=("tiered", "packed"), rows=2000, cells=8,
            duration_seconds=0.5, target_qps=10.0,
            storage={"cold_fraction": 0.5})
        with pytest.raises(HarnessError, match="reference"):
            run_experiment(spec)
