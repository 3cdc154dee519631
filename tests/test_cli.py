"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    output = capsys.readouterr().out
    return code, json.loads(output)


@pytest.fixture()
def value_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "values.csv"
    np.savetxt(path, rng.lognormal(1.0, 1.0, 5000))
    return path


@pytest.fixture()
def sketch_file(tmp_path, value_file, capsys):
    path = tmp_path / "sketch.msk"
    code, _ = run_cli(capsys, "sketch", "build", str(value_file),
                      "-o", str(path), "--k", "10")
    assert code == 0
    return path


class TestSketchCommands:
    def test_build_reports_metadata(self, tmp_path, value_file, capsys):
        out = tmp_path / "s.msk"
        code, result = run_cli(capsys, "sketch", "build", str(value_file),
                               "-o", str(out))
        assert code == 0
        assert result["count"] == 5000
        assert result["size_bytes"] < 250
        assert out.exists()

    def test_build_without_log_moments(self, tmp_path, value_file, capsys):
        out = tmp_path / "s.msk"
        code, result = run_cli(capsys, "sketch", "build", str(value_file),
                               "-o", str(out), "--no-log")
        assert code == 0
        _, info = run_cli(capsys, "sketch", "info", str(out))
        assert info["log_moments"] is False

    def test_merge_and_query(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        data = rng.normal(10, 2, 8000)
        paths = []
        for i, chunk in enumerate(np.split(data, 4)):
            values = tmp_path / f"v{i}.csv"
            np.savetxt(values, chunk)
            sketch = tmp_path / f"s{i}.msk"
            run_cli(capsys, "sketch", "build", str(values), "-o", str(sketch))
            paths.append(str(sketch))
        merged = tmp_path / "merged.msk"
        code, result = run_cli(capsys, "sketch", "merge", *paths,
                               "-o", str(merged))
        assert code == 0 and result["count"] == 8000
        code, result = run_cli(capsys, "sketch", "query", str(merged),
                               "--q", "0.5", "0.9")
        assert code == 0
        assert result["quantiles"]["0.5"] == pytest.approx(10.0, abs=0.3)

    def test_threshold(self, sketch_file, capsys):
        code, result = run_cli(capsys, "sketch", "threshold", str(sketch_file),
                               "--t", "1e9", "--q", "0.99")
        assert code == 0
        assert result["exceeds"] is False
        assert result["decided_by"] == "simple"
        assert result["solve_route"] == "batched"

    def test_batched_flag_is_gone(self, sketch_file):
        with pytest.raises(SystemExit) as exc:
            main(["sketch", "query", str(sketch_file), "--batched"])
        assert exc.value.code == 2

    def test_spec_rejects_q_and_t_flags(self, sketch_file):
        spec = '{"kind": "quantile", "quantiles": [0.5]}'
        for argv in (["query", "--spec", spec, "--q", "0.9"],
                     ["threshold", "--spec", spec, "--q", "0.9"],
                     ["threshold", "--spec", spec, "--t", "5"],
                     ["bounds", "--spec", spec, "--t", "5"]):
            with pytest.raises(SystemExit) as exc:
                main(["sketch", argv[0], str(sketch_file), *argv[1:]])
            assert exc.value.code == 2

    def test_threshold_q_is_single_valued(self, sketch_file):
        with pytest.raises(SystemExit) as exc:
            main(["sketch", "threshold", str(sketch_file), "--t", "5",
                  "--q", "0.5", "0.9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("spec", [
        '{"kind": "quantile", "quantiles": "0.5"}',
        '{"kind": "quantile", "phi": 0.5}',
        '{"kind": "cdf", "t": "x"}',
        '{"kind": "quantile", "filters": [1, 2]}',
    ])
    def test_malformed_spec_is_query_error(self, sketch_file, capsys, spec):
        code, result = run_cli(capsys, "sketch", "query", str(sketch_file),
                               "--spec", spec)
        assert code == 1
        assert result["error"].startswith("QueryError: ")

    def test_query_spec_emits_query_response(self, sketch_file, capsys):
        code, result = run_cli(
            capsys, "sketch", "query", str(sketch_file), "--spec",
            '{"kind": "quantile", "quantiles": [0.5], "report_bounds": true}')
        assert code == 0
        assert result["kind"] == "quantile"
        assert "0.5" in result["estimates"]
        assert 0 < result["bounds"]["0.5"] <= 1
        assert set(result["timings"]) == {"planner_seconds", "merge_seconds",
                                          "solve_seconds", "solve_calls",
                                          "solve_route"}
        assert result["timings"]["solve_route"] == "scalar"
        # Flag-based invocation must agree with the spec-routed one.
        code, legacy = run_cli(capsys, "sketch", "query", str(sketch_file),
                               "--q", "0.5")
        assert legacy["quantiles"]["0.5"] == result["estimates"]["0.5"]

    def test_threshold_spec_route(self, sketch_file, capsys):
        code, result = run_cli(
            capsys, "sketch", "threshold", str(sketch_file), "--spec",
            '{"kind": "threshold_count", "q": 0.99, "t": 1e9}')
        assert code == 0
        assert result["value"] == 0.0
        assert result["groups"]["*"]["1000000000.0"]["exceeds"] is False

    def test_threshold_requires_t_without_spec(self, sketch_file, capsys):
        code, result = run_cli(capsys, "sketch", "threshold",
                               str(sketch_file))
        assert code == 1 and "error" in result

    def test_bad_spec_is_structured_error(self, sketch_file, capsys):
        code, result = run_cli(capsys, "sketch", "query", str(sketch_file),
                               "--spec", '{"kind": "nope"}')
        assert code == 1 and "error" in result

    def test_bounds(self, sketch_file, capsys):
        code, result = run_cli(capsys, "sketch", "bounds", str(sketch_file),
                               "--t", "3.0")
        assert code == 0
        assert 0 <= result["rtt"]["lower"] <= result["rtt"]["upper"] <= 5000
        assert result["rtt"]["upper"] - result["rtt"]["lower"] <= \
            result["markov"]["upper"] - result["markov"]["lower"] + 1e-6

    def test_info_reports_selection(self, sketch_file, capsys):
        code, result = run_cli(capsys, "sketch", "info", str(sketch_file))
        assert code == 0
        assert result["k"] == 10
        assert "selected_k1" in result

    def test_missing_file_is_structured_error(self, capsys):
        code, result = run_cli(capsys, "sketch", "info", "/nonexistent.msk")
        assert code == 2
        assert "error" in result


class TestDatasetCommands:
    def test_list(self, capsys):
        code, result = run_cli(capsys, "datasets", "list")
        assert code == 0
        assert "milan" in result["datasets"]

    def test_stats(self, capsys):
        code, result = run_cli(capsys, "datasets", "stats", "exponential",
                               "--rows", "20000")
        assert code == 0
        assert result["generated"]["mean"] == pytest.approx(1.0, rel=0.1)
        assert result["paper"]["mean"] == 1.0

    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code, result = run_cli(capsys, "datasets", "generate", "power",
                               "-o", str(out), "--rows", "5000")
        assert code == 0 and result["rows"] == 5000
        assert np.loadtxt(out).size == 5000

    def test_unknown_dataset_is_structured_error(self, capsys):
        code, result = run_cli(capsys, "datasets", "stats", "nope")
        assert code == 1
        assert "DatasetError" in result["error"]


class TestIngestCommand:
    @pytest.fixture()
    def row_csv(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "rows.csv"
        with path.open("w") as stream:
            stream.write("service,value\n")
            for service, value in zip(rng.choice(["api", "web"], 400),
                                      rng.lognormal(1.0, 1.0, 400)):
                stream.write(f"{service},{value}\n")
        return path

    def test_csv_into_cube_then_query(self, row_csv, capsys):
        code, result = run_cli(
            capsys, "ingest", str(row_csv),
            "--spec", '{"backend": "cube", "dimensions": ["service"]}',
            "--query", '{"kind": "group_by", "group_dimension": "service", '
                       '"quantiles": [0.5]}')
        assert code == 0
        assert result["backend"] == "cube"
        assert result["rows"] == 400
        assert result["cells"] == 2
        assert result["flushes"] == 1
        assert result["reports"][0]["trigger"] == "close"
        assert set(result["query"]["groups"]) == {"api", "web"}

    def test_jsonl_into_cluster_micro_batched(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        path = tmp_path / "rows.jsonl"
        with path.open("w") as stream:
            for i, value in enumerate(rng.lognormal(1.0, 1.0, 300)):
                stream.write(json.dumps({"cell": int(i % 10),
                                         "timestamp": float(i % 3),
                                         "value": float(value)}) + "\n")
        spec = {"backend": "cluster", "dimensions": ["cell"],
                "num_shards": 4, "replication": 2, "nodes": 2,
                "granularity": 1.0, "dedup_key": "cli-load",
                "flush_rows": 100}
        code, result = run_cli(
            capsys, "ingest", str(path), "--spec", json.dumps(spec),
            "--query", '{"kind": "quantile", "quantiles": [0.5, 0.99]}')
        assert code == 0
        assert result["rows"] == 300
        assert result["flushes"] == 3
        for index, report in enumerate(result["reports"]):
            assert report["sequence"] == ["cli-load", index]
            assert report["shards"] == 4
            assert report["replicas"] == 8  # 4 shards x 2 replicas
        assert result["query"]["count"] == 300.0

    def test_window_value_stream(self, tmp_path, capsys):
        path = tmp_path / "values.csv"
        with path.open("w") as stream:
            stream.write("value\n")
            for i in range(250):
                stream.write(f"{1.0 + (i % 7)}\n")
        spec = {"backend": "window", "pane_size": 50, "window_panes": 2}
        code, result = run_cli(
            capsys, "ingest", str(path), "--spec", json.dumps(spec),
            "--query", '{"kind": "quantile", "quantiles": [0.9]}')
        assert code == 0
        assert result["cells"] == 5  # sealed panes
        # The monitor retains the live window only (window_panes panes).
        assert result["query"]["cells_scanned"] == 2

    def test_missing_column_is_structured_error(self, row_csv, capsys):
        code, result = run_cli(
            capsys, "ingest", str(row_csv),
            "--spec", '{"backend": "cube", "dimensions": ["region"]}')
        assert code == 1
        assert "IngestError" in result["error"]
        assert "region" in result["error"]

    def test_spec_without_backend_is_structured_error(self, row_csv, capsys):
        code, result = run_cli(capsys, "ingest", str(row_csv),
                               "--spec", '{"dimensions": ["service"]}')
        assert code == 1
        assert "IngestError" in result["error"]


class TestClusterCommands:
    def test_demo_bit_exact_failover(self, capsys):
        code, result = run_cli(capsys, "cluster", "demo",
                               "--rows", "8000", "--nodes", "3",
                               "--shards", "8", "--cells", "40")
        assert code == 0
        assert result["matches_single_process"] is True
        assert result["failover"]["answers_unchanged"] is True
        assert result["failover"]["repaired"] is True
        assert result["failover"]["rebalance"]["copied_shards"] >= 0
        assert set(result["timings"]) == {"route_seconds", "scatter_seconds",
                                          "merge_seconds", "solve_seconds"}
        assert result["topology"]["cells"] == 40

    def test_demo_no_repair_serves_degraded(self, capsys):
        code, result = run_cli(capsys, "cluster", "demo",
                               "--rows", "5000", "--nodes", "3",
                               "--shards", "8", "--cells", "25",
                               "--no-repair", "--kill", "node-0",
                               "--q", "0.9")
        assert code == 0
        assert result["failover"]["killed"] == "node-0"
        assert result["failover"]["answers_unchanged"] is True
        assert result["failover"]["rebalance"] is None
        assert list(result["quantiles"]) == ["0.9"]

    def test_placement_reports_movement(self, capsys):
        code, result = run_cli(capsys, "cluster", "placement",
                               "--nodes", "4", "--shards", "64")
        assert code == 0
        assert sum(result["primary_shards_per_node"].values()) == 64
        assert 0 < result["moved_fraction"] < 1


class TestStorageCommands:
    @pytest.fixture()
    def tiered_dir(self, tmp_path):
        from repro.storage import TieredStore
        rng = np.random.default_rng(0)
        home = tmp_path / "tiers"
        with TieredStore(home, k=7, dimensions=("cell",),
                         hot_budget_bytes=1500) as store:
            for _ in range(8):
                store.ingest_columns(
                    [rng.integers(0, 400, 200).astype(str)],
                    rng.lognormal(0, 1, 200) + 0.01)
            assert len(store.stats()["segments"]) >= 3
        return home

    def test_inspect_reports_geometry(self, tiered_dir, capsys):
        segment = sorted(tiered_dir.glob("seg-*.rsg"))[0]
        code, result = run_cli(capsys, "storage", "inspect", str(segment))
        assert code == 0
        assert result["kind"] == "warm" and result["k"] == 7
        assert result["rows"] >= 1 and result["size_bytes"] > 0
        assert result["min_key"] <= result["max_key"]
        assert "keys" not in result
        code, with_keys = run_cli(capsys, "storage", "inspect",
                                  str(segment), "--keys")
        assert code == 0 and len(with_keys["keys"]) == result["rows"]

    def test_inspect_detects_corruption(self, tiered_dir, capsys):
        segment = sorted(tiered_dir.glob("seg-*.rsg"))[0]
        blob = bytearray(segment.read_bytes())
        blob[50] ^= 0xFF
        segment.write_bytes(bytes(blob))
        code, result = run_cli(capsys, "storage", "inspect", str(segment))
        assert code == 1 and "checksum" in result["error"]

    def test_compact_reduces_segments(self, tiered_dir, capsys):
        code, result = run_cli(capsys, "storage", "compact",
                               str(tiered_dir))
        assert code == 0
        assert result["segments_after"] < result["segments_before"]
        assert result["rows_after"] <= result["rows_before"]
        assert result["disk_bytes_after"] < result["disk_bytes_before"]

    def test_compact_demote_cold(self, tiered_dir, capsys):
        code, result = run_cli(capsys, "storage", "compact",
                               str(tiered_dir), "--demote-cold")
        assert code == 0
        assert all(seg["kind"] == "cold" for seg in result["segments"])
