"""Bench document tests: schema, comparison gate, recorder, CLI, suite.

The perf-trajectory machinery must be trustworthy end to end: documents
validate against the ``repro.obs.bench/1`` schema, ``--compare`` flags an
injected slowdown (and exits 1 through the CLI), the shared pytest
recorder merges across invocations, and the pinned smoke suite covers
the required pipeline stages.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ObservabilityError
from repro.obs.bench import (
    BENCH_SCHEMA,
    BenchRecorder,
    compare_bench_documents,
    environment_fingerprint,
    load_bench_document,
    make_bench_document,
    render_bench_document,
    render_profile_document,
    stage_names,
    validate_bench_document,
    write_bench_document,
)
from repro.obs.profile import PIPELINE_STAGES, StageProfiler


def _document(wall=1.0, stage_self=0.5):
    prof = StageProfiler(clock=_ticker(stage_self))
    with prof.stage("sim.run"):
        pass
    return make_bench_document(
        "test",
        {
            "scenario_a": {
                "wall_seconds": wall,
                "events_processed": 100,
                "events_per_second": 100 / wall,
                "stages": prof.stages(),
                "edges": prof.edges(),
            }
        },
    )


def _ticker(step):
    state = {"now": 0.0}

    def clock():
        current = state["now"]
        state["now"] += step
        return current

    return clock


class TestSchema:
    def test_valid_document_passes(self):
        assert validate_bench_document(_document()) == []

    def test_env_fingerprint_fields(self):
        env = environment_fingerprint()
        for field in ("python", "platform", "cpu_count"):
            assert field in env

    def test_missing_wall_seconds_flagged(self):
        doc = _document()
        del doc["scenarios"]["scenario_a"]["wall_seconds"]
        assert any("wall_seconds" in p for p in validate_bench_document(doc))

    def test_wrong_schema_flagged(self):
        doc = _document()
        doc["schema"] = "bogus/9"
        assert validate_bench_document(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("where", ["wall_seconds", "stage self_seconds"])
    def test_non_finite_or_negative_time_is_refused(self, where, value):
        # NaN makes every slowdown ratio NaN, which exceeds no threshold;
        # a refused document cannot blind the regression gate.
        doc = _document()
        scenario = doc["scenarios"]["scenario_a"]
        if where == "wall_seconds":
            scenario["wall_seconds"] = value
        else:
            scenario["stages"]["sim.run"]["self_seconds"] = value
        problems = validate_bench_document(doc)
        assert len(problems) == 1, problems
        assert ("finite" in problems[0]) != (value == -1.0)

    def test_stage_counts_must_sum_to_calls(self):
        doc = _document()
        stage = doc["scenarios"]["scenario_a"]["stages"]["sim.run"]
        stage["counts"][0] += 5
        assert any("counts" in p for p in validate_bench_document(doc))

    def test_stage_names_union(self):
        doc = _document()
        doc["scenarios"]["b"] = {
            "wall_seconds": 0.1,
            "stages": {"wire.encode": doc["scenarios"]["scenario_a"]["stages"]["sim.run"]},
        }
        assert stage_names(doc) == ["sim.run", "wire.encode"]

    def test_write_load_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        doc = _document()
        write_bench_document(path, doc)
        assert load_bench_document(path) == doc

    def test_write_rejects_invalid(self, tmp_path):
        doc = _document()
        doc["scenarios"] = {}
        with pytest.raises(ObservabilityError):
            write_bench_document(tmp_path / "bad.json", doc)

    def test_load_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ObservabilityError):
            load_bench_document(path)


class TestCompare:
    def test_no_regression_on_identical_documents(self):
        doc = _document(wall=1.0)
        lines, regressions = compare_bench_documents(doc, doc)
        assert regressions == []
        assert lines

    def test_injected_slowdown_is_flagged(self):
        old = _document(wall=1.0, stage_self=0.5)
        new = _document(wall=3.0, stage_self=2.0)
        lines, regressions = compare_bench_documents(old, new, threshold=2.0)
        assert regressions
        measurements = {r["measurement"] for r in regressions}
        assert "wall" in measurements
        assert any("sim.run" in m for m in measurements)
        assert any("REGRESSION" in line for line in lines)

    def test_speedup_is_not_a_regression(self):
        old = _document(wall=3.0, stage_self=2.0)
        new = _document(wall=1.0, stage_self=0.5)
        _lines, regressions = compare_bench_documents(old, new)
        assert regressions == []

    def test_noise_floor_suppresses_tiny_measurements(self):
        old = _document(wall=0.001)
        new = _document(wall=0.004)  # 4x but under min_seconds
        _lines, regressions = compare_bench_documents(
            old, new, min_seconds=0.005
        )
        assert all(r["measurement"] != "wall" for r in regressions)

    def test_threshold_must_exceed_one(self):
        doc = _document()
        with pytest.raises(ObservabilityError):
            compare_bench_documents(doc, doc, threshold=1.0)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_is_refused(self, threshold):
        # Either would flag nothing: no ratio exceeds NaN or inf.
        old = _document(wall=1.0, stage_self=0.5)
        new = _document(wall=10.0, stage_self=5.0)
        with pytest.raises(ObservabilityError, match="finite"):
            compare_bench_documents(old, new, threshold=threshold)

    def test_new_scenario_is_not_compared(self):
        old = _document()
        new = _document()
        new["scenarios"]["fresh"] = {"wall_seconds": 99.0}
        _lines, regressions = compare_bench_documents(old, new)
        assert regressions == []


class TestRenderers:
    def test_render_bench_document_mentions_scenarios(self):
        lines = render_bench_document(_document())
        text = "\n".join(lines)
        assert "scenario_a" in text
        assert "test" in text

    def test_render_profile_document_has_table_and_tree(self):
        lines = render_profile_document(_document())
        text = "\n".join(lines)
        assert "sim.run" in text
        assert "call tree" in text

    def test_render_profile_document_unknown_scenario(self):
        with pytest.raises(ObservabilityError):
            render_profile_document(_document(), scenario="nope")


class TestBenchRecorder:
    def test_record_and_flush(self, tmp_path):
        path = tmp_path / "BENCH_pytest.json"
        recorder = BenchRecorder(path, suite="pytest-test")
        recorder.record("guard_a", 0.25, overhead_ratio=1.02)
        doc = recorder.flush()
        assert doc["schema"] == BENCH_SCHEMA
        assert validate_bench_document(doc) == []
        on_disk = load_bench_document(path)
        assert on_disk["scenarios"]["guard_a"]["overhead_ratio"] == 1.02

    def test_flush_merges_with_existing_file(self, tmp_path):
        path = tmp_path / "BENCH_pytest.json"
        first = BenchRecorder(path, suite="pytest-test")
        first.record("guard_a", 0.25)
        first.flush()
        second = BenchRecorder(path, suite="pytest-test")
        second.record("guard_b", 0.5)
        second.flush()
        doc = load_bench_document(path)
        assert set(doc["scenarios"]) == {"guard_a", "guard_b"}

    def test_flush_without_entries_is_noop(self, tmp_path):
        path = tmp_path / "BENCH_pytest.json"
        assert BenchRecorder(path, suite="s").flush() is None
        assert not path.exists()

    def test_flush_overwrites_corrupt_file(self, tmp_path):
        path = tmp_path / "BENCH_pytest.json"
        path.write_text("garbage", encoding="utf-8")
        recorder = BenchRecorder(path, suite="pytest-test")
        recorder.record("guard_a", 0.25)
        recorder.flush()
        assert load_bench_document(path)["scenarios"]["guard_a"]


class TestSmokeSuite:
    @pytest.fixture(scope="class")
    def smoke_document(self):
        from repro.experiments.bench import run_bench_suite

        return run_bench_suite("smoke")

    def test_document_validates(self, smoke_document):
        assert validate_bench_document(smoke_document) == []

    def test_covers_required_pipeline_stages(self, smoke_document):
        covered = set(stage_names(smoke_document))
        required = set(PIPELINE_STAGES) - {"multihop"}
        # The acceptance bar: at least 8 named pipeline stages across
        # sim, sweep, and live scenarios.
        assert len(covered & set(PIPELINE_STAGES)) >= 8, sorted(covered)
        missing = required - covered
        assert not missing, f"stages never profiled: {sorted(missing)}"

    def test_parallel_sweep_absorbs_worker_call_edges(self, smoke_document):
        sweep = smoke_document["scenarios"]["parallel_sweep"]
        edges = {(edge["parent"], edge["stage"]) for edge in sweep["edges"]}
        assert ("", "sweep.cell") in edges
        assert ("sweep.cell", "sim.run") in edges
        # Only the workers' cells mark; the sweep's own process merges.
        assert ("tool.result", "marking.apply") in edges
        assert ("", "registry.merge") in edges
        assert sweep["stages"]["sim.run"]["calls"] == 2  # one per worker cell

    def test_scenarios_have_throughput(self, smoke_document):
        for name, scenario in smoke_document["scenarios"].items():
            assert scenario["wall_seconds"] > 0, name
            assert scenario["events_per_second"] > 0, name
            assert scenario["config_digest"], name

    def test_unknown_suite_raises(self):
        from repro.errors import ConfigurationError
        from repro.experiments.bench import run_bench_suite

        with pytest.raises(ConfigurationError):
            run_bench_suite("nope")


class TestCli:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_compare_exit_codes(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _document(wall=1.0))
        same = self._write(tmp_path, "same.json", _document(wall=1.1))
        slow = self._write(
            tmp_path, "slow.json", _document(wall=5.0, stage_self=3.0)
        )
        assert main(["bench", "--compare", str(old), str(same)]) == 0
        assert main(["bench", "--compare", str(old), str(slow)]) == 1
        out = capsys.readouterr()
        assert "REGRESSION" in out.out

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_compare_refuses_a_document_with_a_bad_time(
        self, tmp_path, capsys, value
    ):
        old = self._write(tmp_path, "old.json", _document())
        bad_doc = _document(wall=10.0, stage_self=5.0)
        for scenario in bad_doc["scenarios"].values():
            scenario["wall_seconds"] = value
            for stage in scenario["stages"].values():
                stage["self_seconds"] = value
        bad = self._write(tmp_path, "bad.json", bad_doc)
        assert main(["bench", "--compare", str(old), str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad} failed validation" in err
        assert main(["obs", "validate", "--bench", str(bad)]) == 1

    def test_obs_validate_bench(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.json", _document())
        assert main(["obs", "validate", "--bench", str(good)]) == 0
        bad_doc = _document()
        bad_doc["schema"] = "nope"
        bad = self._write(tmp_path, "bad.json", bad_doc)
        assert main(["obs", "validate", "--bench", str(bad)]) == 1

    def test_obs_profile_renders(self, tmp_path, capsys):
        path = self._write(tmp_path, "BENCH_x.json", _document())
        assert main(["obs", "profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sim.run" in out

    def test_obs_summary_slow_spans(self, tmp_path, capsys):
        metrics = self._write(
            tmp_path,
            "metrics.json",
            {"schema": "repro.obs.metrics/1", "manifest": None,
             "metrics": {"counters": {}, "gauges": {}, "histograms": {},
                         "series": {}}},
        )
        trace = tmp_path / "trace.jsonl"
        spans = [
            {"type": "span", "name": f"span-{i}", "t0": float(i),
             "dur": float(i), "attrs": {"cell": f"c{i}"}}
            for i in range(5)
        ]
        trace.write_text(
            "\n".join(json.dumps(s) for s in spans) + "\n", encoding="utf-8"
        )
        assert main([
            "obs", "summary", str(metrics), "--trace", str(trace),
            "--slow", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "span-4" in out          # slowest first
        assert "span-1" not in out      # beyond top-3
        assert "cell=c4" in out

    def test_bench_smoke_writes_validated_document(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--suite", "smoke"]) == 0
        doc = load_bench_document(tmp_path / "BENCH_smoke.json")
        assert validate_bench_document(doc) == []
        assert main(
            ["obs", "validate", "--bench", str(tmp_path / "BENCH_smoke.json")]
        ) == 0
