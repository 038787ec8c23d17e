"""Integration tests: instrumentation threaded through the pipeline.

Covers the observability acceptance criteria:

* same-seed runs produce byte-identical metric snapshots,
* exported metrics documents and trace files validate against the schemas,
* run manifests carry provenance + timing + headline metrics,
* budget exhaustion is structured (events/sim-time on the exception),
* drop attribution separates injected-fault drops from queue tail drops,
* the CLI round-trips ``--metrics-out``/``--trace-out`` through
  ``obs validate`` and ``obs summary``.
"""

import json

import pytest

from repro.cli import main
from repro.errors import BudgetExhaustedError
from repro.experiments.runner import (
    run_badabing,
    run_protected,
    run_zing,
    sweep_badabing,
)
from repro.net.faults import FaultProfile
from repro.obs import (
    TRACE_SCHEMA,
    MetricsRegistry,
    NullRegistry,
    StageProfiler,
    Tracer,
    metrics_document,
    profiling,
    validate_metrics_document,
    validate_trace_lines,
)
from repro.obs.manifest import MANIFEST_SCHEMA

RUN_KWARGS = dict(
    scenario="episodic_cbr",
    p=0.3,
    n_slots=1500,
    seed=3,
    warmup=2.0,
    scenario_kwargs={"mean_spacing": 2.0},
)


def _run(metrics=None, **overrides):
    kwargs = dict(RUN_KWARGS, **overrides)
    return run_badabing(metrics=metrics, **kwargs)


class TestDeterminism:
    def test_same_seed_same_snapshot(self):
        snaps = []
        for _ in range(2):
            registry = MetricsRegistry()
            _run(metrics=registry)
            snaps.append(registry.snapshot())
        assert snaps[0] == snaps[1]
        # and it is truly byte-identical once serialized
        assert json.dumps(snaps[0], sort_keys=True) == json.dumps(
            snaps[1], sort_keys=True
        )

    def test_different_seed_different_snapshot(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        _run(metrics=a, seed=3)
        _run(metrics=b, seed=4)
        assert a.snapshot() != b.snapshot()

    def test_same_seed_same_deterministic_manifest(self):
        result_a, _ = _run(metrics=MetricsRegistry())
        result_b, _ = _run(metrics=MetricsRegistry())
        assert (
            result_a.manifest.deterministic_dict()
            == result_b.manifest.deterministic_dict()
        )

    def test_null_registry_estimates_match_enabled(self):
        result_null, truth_null = _run(metrics=NullRegistry())
        result_on, truth_on = _run(metrics=MetricsRegistry())
        assert result_null.frequency == result_on.frequency
        assert truth_null.frequency == truth_on.frequency
        assert result_null.n_probes_sent == result_on.n_probes_sent


class TestManifest:
    def test_manifest_fields(self):
        registry = MetricsRegistry()
        result, _ = _run(metrics=registry)
        manifest = result.manifest
        assert manifest is not None
        assert manifest.tool == "badabing"
        assert manifest.seed == 3
        assert manifest.schema == MANIFEST_SCHEMA
        assert len(manifest.config_digest) == 64
        assert manifest.events_processed > 0
        assert manifest.sim_seconds > 0
        assert manifest.wall_seconds > 0
        assert manifest.sim_rate > 0
        assert manifest.metrics["probe.packets_sent"] > 0

    def test_manifest_attached_even_without_registry(self):
        # Default (no explicit registry) still instruments: on by default.
        result, _ = _run()
        assert result.manifest is not None
        assert result.manifest.metrics["sim.events_processed"] > 0

    def test_config_digest_tracks_configuration(self):
        result_a, _ = _run()
        result_b, _ = _run(p=0.5)
        assert result_a.manifest.config_digest != result_b.manifest.config_digest

    def test_zing_manifest(self):
        result, _ = run_zing(
            "episodic_cbr",
            mean_interval=0.05,
            packet_size=64,
            duration=10.0,
            seed=3,
            warmup=2.0,
            scenario_kwargs={"mean_spacing": 2.0},
            metrics=MetricsRegistry(),
        )
        assert result.manifest.tool == "zing"
        assert result.manifest.metrics["probe.packets_sent"] > 0

    def test_manifest_roundtrip(self):
        from repro.obs import RunManifest

        result, _ = _run()
        again = RunManifest.from_dict(result.manifest.to_dict())
        assert again.to_dict() == result.manifest.to_dict()


class TestSchemas:
    def test_metrics_document_validates(self):
        registry = MetricsRegistry()
        result, _ = _run(metrics=registry)
        document = metrics_document(registry, result.manifest)
        assert validate_metrics_document(document) == []

    def test_trace_validates(self, tmp_path):
        tracer = Tracer(tool="badabing", seed=3)
        with profiling(StageProfiler(tracer=tracer)):
            _run(metrics=MetricsRegistry())
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        with open(path, "r", encoding="utf-8") as handle:
            assert validate_trace_lines(handle) == []
        names = {span["name"] for span in tracer.spans}
        assert {"testbed.build", "sim.run", "probe.join", "tool.result"} <= names

    BAD_TIMES = (-1.0, float("-inf"), float("nan"), float("inf"))

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            pytest.param("dur", value, "negative or non-finite duration", id=str(value))
            for value in BAD_TIMES
        ]
        + [
            pytest.param("t0", value, "negative or non-finite start time", id=f"t0={value}")
            for value in BAD_TIMES
        ]
        + [
            pytest.param(
                field, value, f"span field {field!r} missing or mistyped",
                id=f"{field}={value!r}",
            )
            for field in ("t0", "dur")
            for value in (True, "0")
        ],
    )
    def test_trace_duration_must_be_finite_and_non_negative(self, field, value, problem):
        meta = json.dumps({"type": "meta", "schema": TRACE_SCHEMA})
        span = {"type": "span", "name": "sim.run", "t0": 0.0, "dur": 0.0, "attrs": {}}
        span[field] = value
        assert validate_trace_lines([meta, json.dumps(span)]) == [
            f"trace line 2: {problem}"
        ]

    def test_validator_catches_corruption(self):
        registry = MetricsRegistry()
        result, _ = _run(metrics=registry)
        document = metrics_document(registry, result.manifest)
        document["metrics"]["counters"]["bad"] = "not-a-number"
        del document["manifest"]["seed"]
        problems = validate_metrics_document(document)
        assert any("bad" in p for p in problems)
        assert any("seed" in p for p in problems)


class TestBudgetExhaustion:
    def test_structured_error(self):
        with pytest.raises(BudgetExhaustedError) as excinfo:
            _run(max_events=500)
        exc = excinfo.value
        assert exc.events_processed == 500
        assert exc.budget == 500
        assert exc.sim_time is not None and exc.sim_time >= 0
        assert "budget exhausted" in str(exc)

    def test_run_protected_flags_budget(self):
        outcome = run_protected(
            run_badabing, label="tiny", **dict(RUN_KWARGS, max_events=500)
        )
        assert not outcome.ok
        assert outcome.budget_exhausted
        assert outcome.error_type == "BudgetExhaustedError"


class TestDropAttribution:
    def test_fault_drops_and_tail_drops_are_distinguished(self):
        registry = MetricsRegistry()
        profile = FaultProfile(drop_probability=0.05)
        keep = {}
        _run(metrics=registry, faults=profile, keep=keep)
        counters = registry.snapshot()["counters"]
        fault_drops = {
            key: value
            for key, value in counters.items()
            if key.startswith("faults.drops{")
        }
        tail_drops = {
            key: value
            for key, value in counters.items()
            if key.startswith("queue.drops{") and "cause=tail" in key
        }
        assert sum(fault_drops.values()) == keep["fault_injector"].stats.dropped
        assert all("cause=random" in key for key in fault_drops)
        # Congested bottleneck still tail-drops independently of the faults.
        assert sum(tail_drops.values()) > 0
        bottleneck_tail = sum(
            value
            for key, value in tail_drops.items()
            if "queue=bottleneck" in key
        )
        assert bottleneck_tail == keep["testbed"].monitor.total_drops

    def test_queue_drop_counter_matches_stats(self):
        registry = MetricsRegistry()
        keep = {}
        _run(metrics=registry, keep=keep)
        counters = registry.snapshot()["counters"]
        assert (
            counters["queue.dropped_packets{queue=bottleneck}"]
            == keep["testbed"].monitor.total_drops
        )


class TestSweepTelemetry:
    def test_shared_registry_across_cells(self):
        registry = MetricsRegistry()
        tracer = Tracer(kind="sweep")
        with profiling(StageProfiler(tracer=tracer)):
            outcomes = sweep_badabing(
                [
                    {"seed": 3},
                    {"seed": 4},
                    {"seed": 5, "max_events": 500, "label": "doomed"},
                ],
                metrics=registry,
                **{k: v for k, v in RUN_KWARGS.items() if k != "seed"},
            )
        assert [o.ok for o in outcomes] == [True, True, False]
        counters = registry.snapshot()["counters"]
        assert counters["sweep.cells{status=ok}"] == 2
        assert counters["sweep.cells{status=budget_exhausted}"] == 1
        assert counters["sweep.degraded_cells"] == 1
        cell_spans = [s for s in tracer.spans if s["name"] == "sweep.cell"]
        assert len(cell_spans) == 3
        # Each successful cell's manifest reports only its own events.
        manifests = [o.result.manifest for o in outcomes if o.ok]
        total = counters["sim.events_processed"]
        assert all(0 < m.events_processed < total for m in manifests)


class TestCli:
    def test_measure_exports_and_obs_roundtrip(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "measure", "episodic_cbr", "--slots", "1500", "--seed", "3",
                "--profile", "smoke",
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        assert metrics_path.exists() and trace_path.exists()
        capsys.readouterr()

        assert main(["obs", "validate", str(metrics_path), "--trace", str(trace_path)]) == 0
        assert "validation OK" in capsys.readouterr().out

        assert main(["obs", "summary", str(metrics_path), "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "manifest:" in out
        assert "probe.packets_sent" in out
        assert "sim.run" in out

    def test_obs_validate_fails_on_corrupt_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "wrong", "metrics": {}}))
        assert main(["obs", "validate", str(path)]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_zing_exports(self, tmp_path, capsys):
        metrics_path = tmp_path / "zing.json"
        code = main(
            [
                "zing", "episodic_cbr", "--rate", "20", "--duration", "10",
                "--profile", "smoke", "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        document = json.loads(metrics_path.read_text())
        assert validate_metrics_document(document) == []
        assert document["manifest"]["tool"] == "zing"
