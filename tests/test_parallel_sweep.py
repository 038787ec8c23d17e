"""Parallel sweep engine: equivalence, crash isolation, deadlines.

The determinism contract under test: ``sweep_badabing(cells, workers=N)``
must produce the same ordered outcome list, the same merged metrics
snapshot, the same scorecard digest, the same progress records and the
same profiled stage counts as the serial sweep on the same cells and
seeds — and a crashing cell or a worker that dies hard must surface as a
structured failed ``RunOutcome`` instead of killing the sweep.

The crash runners live at module top level so the ``spawn`` start method
can import them in worker processes.
"""

import os
from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.experiments.parallel import execute_parallel_sweep
from repro.experiments.runner import (
    HEARTBEAT_BEATS,
    CellPayload,
    RunBudget,
    deadline_outcome,
    scorecard_from_outcomes,
    sweep_badabing,
)
from repro.obs.audit import scorecard_digest
from repro.obs.export import TelemetryExporter, read_export_records
from repro.obs.metrics import MetricsRegistry, snapshot_digest
from repro.obs.profile import StageProfiler, profiling
from repro.obs.tracing import Tracer

CELL = dict(
    scenario="episodic_cbr",
    n_slots=1500,
    warmup=2.0,
    scenario_kwargs={"mean_spacing": 2.0},
)

#: Seed that makes the crash runners die hard (see below).
KILL_SEED = 666


def exit_hard_runner(seed, **kwargs):
    """A runner that takes its whole worker process down for KILL_SEED."""
    if seed == KILL_SEED:
        os._exit(1)
    return f"ok-{seed}", None


def unpicklable_result_runner(seed, **kwargs):
    """A runner whose successful result cannot cross the process boundary."""
    if seed == KILL_SEED:
        return (lambda: None), None
    return f"ok-{seed}", None


def _noop_runner(seed, **kwargs):
    return f"ok-{seed}", None


def _slow_runner(seed, **kwargs):
    import time

    time.sleep(0.25)
    return f"ok-{seed}", None


def _payloads(seeds, runner):
    return [
        CellPayload(index=i, label=f"cell-{i}", seed=seed, kwargs={}, runner=runner)
        for i, seed in enumerate(seeds)
    ]


class TestSerialParallelEquivalence:
    def test_outcomes_metrics_and_scorecard_are_byte_identical(self):
        cells = [{"p": p, "seed": seed} for p in (0.3, 0.5) for seed in (1, 2)]
        serial_registry = MetricsRegistry()
        serial = sweep_badabing(cells, metrics=serial_registry, **CELL)
        parallel_registry = MetricsRegistry()
        parallel = sweep_badabing(
            cells, metrics=parallel_registry, workers=2, **CELL
        )
        assert [o.label for o in serial] == [o.label for o in parallel]
        assert [o.seeds for o in serial] == [o.seeds for o in parallel]
        assert all(o.ok for o in parallel)
        serial_snapshot = serial_registry.snapshot()
        parallel_snapshot = parallel_registry.snapshot()
        assert serial_snapshot == parallel_snapshot
        assert snapshot_digest(serial_snapshot) == snapshot_digest(parallel_snapshot)
        assert scorecard_digest(scorecard_from_outcomes(serial)) == scorecard_digest(
            scorecard_from_outcomes(parallel)
        )

    def test_merged_series_are_labeled_per_cell_and_monotonic(self):
        from repro.obs.schema import validate_metrics_document
        from repro.obs import metrics_document

        registry = MetricsRegistry()
        outcomes = sweep_badabing(
            [{"p": 0.3, "seed": 1}, {"p": 0.3, "seed": 2}],
            metrics=registry,
            workers=2,
            **CELL,
        )
        assert all(o.ok for o in outcomes)
        snapshot = registry.snapshot()
        audit_series = [k for k in snapshot["series"] if k.startswith("audit.f_hat")]
        assert len(audit_series) == 2  # one per cell, not one interleaved stream
        assert all("cell=" in key for key in audit_series)
        assert validate_metrics_document(metrics_document(registry)) == []

    def test_parallel_tracer_absorbs_one_cell_span_per_cell(self):
        tracer = Tracer(kind="sweep")
        with profiling(StageProfiler(tracer=tracer)):
            outcomes = sweep_badabing(
                [{"p": 0.3, "seed": 1}, {"p": 0.3, "seed": 2}],
                workers=2,
                **CELL,
            )
        assert all(o.ok for o in outcomes)
        cell_spans = [s for s in tracer.spans if s["name"] == "sweep.cell"]
        assert len(cell_spans) == 2
        assert {s["attrs"]["label"] for s in cell_spans} == {
            o.label for o in outcomes
        }

    def test_parallel_rejects_live_per_cell_objects(self):
        with pytest.raises(ConfigurationError):
            sweep_badabing(
                [{"p": 0.3, "metrics": MetricsRegistry()}], workers=2, **CELL
            )


class TestWorkerCrashIsolation:
    def test_worker_death_becomes_failed_outcome_and_sweep_completes(self):
        outcomes = execute_parallel_sweep(
            _payloads([1, KILL_SEED, 2], exit_hard_runner), workers=1
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[0].result == "ok-1"
        assert outcomes[2].result == "ok-2"
        dead = outcomes[1]
        assert dead.error_type == "BrokenProcessPool"
        assert dead.seeds == (KILL_SEED,)
        assert dead.error_traceback

    def test_unpicklable_result_becomes_failed_outcome(self):
        outcomes = execute_parallel_sweep(
            _payloads([1, KILL_SEED, 2], unpicklable_result_runner), workers=1
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].error  # a pickling-layer error, exact type varies

    def test_every_cell_crashing_still_returns_full_shape(self):
        outcomes = execute_parallel_sweep(
            _payloads([KILL_SEED, KILL_SEED], exit_hard_runner), workers=1
        )
        assert [o.ok for o in outcomes] == [False, False]
        assert all(o.error_type == "BrokenProcessPool" for o in outcomes)


class TestSweepDeadline:
    def test_serial_deadline_skips_unstarted_cells_as_budget_exhausted(self):
        outcomes = sweep_badabing(
            [{"p": 0.3, "seed": 1}, {"p": 0.3, "seed": 2}, {"p": 0.5, "seed": 1}],
            max_wall_seconds=0.0,
            **CELL,
        )
        assert len(outcomes) == 3
        assert all(o.failed and o.budget_exhausted for o in outcomes)
        assert all(o.attempts == 0 and o.seeds == () for o in outcomes)
        assert all("deadline" in o.error for o in outcomes)

    def test_parallel_deadline_cancels_pending_cells_only(self):
        # workers=1 keeps the executor's call queue short (at most
        # workers + 1 cells get fed before the deadline sweep cancels the
        # rest), and the slow runner keeps the fed cells in flight long
        # enough that the sweep deterministically beats the feeder.
        seeds = list(range(1, 7))
        outcomes = execute_parallel_sweep(
            _payloads(seeds, _slow_runner),
            workers=1,
            max_wall_seconds=0.0,
        )
        assert len(outcomes) == len(seeds)
        # In-flight cells finish; cells never started are budget-exhausted.
        assert all(o.ok or o.budget_exhausted for o in outcomes)
        assert any(o.budget_exhausted for o in outcomes)
        assert outcomes[0].ok  # the first cell was already in flight

    def test_no_deadline_means_no_budget_exhaustion(self):
        outcomes = execute_parallel_sweep(
            _payloads([1, 2], _noop_runner), workers=2
        )
        assert all(o.ok for o in outcomes)

    def test_deadline_outcome_shape(self):
        outcome = deadline_outcome("late-cell", 12.5)
        assert outcome.failed and outcome.budget_exhausted
        assert outcome.error_type == "BudgetExhaustedError"
        assert outcome.label == "late-cell"
        assert "12.5" in outcome.error


class TestSweepMetricsTelemetry:
    def test_parallel_sweep_records_cell_status_counters(self):
        registry = MetricsRegistry()
        outcomes = sweep_badabing(
            [
                {"p": 0.3, "seed": 1},
                {"p": 0.5, "seed": 1, "max_events": 300, "label": "doomed"},
            ],
            budget=RunBudget(max_attempts=1),
            metrics=registry,
            workers=2,
            **CELL,
        )
        assert [o.ok for o in outcomes] == [True, False]
        counters = registry.snapshot()["counters"]
        assert counters["sweep.cells{status=ok}"] == 1
        assert counters["sweep.cells{status=budget_exhausted}"] == 1
        assert counters["sweep.degraded_cells"] == 1


class TestProgressRecords:
    def _records(self, tmp_path, workers):
        registry = MetricsRegistry()
        path = tmp_path / f"export-{workers}.ndjson"
        exporter = TelemetryExporter(registry, path=path)
        try:
            outcomes = sweep_badabing(
                [{"p": 0.3, "seed": 1}, {"p": 0.5, "seed": 1}, {"p": 0.3, "seed": 2}],
                metrics=registry,
                workers=workers,
                exporter=exporter,
                **CELL,
            )
        finally:
            exporter.close()
        assert all(o.ok for o in outcomes)
        return [
            (record["kind"], record["context"], record["digest"])
            for record in read_export_records(path)
        ]

    def test_progress_records_identical_serial_vs_parallel(self, tmp_path):
        serial = self._records(tmp_path, None)
        assert [kind for kind, _, _ in serial] == ["progress"] * 3 + ["final"]
        assert self._records(tmp_path, 2) == serial


class TestCellExceptionContainment:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_cell_raising_a_plain_exception_fails_alone(self, workers):
        outcomes = sweep_badabing(
            [{"p": 0.3}, {"p": 0.5, "bogus": 1}, {"p": 0.7}],
            budget=RunBudget(max_attempts=3),
            workers=workers,
            **CELL,
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        failed = outcomes[1]
        assert failed.error_type == "TypeError"
        assert "bogus" in failed.error
        assert "TypeError" in failed.error_traceback
        assert failed.attempts == 1  # TypeError is not in retry_on
        assert not failed.budget_exhausted


class TestSerialLiveObjects:
    def test_serial_cells_pass_live_objects_through(self):
        keep = {}
        cell_registry = MetricsRegistry()
        sweep_registry = MetricsRegistry()
        sweep_tracer = Tracer()
        with profiling(StageProfiler(tracer=sweep_tracer)):
            outcomes = sweep_badabing(
                [
                    {"p": 0.3, "seed": 1, "keep": keep, "metrics": cell_registry},
                    {"p": 0.3, "seed": 2},
                ],
                metrics=sweep_registry,
                **CELL,
            )
        assert all(o.ok for o in outcomes)
        assert {"sim", "testbed", "tool", "traffic"} <= set(keep)
        assert keep["sim"].metrics is cell_registry
        assert (
            cell_registry.snapshot()["counters"]["sim.events_processed"]
            == keep["sim"].events_processed
        )
        # The sweep registry merges the second cell's registry only; the
        # first cell contributes nothing but its sweep.* counts.
        alone = MetricsRegistry()
        sweep_badabing([{"p": 0.3, "seed": 2}], metrics=alone, **CELL)
        assert sweep_registry.snapshot()["counters"]["sim.events_processed"] == (
            alone.snapshot()["counters"]["sim.events_processed"]
        )
        assert sweep_registry.snapshot()["counters"]["sweep.cells{status=ok}"] == 2
        # In-process cell spans land straight on the sweep tracer's epoch,
        # each cell's run phases beneath its sweep.cell span.
        first, second = [s for s in sweep_tracer.spans if s["name"] == "sweep.cell"]
        assert second["t0"] >= first["t0"] + first["dur"]
        runs = [s for s in sweep_tracer.spans if s["name"] == "sim.run"]
        assert [s["parent"] for s in runs] == ["sweep.cell", "sweep.cell"]


class TestProfiledSweep:
    """A sweep profiles its cells exactly when a profiler is active at the
    call; pool workers send their stage stats back as data, and no
    registry ever holds profile.* instruments."""

    CELLS = [{"p": 0.3, "seed": 1}, {"p": 0.5, "seed": 2}]

    def _sweep(self, workers, profiler=None):
        registry = MetricsRegistry()
        with profiling(profiler):
            outcomes = sweep_badabing(
                self.CELLS, metrics=registry, workers=workers, **CELL
            )
        assert all(o.ok for o in outcomes)
        return registry.snapshot()

    def test_profiled_stage_calls_identical_serial_vs_parallel(self):
        calls = {}
        for workers in (None, 2):
            profiler = StageProfiler()
            self._sweep(workers, profiler)
            calls[workers] = {
                name: stage["calls"] for name, stage in profiler.stages().items()
            }
        assert calls[None]["sim.run"] == len(self.CELLS)
        assert calls[None]["marking.apply"] == len(self.CELLS)
        # Stage call counts are a pure function of the cell seeds.
        assert calls[2] == calls[None]

    def test_traced_sweep_spans_are_its_stage_calls_serial_vs_parallel(self):
        records = {}
        for workers in (None, 2):
            tracer = Tracer()
            profiler = StageProfiler(tracer=tracer)
            self._sweep(workers, profiler)
            spans = Counter(s["name"] for s in tracer.spans if s["type"] == "span")
            # Every stage of a simulated sweep is a scoped frame, and each
            # call of it is one span.
            assert spans == {
                name: stage["calls"] for name, stage in profiler.stages().items()
            }
            records[workers] = Counter((s["type"], s["name"]) for s in tracer.spans)
        assert records[None][("span", "sweep.cell")] == len(self.CELLS)
        assert records[None][("span", "probe.join")] == len(self.CELLS)
        assert records[None][("event", "sim.heartbeat")] == (
            HEARTBEAT_BEATS * len(self.CELLS)
        )
        assert records[2] == records[None]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_profiling_leaves_the_snapshot_digest_unchanged(self, workers):
        profiled = self._sweep(workers, StageProfiler())
        assert not any(
            key.startswith("profile.")
            for section in profiled.values()
            for key in section
        )
        assert snapshot_digest(profiled) == snapshot_digest(self._sweep(workers))
