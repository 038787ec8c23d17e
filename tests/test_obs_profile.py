"""Stage profiler unit tests: timing semantics, edge cases, documents.

Covers the DESIGN.md §14 contracts: self/cumulative attribution with
reentrancy, zero-duration spans, exception unwinding, leaf records and
accumulators, snapshot/absorb round trips, and digest non-perturbation.
"""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry, snapshot_digest
from repro.obs.profile import (
    PIPELINE_STAGES,
    PROFILE_SCHEMA,
    STAGE_BUCKETS,
    NullProfiler,
    StageProfiler,
    active_profiler,
    profile_stage,
    profiling,
    set_active_profiler,
)


class FakeClock:
    """Deterministic clock: returns scripted times, or advances by step."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        current = self.now
        self.now += self.step
        return current


class TestStageProfilerBasics:
    def test_single_stage_self_equals_cum(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        with prof.stage("sim.run"):
            pass
        stat = prof.stages()["sim.run"]
        assert stat["calls"] == 1
        assert stat["self_seconds"] == stat["cum_seconds"] == 1.0
        assert stat["max_seconds"] == 1.0
        assert sum(stat["counts"]) == stat["calls"]

    def test_child_time_subtracted_from_parent_self(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        # parent: t0..t3 (3s), child inside: t1..t2 (1s).
        with prof.stage("parent"):
            with prof.stage("child"):
                pass
        stages = prof.stages()
        assert stages["child"]["cum_seconds"] == 1.0
        assert stages["parent"]["cum_seconds"] == 3.0
        assert stages["parent"]["self_seconds"] == 2.0
        edges = {(e["parent"], e["stage"]): e for e in prof.edges()}
        assert edges[("parent", "child")]["calls"] == 1
        assert edges[("", "parent")]["calls"] == 1

    def test_zero_duration_span(self):
        clock = FakeClock(step=0.0)  # clock never advances
        prof = StageProfiler(clock=clock)
        with prof.stage("instant"):
            pass
        stat = prof.stages()["instant"]
        assert stat["calls"] == 1
        assert stat["self_seconds"] == 0.0
        assert stat["cum_seconds"] == 0.0
        assert stat["max_seconds"] == 0.0
        # A zero-duration call lands in the first bucket and never makes
        # a negative self time.
        assert stat["counts"][0] == 1

    def test_backwards_clock_clamps_to_zero(self):
        times = iter([10.0, 5.0])
        prof = StageProfiler(clock=lambda: next(times))
        frame = prof.start("weird")
        prof.stop(frame)
        stat = prof.stages()["weird"]
        assert stat["self_seconds"] == 0.0
        assert stat["cum_seconds"] == 0.0

    def test_reentrant_same_name_counts_cum_once(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        # outer: t0..t3 (3s); inner same-name: t1..t2 (1s). Cumulative
        # must count wall time once (3s), not 4s; calls and sum count both.
        with prof.stage("recurse"):
            with prof.stage("recurse"):
                pass
        stat = prof.stages()["recurse"]
        assert stat["calls"] == 2
        assert stat["cum_seconds"] == 3.0
        assert stat["sum_seconds"] == 4.0
        assert stat["self_seconds"] == 3.0  # 1 (inner) + 2 (outer minus inner)

    def test_exception_unwinding_closes_abandoned_frames(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        outer = prof.start("outer")
        prof.start("abandoned")  # never stopped explicitly
        prof.stop(outer)  # unwinding: stops outer, discards abandoned
        stages = prof.stages()
        assert "abandoned" not in stages
        assert stages["outer"]["calls"] == 1
        # The stack is clean: new frames nest at the root again.
        with prof.stage("after"):
            pass
        assert prof.stages()["after"]["calls"] == 1
        # Depth bookkeeping recovered too: reentrancy still sane.
        with prof.stage("abandoned"):
            pass
        assert prof.stages()["abandoned"]["cum_seconds"] > 0.0

    def test_double_stop_is_ignored(self):
        prof = StageProfiler(clock=FakeClock())
        frame = prof.start("once")
        prof.stop(frame)
        assert prof.stop(frame) == 0.0
        assert prof.stages()["once"]["calls"] == 1

    def test_profile_stage_context_with_exception(self):
        prof = StageProfiler(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with profiling(prof):
                with profile_stage("outer"):
                    with profile_stage("inner"):
                        raise RuntimeError("boom")
        stages = prof.stages()
        # Both context managers stopped their frames in finally blocks.
        assert stages["outer"]["calls"] == 1
        assert stages["inner"]["calls"] == 1


class TestLeafRecords:
    def test_record_charges_parent_and_edge(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        with prof.stage("parent"):
            prof.record("leaf", 0.25)
        stages = prof.stages()
        assert stages["leaf"]["calls"] == 1
        assert stages["leaf"]["self_seconds"] == 0.25
        assert stages["leaf"]["cum_seconds"] == 0.25
        # parent wall is 1s; the leaf's 0.25s is child time.
        assert stages["parent"]["self_seconds"] == 0.75
        edges = {(e["parent"], e["stage"]) for e in prof.edges()}
        assert ("parent", "leaf") in edges

    def test_record_inside_same_name_frame_does_not_double_cum(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        # trace.io scoped frame containing trace.io leaf records (the
        # save_measurement shape): cum counts wall time once.
        with prof.stage("trace.io"):
            prof.record("trace.io", 0.5)
        stat = prof.stages()["trace.io"]
        assert stat["calls"] == 2
        assert stat["cum_seconds"] == 1.0  # the frame's wall time only
        assert stat["sum_seconds"] == 1.5

    def test_negative_record_clamps(self):
        prof = StageProfiler(clock=FakeClock())
        prof.record("leaf", -1.0)
        assert prof.stages()["leaf"]["self_seconds"] == 0.0

    def test_leaf_accumulator_folds_on_frame_stop(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        frame = prof.start("sim.run")
        acc = prof.leaf("queue.service")
        acc[0] += 4
        acc[1] += 0.5
        acc[2] = 0.2
        acc[3][1] += 4
        prof.stop(frame)
        assert acc[4] is True  # closed at fold
        stages = prof.stages()
        assert stages["queue.service"]["calls"] == 4
        assert stages["queue.service"]["self_seconds"] == 0.5
        assert stages["queue.service"]["max_seconds"] == 0.2
        assert sum(stages["queue.service"]["counts"]) == 4
        # sim.run wall is 1s; 0.5s of it is queue.service child time.
        assert stages["sim.run"]["self_seconds"] == 0.5
        edges = {(e["parent"], e["stage"]): e for e in prof.edges()}
        assert edges[("sim.run", "queue.service")]["calls"] == 4

    def test_leaf_accumulator_root_folds_at_snapshot(self):
        prof = StageProfiler(clock=FakeClock())
        acc = prof.leaf("wire.encode")
        acc[0] += 2
        acc[1] += 0.1
        stages = prof.stages()
        assert stages["wire.encode"]["calls"] == 2
        assert acc[4] is True
        # Folding is once-only: another stages() call does not re-add.
        assert prof.stages()["wire.encode"]["calls"] == 2

    def test_empty_leaf_accumulator_records_nothing(self):
        prof = StageProfiler(clock=FakeClock())
        prof.leaf("queue.service")
        assert "queue.service" not in prof.stages()


class TestActivation:
    def test_set_active_normalizes_disabled_profiler(self):
        previous = set_active_profiler(NullProfiler())
        try:
            assert active_profiler() is None
        finally:
            set_active_profiler(previous)

    def test_profiling_scope_restores_previous(self):
        outer = StageProfiler()
        inner = StageProfiler()
        with profiling(outer):
            assert active_profiler() is outer
            with profiling(inner):
                assert active_profiler() is inner
            assert active_profiler() is outer
        assert active_profiler() is None

    def test_profile_stage_noop_without_active_profiler(self):
        assert active_profiler() is None
        with profile_stage("anything") as frame:
            assert frame is None


class TestPublication:
    def test_active_profiler_never_perturbs_registry_digest(self):
        def run(profiler):
            registry = MetricsRegistry()
            scope = profiling(profiler) if profiler else profiling(None)
            with scope:
                registry.counter("sim.events_processed").value += 10
                shard = MetricsRegistry()
                shard.counter("sim.events_processed").value += 5
                registry.merge(shard, series_labels={"cell": "c"})
            return snapshot_digest(registry.snapshot())

        assert run(None) == run(StageProfiler())

    def test_instrumented_merge_records_stage(self):
        prof = StageProfiler()
        with profiling(prof):
            parent = MetricsRegistry()
            shard = MetricsRegistry()
            shard.counter("x").value += 1
            parent.merge(shard)
        assert prof.stages()["registry.merge"]["calls"] == 1
        assert "registry.merge" in PIPELINE_STAGES


class TestDocuments:
    def test_snapshot_schema_and_absorb_roundtrip(self):
        prof = StageProfiler(clock=FakeClock())
        with prof.stage("sim.run"):
            prof.record("queue.service", 0.25)
        doc = prof.snapshot()
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["enabled"] is True
        other = StageProfiler()
        other.absorb(doc)
        other.absorb(doc)
        stages = other.stages()
        assert stages["sim.run"]["calls"] == 2  # absorbed twice: adds
        assert stages["queue.service"]["calls"] == 2

    def test_absorb_rejects_bucket_shape_mismatch(self):
        prof = StageProfiler()
        bad = {
            "stages": {
                "x": {
                    "calls": 1,
                    "self_seconds": 0.0,
                    "cum_seconds": 0.0,
                    "max_seconds": 0.0,
                    "sum_seconds": 0.0,
                    "buckets": [1.0],
                    "counts": [0, 0],
                }
            },
            "edges": [],
        }
        # counts length 2 matches buckets [1.0], but bucket bounds differ
        # from STAGE_BUCKETS.
        with pytest.raises(ObservabilityError):
            prof.absorb(bad)

    def test_merge_stage_maps_adds_and_maxes(self):
        # Absorbing two snapshots merges their stage maps: totals and
        # buckets add, max_seconds takes the max.
        a = StageProfiler(clock=FakeClock())
        with a.stage("s"):
            pass
        b = StageProfiler(clock=FakeClock(step=2.0))
        with b.stage("s"):
            pass
        merged = StageProfiler()
        merged.absorb(a.snapshot())
        merged.absorb(b.snapshot())
        stage = merged.stages()["s"]
        assert stage["calls"] == 2
        assert stage["self_seconds"] == 3.0
        assert stage["max_seconds"] == 2.0
        assert stage["counts"] == [
            x + y for x, y in zip(a.stages()["s"]["counts"], b.stages()["s"]["counts"])
        ]
        assert merged.edges() == [
            {"parent": "", "stage": "s", "calls": 2, "cum_seconds": 3.0}
        ]

    def test_null_profiler_snapshot_disabled(self):
        doc = NullProfiler().snapshot()
        assert doc["enabled"] is False
        assert doc["stages"] == {}


class TestBucketContract:
    def test_stage_buckets_strictly_increasing(self):
        assert list(STAGE_BUCKETS) == sorted(STAGE_BUCKETS)
        assert len(set(STAGE_BUCKETS)) == len(STAGE_BUCKETS)

    def test_pipeline_stage_names_unique(self):
        assert len(set(PIPELINE_STAGES)) == len(PIPELINE_STAGES) >= 8
