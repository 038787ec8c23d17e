"""Stage profiler unit tests: timing semantics, edge cases, documents.

Covers the DESIGN.md §14 contracts: self/cumulative attribution with
reentrancy, zero-duration spans, exception unwinding, the per-item sites
(wire codecs, trace writes), scoped frames as trace spans, snapshot/absorb
round trips, and digest non-perturbation.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry, snapshot_digest
from repro.obs.profile import (
    PIPELINE_STAGES,
    PROFILE_SCHEMA,
    STAGE_BUCKETS,
    StageProfiler,
    active_profiler,
    active_tracer,
    profile_stage,
    profiling,
    trace_event,
)
from repro.obs.tracing import Tracer


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


class TestSpans:
    def test_scoped_frames_are_spans_and_manual_frames_are_not(self):
        tracer = Tracer()
        prof = StageProfiler(tracer=tracer)
        with profiling(prof):
            with profile_stage("outer", n=3):
                frame = prof.start("item")
                prof.stop(frame)
                with profile_stage("inner"):
                    trace_event("beat", k=1)
        outer, inner, beat = sorted(tracer.spans, key=lambda s: s["t0"])
        assert (outer["type"], outer["name"], outer["parent"]) == ("span", "outer", None)
        assert outer["attrs"] == {"n": 3}
        assert (inner["name"], inner["parent"], inner["attrs"]) == ("inner", "outer", {})
        assert beat == {
            "type": "event", "name": "beat", "t0": beat["t0"], "dur": 0.0,
            "parent": "inner", "attrs": {"k": 1},
        }
        assert 0.0 <= outer["t0"] <= beat["t0"] and inner["dur"] <= outer["dur"]
        # The manual frame is timed but never traced.
        assert prof.stages()["item"]["calls"] == 1

    def test_abandoned_frames_record_no_span(self):
        tracer = Tracer()
        prof = StageProfiler(tracer=tracer)
        outer = prof.start("outer", {})
        prof.start("abandoned", {})
        prof.stop(outer)
        assert [span["name"] for span in tracer.spans] == ["outer"]

    def test_events_from_another_thread_lose_no_record(self):
        # The telemetry exporter's thread emits events while the run's
        # thread opens and closes frames on the same profiler.
        tracer = Tracer()
        prof = StageProfiler(tracer=tracer)
        n_threads, per_thread, frames = 4, 500, 2000

        def emit():
            for _ in range(per_thread):
                trace_event("tick")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with profiling(prof):
                threads = [threading.Thread(target=emit) for _ in range(n_threads)]
                for thread in threads:
                    thread.start()
                for _ in range(frames):
                    with profile_stage("main"):
                        pass
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        kinds = Counter(record["type"] for record in tracer.spans)
        assert kinds == {"event": n_threads * per_thread, "span": frames}
        assert prof.stages()["main"]["calls"] == frames
        parents = {r["parent"] for r in tracer.spans if r["type"] == "event"}
        assert parents <= {None, "main"}

    def test_events_need_a_tracing_profiler(self):
        assert active_tracer() is None
        trace_event("nowhere")  # no profiler: a no-op
        prof = StageProfiler()
        with profiling(prof):
            assert active_tracer() is None
            trace_event("nowhere")
            with profile_stage("stage"):
                pass
        assert list(prof.stages()) == ["stage"]


class TestActivation:
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


class TestItemSites:
    def test_codec_and_trace_writes_time_scoped_frames(self, tmp_path):
        from repro.core.records import ProbeRecord
        from repro.io import Measurement, save_measurement
        from repro.live.wire import PROBE, ProbeHeader, decode_header, encode_header

        header = ProbeHeader(PROBE, 7, 0, 3, 0, 3, 1_000)
        tracer = Tracer()
        prof = StageProfiler(clock=FakeClock(step=1.0), tracer=tracer)
        with profiling(prof):
            with prof.stage("sender"):
                for _ in range(5):
                    assert decode_header(encode_header(header)) == header
        stages = prof.stages()
        edges = {(e["parent"], e["stage"]): e for e in prof.edges()}
        for stage in ("wire.encode", "wire.decode"):
            assert stages[stage]["calls"] == 5
            assert edges[("sender", stage)]["calls"] == 5
        # Each codec frame spans one clock step: the frame's 21 s of wall
        # minus the 10 s charged to its codec children.
        assert stages["sender"]["cum_seconds"] == 21.0
        assert stages["sender"]["self_seconds"] == 11.0
        # The per-item codec frames never reach the trace.
        assert [span["name"] for span in tracer.spans] == ["sender"]

        # save_measurement's trace.io frame holds write_probes' trace.io
        # frame: outer 0..3 s, inner 1..2 s. Cum counts the wall once.
        measurement = Measurement(
            slot_width=0.005,
            n_slots=4,
            p=0.5,
            experiments=[],
            probes=[
                ProbeRecord(slot, 0.005 * slot, 3, (0.01, 0.01, 0.01))
                for slot in (0, 2)
            ],
        )
        tracer = Tracer()
        prof = StageProfiler(clock=FakeClock(step=1.0), tracer=tracer)
        with profiling(prof):
            save_measurement(tmp_path / "trace.jsonl", measurement)
        stat = prof.stages()["trace.io"]
        assert stat["calls"] == 2
        assert stat["cum_seconds"] == 3.0
        assert stat["sum_seconds"] == 4.0
        assert stat["self_seconds"] == 3.0
        # The file-level frame is a span; the TraceWriter write is not.
        assert [(s["name"], s["parent"]) for s in tracer.spans] == [("trace.io", None)]


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
            with prof.stage("marking.apply"):
                pass
        doc = prof.snapshot()
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["enabled"] is True
        other = StageProfiler()
        other.absorb(doc)
        other.absorb(doc)
        stages = other.stages()
        assert stages["sim.run"]["calls"] == 2  # absorbed twice: adds
        assert stages["marking.apply"]["calls"] == 2
        assert "spans" not in doc

    def test_snapshot_carries_spans_to_a_tracing_absorber(self):
        worker = StageProfiler(tracer=Tracer())
        with worker.stage("sweep.cell", label="c"):
            with worker.stage("sim.run"):
                pass
        doc = worker.snapshot()
        assert [span["name"] for span in doc["spans"]] == ["sim.run", "sweep.cell"]
        tracer = Tracer()
        parent = StageProfiler(tracer=tracer)
        parent.absorb(doc)
        assert tracer.spans == doc["spans"]
        assert parent.stages()["sim.run"]["calls"] == 1
        # An absorber without a tracer keeps the stage stats only.
        StageProfiler().absorb(doc)

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


class TestBucketContract:
    def test_stage_buckets_strictly_increasing(self):
        assert list(STAGE_BUCKETS) == sorted(STAGE_BUCKETS)
        assert len(set(STAGE_BUCKETS)) == len(STAGE_BUCKETS)

    def test_pipeline_stage_names_unique(self):
        assert len(set(PIPELINE_STAGES)) == len(PIPELINE_STAGES) >= 8
