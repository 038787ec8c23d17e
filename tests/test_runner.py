"""Tests for the experiment runner helpers."""

import math

import pytest

from repro.analysis.episodes import LossEpisode
from repro.config import MarkingConfig, TestbedConfig
from repro.errors import BudgetExhaustedError, ConfigurationError
from repro.experiments.runner import (
    DRAIN_TIME,
    HEARTBEAT_BEATS,
    GroundTruth,
    build_testbed,
    compute_ground_truth,
    default_marking_for,
    run_badabing,
    run_zing,
)
from repro.obs import (
    MetricsRegistry,
    StageProfiler,
    Tracer,
    profiling,
    snapshot_digest,
)


def test_build_testbed_is_seed_deterministic():
    sim_a, _ = build_testbed(seed=5)
    sim_b, _ = build_testbed(seed=5)
    assert sim_a.rng("x").random() == sim_b.rng("x").random()


def test_default_marking_tau_grows_as_p_shrinks():
    slot = 0.005
    tau_low = default_marking_for(0.1, slot).tau
    tau_high = default_marking_for(0.9, slot).tau
    assert tau_low > tau_high
    # tau is "expected gap plus one std": always at least one slot.
    assert tau_high >= slot


def test_default_marking_alpha_steps():
    slot = 0.005
    assert default_marking_for(0.1, slot).alpha == 0.2
    assert default_marking_for(0.3, slot).alpha == 0.1
    assert default_marking_for(0.5, slot).alpha == 0.1
    assert default_marking_for(0.7, slot).alpha == 0.05
    assert default_marking_for(0.9, slot).alpha == 0.05


def test_ground_truth_window_clipping():
    sim, testbed = build_testbed(seed=2)
    # Inject synthetic drops straight into the monitor.
    testbed.monitor.drops.extend([(5.0, "tcp"), (5.05, "tcp"), (50.0, "tcp")])
    truth = compute_ground_truth(testbed, 0.005, start=4.0, duration=10.0)
    # The drop at t=50 lies outside [4, 14].
    assert truth.n_episodes == 1
    assert truth.episodes[0].drops == 2
    assert truth.n_slots == 2000


def test_ground_truth_empty_window():
    sim, testbed = build_testbed()
    truth = compute_ground_truth(testbed, 0.005, start=0.0, duration=10.0)
    assert truth.frequency == 0.0
    assert truth.duration_mean == 0.0
    assert truth.n_episodes == 0
    assert truth.loss_event_rate_per_slot == 0.0


def test_ground_truth_rejects_bad_duration():
    sim, testbed = build_testbed()
    with pytest.raises(ConfigurationError):
        compute_ground_truth(testbed, 0.005, 0.0, 0.0)


def test_loss_event_rate_per_slot():
    truth = GroundTruth(
        episodes=[LossEpisode(1.0, 1.1, 2)] * 3,
        frequency=0.01,
        duration_mean=0.1,
        duration_std=0.0,
        loss_rate=0.001,
        n_slots=6000,
        slot=0.005,
        window=(0.0, 30.0),
    )
    assert truth.loss_event_rate_per_slot == pytest.approx(3 / 6000)


def test_run_badabing_end_to_end_smoke():
    result, truth = run_badabing(
        "episodic_cbr",
        p=0.5,
        n_slots=6000,
        seed=9,
        scenario_kwargs={"episode_durations": (0.068,), "mean_spacing": 3.0},
        warmup=5.0,
    )
    assert truth.n_episodes >= 3
    assert result.frequency > 0
    # The estimate lands within a factor of ~2.5 of truth even on a 30 s run.
    assert truth.frequency / 2.5 < result.frequency < truth.frequency * 2.5


def test_run_badabing_keep_exposes_internals():
    keep = {}
    run_badabing(
        "episodic_cbr", p=0.3, n_slots=2000, seed=1, warmup=2.0, keep=keep
    )
    assert {"sim", "testbed", "tool", "traffic"} <= set(keep)


def test_run_badabing_custom_marking_respected():
    marking = MarkingConfig(alpha=0.05, tau=0.02)
    keep = {}
    run_badabing(
        "episodic_cbr", p=0.3, n_slots=2000, seed=1, marking=marking,
        warmup=2.0, keep=keep,
    )
    assert keep["tool"].marker.config is marking


def test_run_zing_end_to_end_smoke():
    result, truth = run_zing(
        "episodic_cbr",
        mean_interval=0.05,
        packet_size=256,
        duration=30.0,
        seed=10,
        scenario_kwargs={"episode_durations": (0.068,), "mean_spacing": 3.0},
        warmup=5.0,
    )
    assert truth.n_episodes >= 3
    # The §4 result: ZING's probe-loss frequency underestimates truth.
    assert result.frequency < truth.frequency


def test_run_with_custom_testbed_config():
    config = TestbedConfig(n_traffic_pairs=2)
    result, truth = run_badabing(
        "episodic_cbr", p=0.3, n_slots=2000, seed=1,
        testbed_config=config, warmup=2.0,
    )
    assert math.isnan(result.duration_seconds) or result.duration_seconds >= 0


#: A short BADABING cell (about 20,000 events) for the tracing tests.
TRACED_CELL = dict(
    scenario="episodic_cbr",
    p=0.3,
    n_slots=1500,
    seed=3,
    warmup=2.0,
    scenario_kwargs={"mean_spacing": 2.0},
)


def _heartbeats(tracer):
    return [span for span in tracer.spans if span["name"] == "sim.heartbeat"]


def _traced(run=run_badabing, **kwargs):
    """``run(**kwargs)`` under a tracing profiler: (result, tracer)."""
    tracer = Tracer()
    with profiling(StageProfiler(tracer=tracer)):
        result, _ = run(**kwargs)
    return result, tracer


def test_tracing_does_not_change_the_run():
    untraced_registry = MetricsRegistry()
    untraced, _ = run_badabing(**TRACED_CELL, metrics=untraced_registry)
    traced_registry = MetricsRegistry()
    traced, tracer = _traced(**TRACED_CELL, metrics=traced_registry)
    assert snapshot_digest(traced_registry.snapshot()) == snapshot_digest(
        untraced_registry.snapshot()
    )
    events = untraced.manifest.events_processed
    assert traced.manifest.events_processed == events
    beats = _heartbeats(tracer)
    assert len(beats) == HEARTBEAT_BEATS
    assert all(beat["type"] == "event" and beat["parent"] == "sim.run" for beat in beats)
    assert beats[-1]["attrs"]["events_processed"] == events
    # A budget the untraced run exactly fits also suffices traced.
    exact, _ = _traced(**TRACED_CELL, max_events=events)
    assert exact.manifest.events_processed == events


def test_traced_and_untraced_runs_starve_alike():
    result, tracer = _traced(**TRACED_CELL)
    beats = [beat["attrs"] for beat in _heartbeats(tracer)]
    ends = [beat["events_processed"] for beat in beats]
    leg_end = {beat["events_processed"]: beat["sim_time"] for beat in beats}
    assert ends[-1] == result.manifest.events_processed
    between = [(low + high) // 2 for low, high in zip([0] + ends, ends)]
    budgets = sorted({b for b in ends[:-1] + between if 1 <= b < ends[-1]})
    assert len(budgets) >= HEARTBEAT_BEATS
    for budget in budgets:
        errors = []
        for profiler in (None, StageProfiler(tracer=Tracer())):
            with profiling(profiler), pytest.raises(BudgetExhaustedError) as excinfo:
                run_badabing(**TRACED_CELL, max_events=budget)
            errors.append(excinfo.value)
        untraced, traced = errors
        assert untraced.events_processed == traced.events_processed == budget
        if budget in leg_end:
            # The budget ran out exactly at a leg's end: the traced run's
            # clock stands at that end, the untraced one at the last event.
            assert traced.sim_time == pytest.approx(leg_end[budget])
            assert untraced.sim_time <= traced.sim_time
        else:
            assert traced.sim_time == untraced.sim_time


def test_traced_run_zing_records_runner_spans_and_heartbeats():
    result, tracer = _traced(
        run_zing,
        scenario="episodic_cbr",
        mean_interval=0.05,
        packet_size=64,
        duration=5.0,
        seed=1,
        warmup=2.0,
    )
    records = list(tracer.lines())[1:]
    assert [r["name"] for r in records if r["type"] == "span"] == [
        "testbed.build",
        "traffic.start",
        "sim.run",
        "truth.extract",
        "tool.result",
    ]
    beats = _heartbeats(tracer)
    assert len(beats) == HEARTBEAT_BEATS
    assert all(beat["parent"] == "sim.run" for beat in beats)
    assert beats[-1]["attrs"] == {
        "sim_time": 2.0 + 5.0 + DRAIN_TIME,
        "events_processed": result.manifest.events_processed,
    }
