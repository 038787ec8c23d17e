"""Tests for the BADABING tool end to end on the simulator."""

import math

import pytest

from repro.config import BadabingConfig, MarkingConfig, ProbeConfig
from repro.core.badabing import BadabingTool
from repro.core.clock import AffineClock
from repro.core.jitter import UniformJitter
from repro.experiments.runner import DRAIN_TIME, apply_scenario, build_testbed


def deploy(seed=1, scenario=None, scenario_kwargs=None, **config_kwargs):
    sim, testbed = build_testbed(seed=seed)
    if scenario:
        apply_scenario(sim, testbed, scenario, **(scenario_kwargs or {}))
    defaults = dict(p=0.3, n_slots=4000)
    defaults.update(config_kwargs)
    config = BadabingConfig(**defaults)
    tool = BadabingTool(
        sim, testbed.probe_sender, testbed.probe_receiver, config, start=1.0
    )
    return sim, testbed, tool


def test_probes_arrive_on_idle_network():
    sim, _testbed, tool = deploy()
    sim.run(until=tool.end_time + DRAIN_TIME)
    probes = tool.probe_records()
    assert len(probes) == tool.schedule.n_probes
    assert all(not probe.lost for probe in probes)
    # One-way delay = propagation + serialization. Later packets of a train
    # queue briefly behind the first at the bottleneck (sent 30 µs apart but
    # 0.4 ms to serialize), so the spread is bounded by two serializations.
    owds = {owd for probe in probes for owd in probe.owds}
    assert max(owds) - min(owds) < 2 * 1e-3


def test_no_congestion_estimates_zero_frequency():
    sim, _testbed, tool = deploy()
    sim.run(until=tool.end_time + DRAIN_TIME)
    result = tool.result()
    assert result.frequency == 0.0
    assert math.isnan(result.duration_seconds)
    assert result.validation.violations == 0


def test_probe_trains_spaced_within_slot():
    sim, _testbed, tool = deploy(n_slots=100, p=1.0)
    sim.run(until=tool.end_time + DRAIN_TIME)
    sent = tool.sender.sent
    # Send stamps; the default sender clock reads true time.
    slot0 = [sent[(0, i)] for i in range(3)]
    assert slot0[1] - slot0[0] == pytest.approx(30e-6)
    assert slot0[2] - slot0[1] == pytest.approx(30e-6)


def test_a_train_still_being_sent_has_no_record_yet():
    sim, _testbed, tool = deploy(n_slots=100, p=1.0)
    # Stop between the first and second packet of slot 0's train (30 µs gap).
    sim.run(until=tool.start + 1e-5)
    assert (0, 0) in tool.sender.sent
    assert tool.probe_records() == []
    sim.run(until=tool.start + 1e-4)
    [record] = tool.probe_records()
    assert (record.slot, record.send_time, record.n_packets) == (0, tool.start, 3)


def test_detects_engineered_episodes():
    sim, testbed, tool = deploy(
        seed=5,
        scenario="episodic_cbr",
        scenario_kwargs={"episode_durations": (0.068,), "mean_spacing": 3.0},
        n_slots=12_000,
        p=0.5,
    )
    sim.run(until=tool.end_time + DRAIN_TIME)
    result = tool.result()
    assert result.lost_probe_packets > 0
    assert result.frequency > 0.0
    assert result.marking.marked_by_delay > 0
    # Engineered truth: 68 ms episodes every ~3 s -> F ~ 0.02.
    assert 0.005 < result.frequency < 0.08


def test_remarking_without_resimulation():
    sim, _testbed, tool = deploy(
        seed=5,
        scenario="episodic_cbr",
        scenario_kwargs={"episode_durations": (0.068,), "mean_spacing": 3.0},
        n_slots=8_000,
        p=0.5,
    )
    sim.run(until=tool.end_time + DRAIN_TIME)
    strict = tool.result(marking=MarkingConfig(alpha=0.02, tau=0.010))
    loose = tool.result(marking=MarkingConfig(alpha=0.3, tau=0.120))
    assert loose.frequency >= strict.frequency
    # Loss-based markings are identical; only delay markings differ.
    assert loose.marking.marked_by_loss == strict.marking.marked_by_loss
    assert loose.marking.marked_by_delay >= strict.marking.marked_by_delay


def test_improved_mode_sends_triples():
    sim, _testbed, tool = deploy(improved=True, n_slots=4000)
    sim.run(until=tool.end_time + DRAIN_TIME)
    result = tool.result()
    assert any(outcome.is_extended for outcome in result.outcomes)
    assert result.estimate.improved


def test_jitter_displaces_send_times():
    sim, _testbed, tool = deploy(n_slots=500, p=0.5)
    sim_j, testbed_j = build_testbed(seed=1)
    config = BadabingConfig(p=0.5, n_slots=500)
    tool_j = BadabingTool(
        sim_j,
        testbed_j.probe_sender,
        testbed_j.probe_receiver,
        config,
        start=1.0,
        jitter=UniformJitter(0.004),
    )
    sim.run(until=tool.end_time + DRAIN_TIME)
    sim_j.run(until=tool_j.end_time + DRAIN_TIME)
    slot_width = config.probe.slot
    offsets = [
        record.send_time - (1.0 + record.slot * slot_width)
        for record in tool_j.probe_records()
    ]
    assert all(offset >= -1e-12 for offset in offsets)
    assert max(offsets) > 0.0005


def test_clock_offset_shifts_owds_but_not_loss():
    sim, _testbed, tool = deploy(
        n_slots=500,
        p=0.5,
    )
    sim_c, testbed_c = build_testbed(seed=1)
    config = BadabingConfig(p=0.5, n_slots=500)
    tool_c = BadabingTool(
        sim_c,
        testbed_c.probe_sender,
        testbed_c.probe_receiver,
        config,
        start=1.0,
        receiver_clock=AffineClock(offset=0.5),
    )
    sim.run(until=tool.end_time + DRAIN_TIME)
    sim_c.run(until=tool_c.end_time + DRAIN_TIME)
    plain = tool.probe_records()
    shifted = tool_c.probe_records()
    assert len(plain) == len(shifted)
    assert shifted[0].owds[0] - plain[0].owds[0] == pytest.approx(0.5)


def test_probe_load_matches_schedule_accounting():
    sim, _testbed, tool = deploy(n_slots=10_000, p=0.3)
    sim.run(until=tool.end_time + DRAIN_TIME)
    result = tool.result()
    expected = tool.schedule.probe_load_bps(3, 600, 0.005)
    assert result.probe_load_bps == pytest.approx(expected)
    # Coverage model sanity: load ~ (1-(1-p)^2) x 3 pkts x 600 B / 5 ms.
    nominal = (1 - 0.7 ** 2) * 3 * 600 * 8 / 0.005
    assert result.probe_load_bps == pytest.approx(nominal, rel=0.05)


def test_deterministic_given_seed():
    sim_a, _t, tool_a = deploy(
        seed=7, scenario="episodic_cbr", n_slots=6000, p=0.3
    )
    sim_a.run(until=tool_a.end_time + DRAIN_TIME)
    sim_b, _t, tool_b = deploy(
        seed=7, scenario="episodic_cbr", n_slots=6000, p=0.3
    )
    sim_b.run(until=tool_b.end_time + DRAIN_TIME)
    result_a, result_b = tool_a.result(), tool_b.result()
    assert result_a.frequency == result_b.frequency
    assert result_a.outcomes == result_b.outcomes
