"""Tests for the episodic (modified-Iperf-like) CBR traffic."""

import math

import pytest

from repro.analysis.episodes import episodes_from_monitor
from repro.errors import ConfigurationError
from repro.net.simulator import Simulator
from repro.net.topology import DumbbellTestbed
from repro.traffic.cbr import EpisodicCbrTraffic


def build(seed=1, **kwargs):
    sim = Simulator(seed=seed)
    testbed = DumbbellTestbed(sim)
    cfg = testbed.config
    traffic = EpisodicCbrTraffic(
        sim,
        testbed.traffic_senders[0],
        testbed.traffic_receivers[0],
        bottleneck_bps=cfg.bottleneck_bps,
        buffer_bytes=cfg.buffer_bytes,
        **kwargs,
    )
    return sim, testbed, traffic


def test_fill_time_arithmetic():
    _sim, testbed, traffic = build(overload_factor=2.0)
    cfg = testbed.config
    # At overload 2x, excess rate equals the bottleneck rate, so the fill
    # time equals the buffer's time depth (100 ms).
    assert traffic.fill_time == pytest.approx(cfg.buffer_time, rel=1e-6)


def test_bursts_create_loss_episodes_of_requested_duration():
    sim, testbed, traffic = build(
        episode_durations=(0.068,), mean_spacing=5.0, seed=3
    )
    sim.run(until=60.0)
    episodes = episodes_from_monitor(testbed.monitor)
    assert len(episodes) >= 4
    for episode in episodes:
        # First-to-last-drop span tracks the engineered overflow period.
        assert episode.duration == pytest.approx(0.068, abs=0.03)


def test_mixed_durations_drawn_from_choices():
    sim, testbed, traffic = build(
        episode_durations=(0.05, 0.15), mean_spacing=4.0, seed=5
    )
    sim.run(until=80.0)
    requested = {duration for _t, duration in traffic.scheduled_episodes}
    assert requested == {0.05, 0.15}
    episodes = episodes_from_monitor(testbed.monitor)
    durations = sorted(episode.duration for episode in episodes)
    assert durations[0] < 0.1 < durations[-1] + 0.06


def test_queue_drains_between_episodes():
    sim, testbed, traffic = build(mean_spacing=5.0, seed=7)
    sim.run(until=30.0)
    # After the run settles with no burst active, the queue must be empty.
    traffic.source.stop()
    sim.run(until=32.0)
    assert testbed.bottleneck_queue.is_empty


def test_episode_spacing_is_roughly_exponential_mean():
    sim, _testbed, traffic = build(mean_spacing=2.0, seed=11)
    sim.run(until=120.0)
    starts = [start for start, _duration in traffic.scheduled_episodes]
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    assert len(gaps) > 20
    mean_gap = sum(gaps) / len(gaps)
    # Burst duration (~0.17 s) adds to the nominal 2 s exponential spacing.
    assert 1.5 < mean_gap < 3.5


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        build(overload_factor=1.0)
    with pytest.raises(ConfigurationError):
        build(episode_durations=())
    with pytest.raises(ConfigurationError):
        build(episode_durations=(0.05, -0.1))
    with pytest.raises(ConfigurationError):
        build(mean_spacing=0.0)


def test_deterministic_given_seed():
    sim_a, _tb_a, traffic_a = build(seed=9, mean_spacing=3.0)
    sim_a.run(until=30.0)
    sim_b, _tb_b, traffic_b = build(seed=9, mean_spacing=3.0)
    sim_b.run(until=30.0)
    assert traffic_a.scheduled_episodes == traffic_b.scheduled_episodes


@pytest.mark.parametrize(
    "kwargs",
    [
        {"overload_factor": math.nan},
        {"episode_durations": (0.05, math.nan)},
        {"mean_spacing": math.nan},
    ],
    ids=["overload_factor", "episode_durations", "mean_spacing"],
)
def test_nan_parameters_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        build(**kwargs)


def test_infinite_overload_rejected():
    # An infinite burst rate would send a whole burst at one simulated
    # instant; the scenario entry point reaches the same check.
    from repro.experiments.runner import apply_scenario

    with pytest.raises(ConfigurationError):
        build(overload_factor=math.inf)
    sim = Simulator(seed=1)
    with pytest.raises(ConfigurationError):
        apply_scenario(
            sim, DumbbellTestbed(sim), "episodic_cbr",
            overload_factor=math.inf, mean_spacing=0.5,
        )
