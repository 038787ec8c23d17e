"""Tests for the ground-truth monitors (DAG-card equivalents)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.net.monitor import QueueMonitor, QueueSampler
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.net.simulator import Simulator
from repro.units import mbps


def test_monitor_records_drops_with_protocol():
    sim = Simulator()
    queue = DropTailQueue(1500)
    monitor = QueueMonitor(sim)
    queue.attach(monitor)
    queue.offer(1.0, Packet("a", "b", 1500, protocol="tcp"))
    queue.offer(2.0, Packet("a", "b", 1500, protocol="probe"))
    assert monitor.total_drops == 1
    assert monitor.drops == [(2.0, "probe")]
    assert monitor.drop_times("probe") == [2.0]
    assert monitor.drop_times("tcp") == []
    assert monitor.drop_times() == [2.0]


def test_monitor_counters_and_loss_rate():
    sim = Simulator()
    queue = DropTailQueue(3000)
    monitor = QueueMonitor(sim)
    queue.attach(monitor)
    for _ in range(3):
        queue.offer(0.0, Packet("a", "b", 1500))
    queue.take(0.5)
    assert monitor.arrivals == 2
    assert monitor.departures == 1
    assert monitor.loss_rate == pytest.approx(1 / 3)


def test_down_crossings_detected():
    sim = Simulator()
    queue = DropTailQueue(3000)
    monitor = QueueMonitor(sim, high_water_bytes=2500)
    queue.attach(monitor)
    queue.offer(0.0, Packet("a", "b", 1500))
    queue.offer(0.1, Packet("a", "b", 1500))  # 3000 bytes: above high water
    queue.take(0.2)  # back to 1500: down-crossing at 0.2
    queue.offer(0.3, Packet("a", "b", 1500))  # up again
    queue.take(0.4)  # down again
    assert monitor.down_crossings == [0.2, 0.4]


def test_drop_forces_above_state():
    # A drop at a full queue implies high occupancy even if the threshold
    # was never crossed by an enqueue event.
    sim = Simulator()
    queue = DropTailQueue(1500)
    monitor = QueueMonitor(sim, high_water_bytes=1400)
    queue.attach(monitor)
    queue.offer(0.0, Packet("a", "b", 1400))  # 1400 >= 1400: above
    queue.offer(0.1, Packet("a", "b", 1500))  # dropped
    queue.take(0.2)
    assert monitor.down_crossings == [0.2]


def test_monitor_without_threshold_tracks_no_crossings():
    sim = Simulator()
    queue = DropTailQueue(3000)
    monitor = QueueMonitor(sim)
    queue.attach(monitor)
    queue.offer(0.0, Packet("a", "b", 1500))
    queue.take(0.1)
    assert monitor.down_crossings == []


def test_sampler_series_converts_to_seconds():
    sim = Simulator()
    queue = DropTailQueue(150_000)
    sampler = QueueSampler(sim, queue, mbps(12), interval=0.01)
    queue.offer(0.0, Packet("a", "b", 15_000))
    sim.run(until=0.05)
    times, delays = sampler.series()
    assert times == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04, 0.05])
    # 15,000 bytes at 12 Mb/s = 10 ms of queue.
    assert all(delay == pytest.approx(0.01) for delay in delays)


def test_sampler_validates_parameters():
    sim = Simulator()
    queue = DropTailQueue(1000)
    with pytest.raises(ConfigurationError):
        QueueSampler(sim, queue, mbps(12), interval=0)
    with pytest.raises(ConfigurationError):
        QueueSampler(sim, queue, 0, interval=0.01)


@pytest.mark.parametrize(
    "drain_rate_bps, interval",
    [(mbps(12), math.nan), (math.nan, 0.01)],
    ids=["interval", "drain_rate_bps"],
)
def test_sampler_rejects_nan_parameters(drain_rate_bps, interval):
    with pytest.raises(ConfigurationError):
        QueueSampler(Simulator(), DropTailQueue(1000), drain_rate_bps, interval=interval)
