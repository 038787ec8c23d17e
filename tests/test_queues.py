"""Tests for drop-tail and RED queues."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, REDQueue


def make_packet(size=1500):
    return Packet("a", "b", size)


class RecordingObserver:
    def __init__(self):
        self.events = []

    def on_enqueue(self, time, packet, qlen):
        self.events.append(("enq", time, packet.pid, qlen))

    def on_drop(self, time, packet, qlen):
        self.events.append(("drop", time, packet.pid, qlen))

    def on_dequeue(self, time, packet, qlen):
        self.events.append(("deq", time, packet.pid, qlen))


@pytest.mark.parametrize("capacity", [0, -1500, math.nan])
def test_non_positive_or_nan_capacity_rejected(capacity):
    with pytest.raises(ConfigurationError):
        DropTailQueue(capacity)


def test_fifo_order():
    queue = DropTailQueue(10_000)
    packets = [make_packet() for _ in range(3)]
    for packet in packets:
        assert queue.offer(0.0, packet)
    taken = [queue.take(1.0) for _ in range(3)]
    assert [p.pid for p in taken] == [p.pid for p in packets]


def test_byte_accounting():
    queue = DropTailQueue(10_000)
    queue.offer(0.0, make_packet(1500))
    queue.offer(0.0, make_packet(500))
    assert queue.bytes_queued == 2000
    assert len(queue) == 2
    queue.take(0.0)
    assert queue.bytes_queued == 500


def test_drop_tail_rejects_when_full():
    queue = DropTailQueue(3000)
    assert queue.offer(0.0, make_packet(1500))
    assert queue.offer(0.0, make_packet(1500))
    assert not queue.offer(0.0, make_packet(1500))
    assert queue.stats.dropped_packets == 1
    assert queue.stats.enqueued_packets == 2


def test_partial_space_drops_whole_packet():
    # 1000 bytes free but the packet is 1500: IP drops the whole datagram.
    queue = DropTailQueue(2500)
    queue.offer(0.0, make_packet(1500))
    assert not queue.offer(0.0, make_packet(1500))
    assert queue.offer(0.0, make_packet(1000))


def test_take_from_empty_returns_none():
    queue = DropTailQueue(1000)
    assert queue.take(0.0) is None
    assert queue.is_empty


def test_peak_bytes_tracked():
    queue = DropTailQueue(10_000)
    for _ in range(4):
        queue.offer(0.0, make_packet(1500))
    queue.take(0.0)
    assert queue.stats.peak_bytes == 6000


def test_loss_rate_is_router_centric():
    queue = DropTailQueue(1500)
    queue.offer(0.0, make_packet(1500))
    queue.offer(0.0, make_packet(1500))  # dropped
    # L/(S+L) with L=1 drop and S=1 accepted.
    assert queue.stats.loss_rate == pytest.approx(0.5)


def test_observer_sees_all_events():
    queue = DropTailQueue(1500)
    observer = RecordingObserver()
    queue.attach(observer)
    kept = make_packet(1500)
    queue.offer(1.0, kept)
    dropped = make_packet(1500)
    queue.offer(2.0, dropped)
    queue.take(3.0)
    kinds = [event[0] for event in observer.events]
    assert kinds == ["enq", "drop", "deq"]
    assert observer.events[0][3] == 1500  # qlen includes the packet
    assert observer.events[2][3] == 0  # qlen after dequeue


def test_enqueued_at_stamped():
    queue = DropTailQueue(5000)
    packet = make_packet()
    queue.offer(7.5, packet)
    assert packet.enqueued_at == 7.5


def test_capacity_must_be_positive():
    with pytest.raises(ConfigurationError):
        DropTailQueue(0)


def test_red_accepts_below_min_threshold():
    queue = REDQueue(100_000, rng=random.Random(1))
    for _ in range(5):
        assert queue.offer(0.0, make_packet(1500))
    assert queue.stats.dropped_packets == 0


def test_red_never_exceeds_hard_capacity():
    queue = REDQueue(4500, rng=random.Random(1))
    for _ in range(10):
        queue.offer(0.0, make_packet(1500))
    assert queue.bytes_queued <= 4500


def test_red_drops_probabilistically_between_thresholds():
    rng = random.Random(7)
    queue = REDQueue(150_000, min_thresh_frac=0.1, max_thresh_frac=0.9,
                     max_drop_prob=0.5, weight=0.5, rng=rng)
    # Push the average queue into the ramp, then count early drops.
    dropped = 0
    for _ in range(400):
        if not queue.offer(0.0, make_packet(1500)):
            dropped += 1
        if queue.bytes_queued > 120_000:
            queue.take(0.0)
    assert dropped > 0
    assert queue.stats.dropped_packets == dropped


def test_red_parameter_validation():
    with pytest.raises(ConfigurationError):
        REDQueue(1000, min_thresh_frac=0.8, max_thresh_frac=0.5)
    with pytest.raises(ConfigurationError):
        REDQueue(1000, max_drop_prob=0.0)


@pytest.mark.parametrize("weight", [math.nan, 0.0, -0.002, 1.5])
def test_red_rejects_weight_outside_unit_interval(weight):
    with pytest.raises(ConfigurationError):
        REDQueue(1000, weight=weight)
