"""Tests for the link transmitter (serialization + propagation)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.net.simulator import Simulator
from repro.units import mbps


def make_link(sim, bandwidth=mbps(12), delay=0.05, queue=None):
    link = Link(sim, bandwidth, delay, queue=queue)
    arrivals = []
    link.connect(lambda packet: arrivals.append((sim.now, packet)))
    return link, arrivals


def test_single_packet_latency_is_serialization_plus_propagation():
    sim = Simulator()
    link, arrivals = make_link(sim)
    link.send(Packet("a", "b", 1500))
    sim.run()
    # 1500 B at 12 Mb/s = 1 ms, plus 50 ms propagation.
    assert arrivals[0][0] == pytest.approx(0.051)


def test_back_to_back_packets_are_serialized():
    sim = Simulator()
    link, arrivals = make_link(sim)
    link.send(Packet("a", "b", 1500))
    link.send(Packet("a", "b", 1500))
    sim.run()
    times = [t for t, _ in arrivals]
    assert times[0] == pytest.approx(0.051)
    assert times[1] == pytest.approx(0.052)  # one extra serialization time


def test_pipelining_on_the_wire():
    # Propagation >> serialization: the second packet starts transmitting
    # while the first is still propagating.
    sim = Simulator()
    link, arrivals = make_link(sim, delay=1.0)
    link.send(Packet("a", "b", 1500))
    link.send(Packet("a", "b", 1500))
    sim.run()
    assert arrivals[1][0] - arrivals[0][0] == pytest.approx(0.001)


def test_send_returns_false_when_queue_full():
    sim = Simulator()
    queue = DropTailQueue(1500)
    link, _ = make_link(sim, queue=queue)
    first = Packet("a", "b", 1500)
    assert link.send(first)
    # The first packet is immediately pulled into the transmitter, freeing
    # the queue, so fill it again before testing the drop.
    assert link.send(Packet("a", "b", 1500))
    assert not link.send(Packet("a", "b", 1500))


def test_delivery_order_preserved():
    sim = Simulator()
    link, arrivals = make_link(sim)
    packets = [Packet("a", "b", 500) for _ in range(5)]
    for packet in packets:
        link.send(packet)
    sim.run()
    assert [p.pid for _, p in arrivals] == [p.pid for p in packets]


def test_transmitted_counters():
    sim = Simulator()
    link, _ = make_link(sim)
    link.send(Packet("a", "b", 1000))
    link.send(Packet("a", "b", 500))
    sim.run()
    assert link.transmitted_packets == 2
    assert link.transmitted_bytes == 1500


def test_idle_then_busy_cycles():
    sim = Simulator()
    link, arrivals = make_link(sim, delay=0.0)
    link.send(Packet("a", "b", 1500))
    sim.run()
    link.send(Packet("a", "b", 1500))
    sim.run()
    assert len(arrivals) == 2
    assert arrivals[1][0] == pytest.approx(0.002)


def test_invalid_parameters_rejected():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        Link(sim, 0, 0.01)
    with pytest.raises(ConfigurationError):
        Link(sim, mbps(1), -0.01)


@pytest.mark.parametrize("bandwidth, delay", [(math.nan, 0.01), (mbps(1), math.nan)])
def test_nan_parameters_rejected(bandwidth, delay):
    with pytest.raises(ConfigurationError):
        Link(Simulator(), bandwidth, delay)


def serialization_starts(sends, bandwidth):
    """``(start, tx)`` per packet of a FIFO link fed ``(send time, size)``.

    A packet starts serializing at its send time if the link is idle, else
    at the previous packet's end of transmission, ``start + tx``.
    """
    finished = -math.inf
    hops = []
    for sent_at, size in sends:
        start = sent_at if sent_at > finished else finished
        tx = size * 8 / bandwidth
        finished = start + tx
        hops.append((start, tx))
    return hops


def test_hop_times_are_exact_for_interleaved_sizes():
    # Two links with different rates carry the same sizes, so a cache of
    # serialization times keyed or shared wrongly gives a different float.
    sends = [
        (0.0, 1500), (0.0, 40), (0.0, 600), (0.0003, 40), (0.0011, 1500),
        (0.0371, 600), (0.0371, 40), (0.0372, 1500), (0.0919, 40),
        (0.25, 600), (0.2500001, 600), (0.2500002, 1500), (0.2500003, 40),
    ]
    for bandwidth, delay in ((mbps(12), 0.0123), (mbps(7.3), 0.0517)):
        sim = Simulator()
        link, arrivals = make_link(sim, bandwidth=bandwidth, delay=delay)
        for sent_at, size in sends:
            sim.schedule(sent_at, link.send, Packet("a", "b", size))
        sim.run()
        hops = serialization_starts(sends, bandwidth)
        # Chained `schedule` arithmetic: end of transmission at start + tx,
        # delivery `delay` after that.
        expected = [(start + tx) + delay for start, tx in hops]
        assert [time for time, _ in arrivals] == expected
        assert [packet.size for _, packet in arrivals] == [size for _, size in sends]
        # The schedule is chosen so that re-associating the sum changes at
        # least one float.
        assert [start + (tx + delay) for start, tx in hops] != expected


def test_utilization_hint():
    sim = Simulator()
    link, _ = make_link(sim, bandwidth=mbps(12), delay=0.0)
    for _ in range(10):
        link.send(Packet("a", "b", 1500))
    sim.run(until=0.02)
    # 10 packets = 10 ms of a 12 Mb/s link observed over 20 ms -> 50%.
    assert link.utilization_hint == pytest.approx(0.5)


def test_random_loss_drops_expected_fraction():
    sim = Simulator(seed=3)
    link = Link(sim, mbps(100), 0.0, name="lossy", random_loss=0.2)
    arrivals = []
    link.connect(lambda packet: arrivals.append(packet))
    for _ in range(5000):
        link.send(Packet("a", "b", 100))
    sim.run()
    assert link.randomly_lost == pytest.approx(1000, rel=0.15)
    assert len(arrivals) + link.randomly_lost == 5000


def test_random_loss_zero_is_lossless():
    sim = Simulator()
    link, arrivals = make_link(sim)
    assert link.randomly_lost == 0
    for _ in range(100):
        link.send(Packet("a", "b", 100))
    sim.run()
    assert len(arrivals) == 100


def test_random_loss_validation():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        Link(sim, mbps(1), 0.0, random_loss=1.0)
    with pytest.raises(ConfigurationError):
        Link(sim, mbps(1), 0.0, random_loss=-0.1)
