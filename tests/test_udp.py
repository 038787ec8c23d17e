"""Tests for UDP sources and sinks."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.net.simulator import Simulator
from repro.net.topology import DumbbellTestbed
from repro.traffic.udp import UdpSink, UdpSource
from repro.units import mbps


def make_pair(seed=1):
    sim = Simulator(seed=seed)
    testbed = DumbbellTestbed(sim)
    return sim, testbed


def test_source_rate_produces_expected_packet_count():
    sim, testbed = make_pair()
    sink = UdpSink(sim, testbed.traffic_receivers[0])
    source = UdpSource(
        sim,
        testbed.traffic_senders[0],
        "trcv0",
        rate_bps=mbps(1.2),
        packet_size=1500,
        dst_port=sink.port,
    )
    sim.run(until=1.0)
    # 1.2 Mb/s / (1500 B) = 100 packets/s; first at t=0. Floating-point
    # accumulation may push the tick at t=1.0 just past the boundary.
    assert source.sent_packets in (100, 101)
    sim.run(until=1.5)
    assert sink.received_packets >= 100


def test_sink_records_sequence_and_timestamps():
    sim, testbed = make_pair()
    sink = UdpSink(sim, testbed.traffic_receivers[0], record=True)
    UdpSource(
        sim,
        testbed.traffic_senders[0],
        "trcv0",
        rate_bps=mbps(12),
        packet_size=1500,
        dst_port=sink.port,
    )
    sim.run(until=0.2)
    assert sink.records
    seqs = [seq for seq, _, _ in sink.records]
    assert seqs == sorted(seqs)
    for _seq, sent, received in sink.records:
        assert received > sent


def test_set_rate_zero_pauses_and_resumes():
    sim, testbed = make_pair()
    sink = UdpSink(sim, testbed.traffic_receivers[0])
    source = UdpSource(
        sim,
        testbed.traffic_senders[0],
        "trcv0",
        rate_bps=mbps(12),
        packet_size=1500,
        dst_port=sink.port,
    )
    sim.run(until=0.1)
    sent_at_pause = source.sent_packets
    source.set_rate(0.0)
    sim.run(until=0.5)
    assert source.sent_packets == sent_at_pause
    source.set_rate(mbps(12))
    sim.run(until=0.6)
    assert source.sent_packets > sent_at_pause


def test_source_starting_paused_sends_nothing():
    sim, testbed = make_pair()
    source = UdpSource(
        sim,
        testbed.traffic_senders[0],
        "trcv0",
        rate_bps=0.0,
        packet_size=1500,
        dst_port=1,
    )
    sim.run(until=0.5)
    assert source.sent_packets == 0


def test_stop_is_permanent_pause():
    sim, testbed = make_pair()
    sink = UdpSink(sim, testbed.traffic_receivers[0])
    source = UdpSource(
        sim,
        testbed.traffic_senders[0],
        "trcv0",
        rate_bps=mbps(6),
        packet_size=1500,
        dst_port=sink.port,
    )
    sim.run(until=0.05)
    source.stop()
    before = source.sent_packets
    sim.run(until=0.3)
    assert source.sent_packets == before


def test_gap_matches_rate():
    sim, testbed = make_pair()
    source = UdpSource(
        sim,
        testbed.traffic_senders[0],
        "trcv0",
        rate_bps=mbps(12),
        packet_size=1500,
        dst_port=1,
    )
    assert source.gap == pytest.approx(0.001)
    source.stop()


def test_invalid_parameters():
    sim, testbed = make_pair()
    with pytest.raises(ConfigurationError):
        UdpSource(sim, testbed.traffic_senders[0], "trcv0", rate_bps=-1,
                  packet_size=1500, dst_port=1)
    with pytest.raises(ConfigurationError):
        UdpSource(sim, testbed.traffic_senders[0], "trcv0", rate_bps=1e6,
                  packet_size=0, dst_port=1)
    source = UdpSource(sim, testbed.traffic_senders[1], "trcv1", rate_bps=0,
                       packet_size=100, dst_port=1)
    with pytest.raises(ConfigurationError):
        source.set_rate(-5)


@pytest.mark.parametrize(
    "rate_bps, packet_size, new_rate",
    [(math.nan, 1500, 0.0), (1e6, math.nan, 0.0), (0.0, 1500, math.nan)],
    ids=["nan-rate", "nan-size", "nan-set-rate"],
)
def test_nan_parameters_rejected(rate_bps, packet_size, new_rate):
    # NaN passes `x < 0` and `x <= 0`; a NaN rate would schedule ticks at
    # NaN times.
    sim, testbed = make_pair()
    with pytest.raises(ConfigurationError):
        source = UdpSource(sim, testbed.traffic_senders[0], "trcv0",
                           rate_bps=rate_bps, packet_size=packet_size,
                           dst_port=1)
        source.set_rate(new_rate)


def test_infinite_rate_rejected():
    # An infinite rate has a zero gap: every tick would be scheduled at the
    # current time, so simulated time would never advance.
    sim, testbed = make_pair()
    with pytest.raises(ConfigurationError):
        UdpSource(sim, testbed.traffic_senders[0], "trcv0", rate_bps=math.inf,
                  packet_size=1500, dst_port=1)
    source = UdpSource(sim, testbed.traffic_senders[1], "trcv1", rate_bps=1e6,
                       packet_size=100, dst_port=1)
    with pytest.raises(ConfigurationError):
        source.set_rate(math.inf)
    assert source.rate_bps == 1e6
