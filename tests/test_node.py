"""Tests for hosts, routers, and static routing."""

import pytest

from repro.errors import RoutingError
from repro.net.link import Link
from repro.net.node import Host, Router
from repro.net.packet import Packet
from repro.net.simulator import Simulator
from repro.units import mbps


def wire(sim, a, b, bandwidth=mbps(100), delay=0.001):
    ab = Link(sim, bandwidth, delay, name=f"{a.name}->{b.name}")
    ba = Link(sim, bandwidth, delay, name=f"{b.name}->{a.name}")
    ab.connect(b.receive)
    ba.connect(a.receive)
    a.add_link(b.name, ab)
    b.add_link(a.name, ba)


def test_host_delivers_to_bound_application():
    sim = Simulator()
    alice, bob = Host(sim, "alice"), Host(sim, "bob")
    wire(sim, alice, bob)
    alice.add_route("bob", "bob")
    got = []
    bob.bind("udp", 9, got.append)
    alice.send(Packet("alice", "bob", 100, protocol="udp", port=9))
    sim.run()
    assert len(got) == 1
    assert got[0].src == "alice"


def test_router_forwards_between_hosts():
    sim = Simulator()
    alice, bob = Host(sim, "alice"), Host(sim, "bob")
    router = Router(sim, "r")
    wire(sim, alice, router)
    wire(sim, router, bob)
    alice.add_route("bob", "r")
    router.add_route("bob", "bob")
    got = []
    bob.bind("udp", 5, got.append)
    alice.send(Packet("alice", "bob", 100, port=5))
    sim.run()
    assert len(got) == 1


def test_unbound_delivery_counts_undeliverable():
    sim = Simulator()
    alice, bob = Host(sim, "alice"), Host(sim, "bob")
    wire(sim, alice, bob)
    alice.add_route("bob", "bob")
    alice.send(Packet("alice", "bob", 100, port=1234))
    sim.run()
    assert bob.undeliverable == 1


def test_no_route_raises():
    sim = Simulator()
    alice = Host(sim, "alice")
    with pytest.raises(RoutingError):
        alice.send(Packet("alice", "nowhere", 100))


def test_route_to_unattached_next_hop_rejected():
    sim = Simulator()
    alice = Host(sim, "alice")
    with pytest.raises(RoutingError):
        alice.add_route("bob", "missing")


def test_double_bind_rejected():
    sim = Simulator()
    host = Host(sim, "h")
    host.bind("udp", 1, lambda packet: None)
    with pytest.raises(RoutingError):
        host.bind("udp", 1, lambda packet: None)


def test_unbind_allows_rebinding():
    sim = Simulator()
    host = Host(sim, "h")
    host.bind("udp", 1, lambda packet: None)
    host.unbind("udp", 1)
    host.bind("udp", 1, lambda packet: None)


def test_unbind_missing_is_silent():
    sim = Simulator()
    Host(sim, "h").unbind("udp", 99)


def test_send_stamps_created_at():
    sim = Simulator()
    alice, bob = Host(sim, "alice"), Host(sim, "bob")
    wire(sim, alice, bob)
    alice.add_route("bob", "bob")
    bob.bind("udp", 2, lambda packet: None)
    sim.schedule(0.25, alice.send, Packet("alice", "bob", 100, port=2))
    packet = Packet("alice", "bob", 100, port=2)
    sim.schedule(0.5, alice.send, packet)
    sim.run()
    assert packet.created_at == 0.5


def test_loopback_delivery():
    sim = Simulator()
    host = Host(sim, "h")
    got = []
    host.bind("udp", 3, got.append)
    host.send(Packet("h", "h", 64, port=3))
    assert len(got) == 1


def test_protocol_demux_is_separate_per_protocol():
    sim = Simulator()
    alice, bob = Host(sim, "alice"), Host(sim, "bob")
    wire(sim, alice, bob)
    alice.add_route("bob", "bob")
    udp_got, tcp_got = [], []
    bob.bind("udp", 7, udp_got.append)
    bob.bind("tcp", 7, tcp_got.append)
    alice.send(Packet("alice", "bob", 100, protocol="tcp", port=7))
    sim.run()
    assert not udp_got
    assert len(tcp_got) == 1


def test_replacing_a_neighbours_link_reroutes_existing_routes():
    sim = Simulator()
    alice, bob = Host(sim, "alice"), Host(sim, "bob")
    wire(sim, alice, bob)
    alice.add_route("bob", "bob")
    old = alice.links["bob"]
    new = Link(sim, mbps(10), 0.002, name="alice->bob-2")
    new.connect(bob.receive)
    alice.add_link("bob", new)
    got = []
    bob.bind("udp", 4, got.append)
    alice.send(Packet("alice", "bob", 100, port=4))
    sim.run()
    assert len(got) == 1
    assert (old.transmitted_packets, new.transmitted_packets) == (0, 1)
    assert alice.routes == {"bob": "bob"}


def test_unroutable_destination_raises_and_counts():
    sim = Simulator()
    alice, bob = Host(sim, "alice"), Host(sim, "bob")
    router = Router(sim, "r")
    wire(sim, alice, router)
    wire(sim, router, bob)
    router.add_route("bob", "bob")
    with pytest.raises(RoutingError, match="no route to 'carol'"):
        router.receive(Packet("alice", "carol", 100))
    with pytest.raises(RoutingError):
        alice.send(Packet("alice", "carol", 100))
    assert (router.unroutable, alice.unroutable) == (1, 1)


def test_router_forwards_a_link_delivery():
    sim = Simulator()
    alice, bob = Host(sim, "alice"), Host(sim, "bob")
    router = Router(sim, "r")
    wire(sim, alice, router)
    wire(sim, router, bob)
    router.add_route("bob", "bob")
    got = []
    bob.bind("udp", 6, got.append)
    # Drive the router only through the link that delivers into it.
    alice.links["r"].send(Packet("alice", "bob", 100, port=6))
    sim.run()
    assert len(got) == 1
    assert router.links["bob"].transmitted_packets == 1
    assert router.links["alice"].transmitted_packets == 0
    assert router.unroutable == 0
