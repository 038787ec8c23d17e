"""Nodes: hosts and routers.

A :class:`Node` owns a set of outgoing :class:`~repro.net.link.Link`\\ s keyed
by neighbour name and a static routing table mapping destination node names
to next-hop neighbours. :class:`Router` forwards; :class:`Host` additionally
demultiplexes arriving packets to registered applications by
``(protocol, port)``.

Routing tables are normally filled in by
:class:`repro.net.topology.Topology`, which computes shortest paths over the
declared links.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import RoutingError
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.simulator import Simulator

#: Application delivery callback: (packet) -> None.
AppReceiver = Callable[[Packet], None]

#: Inbound admission filter: (packet) -> keep? False silently discards.
InboundFilter = Callable[[Packet], bool]


class Node:
    """Base class: forwarding element with static routes."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        #: Outgoing links keyed by neighbour node name.
        self.links: Dict[str, Link] = {}
        #: Destination node name -> next-hop neighbour name. Install routes
        #: with :meth:`add_route`, which also keeps ``_next_link`` current.
        self.routes: Dict[str, str] = {}
        #: Destination node name -> outgoing link: ``routes`` resolved
        #: through ``links``, so forwarding is one lookup.
        self._next_link: Dict[str, Link] = {}
        #: Packets that arrived with no route (should stay zero).
        self.unroutable = 0

    # ----------------------------------------------------------------- wiring
    def add_link(self, neighbor: str, link: Link) -> None:
        """Register the outgoing link towards ``neighbor``.

        Replacing a neighbour's link re-points the routes through it.
        """
        self.links[neighbor] = link
        for destination, next_hop in self.routes.items():
            if next_hop == neighbor:
                self._next_link[destination] = link

    def add_route(self, destination: str, next_hop: str) -> None:
        """Install a static route."""
        link = self.links.get(next_hop)
        if link is None:
            raise RoutingError(
                f"{self.name}: next hop {next_hop!r} has no attached link"
            )
        self.routes[destination] = next_hop
        self._next_link[destination] = link

    # ------------------------------------------------------------- forwarding
    def forward(self, packet: Packet) -> None:
        """Send ``packet`` towards its destination via the routing table."""
        link = self._next_link.get(packet.dst)
        if link is None:
            self.unroutable += 1
            raise RoutingError(
                f"{self.name}: no route to {packet.dst!r} (packet {packet.pid})"
            )
        link.send(packet)

    #: Packet arrived from a link: a forwarding node passes it on, and
    #: hosts override this to deliver locally. An alias rather than a
    #: method that calls ``forward``, so a router hop costs one frame.
    receive = forward


class Router(Node):
    """A pure forwarding node. Exists for readability of topology code."""


class Host(Node):
    """An end host: applications attach here and receive local deliveries."""

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self._apps: Dict[Tuple[str, int], AppReceiver] = {}
        #: Local deliveries that found no bound application.
        self.undeliverable = 0
        #: Optional admission filter (e.g. a fault injector's collector
        #: outage); local deliveries it rejects are counted here.
        self._inbound_filter: Optional[InboundFilter] = None
        self.filtered_inbound = 0

    def set_inbound_filter(self, filter_fn: Optional[InboundFilter]) -> None:
        """Install (or clear, with None) an inbound admission filter."""
        self._inbound_filter = filter_fn

    def bind(self, protocol: str, port: int, receiver: AppReceiver) -> None:
        """Register an application receive callback for (protocol, port)."""
        key = (protocol, port)
        if key in self._apps:
            raise RoutingError(f"{self.name}: {key} already bound")
        self._apps[key] = receiver

    def unbind(self, protocol: str, port: int) -> None:
        """Remove a binding (used by finite flows when they complete)."""
        self._apps.pop((protocol, port), None)

    def receive(self, packet: Packet) -> None:
        if packet.dst != self.name:
            self.forward(packet)
            return
        if self._inbound_filter is not None and not self._inbound_filter(packet):
            self.filtered_inbound += 1
            return
        receiver = self._apps.get((packet.protocol, packet.port))
        if receiver is None:
            self.undeliverable += 1
            return
        receiver(packet)

    def send(self, packet: Packet) -> None:
        """Entry point for local applications: stamp and forward."""
        packet.created_at = self.sim.now
        if packet.dst == self.name:  # loopback, mostly for tests
            self.receive(packet)
            return
        self.forward(packet)
