"""UDP-like datagram applications: a counting sink and a paced source."""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.node import Host
from repro.net.packet import Packet
from repro.net.simulator import Simulator
from repro.traffic.base import Application
from repro.units import BITS_PER_BYTE


class UdpSink(Application):
    """Receives datagrams and keeps arrival statistics.

    Optionally records per-packet ``(seq, send_time, recv_time)`` tuples when
    the payload follows the ``(seq, timestamp)`` convention used by the
    sources and probe tools in this library.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        port: Optional[int] = None,
        record: bool = False,
    ):
        super().__init__(sim, host, "udp", port)
        self.received_packets = 0
        self.received_bytes = 0
        self.record = record
        self.records: List[Tuple[int, float, float]] = []

    def on_packet(self, packet: Packet) -> None:
        self.received_packets += 1
        self.received_bytes += packet.size
        if self.record and isinstance(packet.payload, tuple) and len(packet.payload) == 2:
            seq, send_time = packet.payload
            self.records.append((seq, send_time, self.sim.now))


class UdpSource(Application):
    """Sends fixed-size datagrams at a constant rate with sequence numbers.

    The rate can be changed on the fly with :meth:`set_rate`; a rate of zero
    pauses the source. This is the building block the episodic (Iperf-like)
    scenario drives to engineer loss episodes.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst: str,
        rate_bps: float,
        packet_size: int,
        dst_port: int,
        start: float = 0.0,
        flow: Optional[str] = None,
    ):
        # `not x > 0` / `not x >= 0` also reject NaN; an infinite rate has a
        # zero gap, so every tick would land at the same simulated time.
        if not packet_size > 0:
            raise ConfigurationError(f"packet_size must be positive: {packet_size}")
        if not (rate_bps >= 0 and math.isfinite(rate_bps)):
            raise ConfigurationError(f"rate must be non-negative and finite: {rate_bps}")
        super().__init__(sim, host, "udp")
        self.dst = dst
        self.dst_port = dst_port
        self.packet_size = packet_size
        self.rate_bps = rate_bps
        self.flow = flow if flow is not None else f"udp:{host.name}->{dst}"
        self.sent_packets = 0
        self._seq = 0
        self._tick_event = None
        if rate_bps > 0:
            self._tick_event = sim.schedule_at(max(start, sim.now), self._tick)

    @property
    def gap(self) -> float:
        """Inter-packet interval at the current rate."""
        return self.packet_size * BITS_PER_BYTE / self.rate_bps

    def set_rate(self, rate_bps: float) -> None:
        """Change the sending rate; takes effect immediately."""
        if not (rate_bps >= 0 and math.isfinite(rate_bps)):
            raise ConfigurationError(f"rate must be non-negative and finite: {rate_bps}")
        was_paused = self.rate_bps == 0
        self.rate_bps = rate_bps
        if rate_bps == 0:
            if self._tick_event is not None:
                self._tick_event.cancel()
                self._tick_event = None
        elif was_paused:
            self._tick_event = self.sim.schedule(0.0, self._tick)

    def stop(self) -> None:
        """Pause the source permanently (alias for ``set_rate(0)``)."""
        self.set_rate(0.0)

    def _tick(self) -> None:
        if self.rate_bps <= 0:
            self._tick_event = None
            return
        self._seq += 1
        self.sent_packets += 1
        self.send_packet(
            self.dst,
            self.packet_size,
            payload=(self._seq, self.sim.now),
            port=self.dst_port,
            flow=self.flow,
        )
        self._tick_event = self.sim.schedule(self.gap, self._tick)
