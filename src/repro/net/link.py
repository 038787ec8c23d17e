"""Links: serializing transmitters plus propagation delay.

A :class:`Link` is unidirectional. It owns an output :class:`DropTailQueue`
(or RED variant), drains it at the configured bandwidth (one packet at a
time — store-and-forward), and delivers each packet to the remote endpoint
after the propagation delay. Bidirectional connectivity is modelled as two
independent links, exactly as the paper's testbed used independent forward
and reverse paths.

The 50 ms hardware propagation-delay emulator of the testbed maps to the
``delay`` parameter here.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.net.simulator import Simulator
from repro.units import transmission_time

#: Receiver callback signature: (packet) -> None.
Receiver = Callable[[Packet], None]


class Link:
    """Unidirectional link with serialization and propagation delay.

    Parameters
    ----------
    sim:
        The simulator driving this link.
    bandwidth_bps:
        Serialization rate in bits/second.
    delay:
        One-way propagation delay in seconds.
    queue:
        Output queue feeding the transmitter. If omitted, an effectively
        unlimited drop-tail queue is created (useful for access links that
        should never be the bottleneck).
    name:
        Label for monitor output and debugging.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        delay: float,
        queue: Optional[DropTailQueue] = None,
        name: str = "link",
        random_loss: float = 0.0,
    ):
        if not bandwidth_bps > 0:  # also rejects NaN
            raise ConfigurationError(f"bandwidth must be positive, got {bandwidth_bps}")
        if not delay >= 0:  # also rejects NaN
            raise ConfigurationError(f"delay must be non-negative, got {delay}")
        if not 0 <= random_loss < 1:
            raise ConfigurationError(f"random_loss must be in [0, 1), got {random_loss}")
        self.sim = sim
        self._bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.queue = queue if queue is not None else DropTailQueue(1 << 40, f"{name}-q")
        self.name = name
        self._receiver: Optional[Receiver] = None
        self._busy = False
        #: Serialization time by packet size. A link carries only a few
        #: sizes, so each ``transmission_time`` is computed once.
        self._tx_times: Dict[int, float] = {}
        #: Total packets/bytes that completed transmission on this link.
        self.transmitted_packets = 0
        self.transmitted_bytes = 0
        #: Per-packet random loss probability applied after transmission —
        #: models corruption / NIC buffer drops that are *uncorrelated*
        #: with queueing, the noise §6.1's OWD_max filtering is meant to
        #: tolerate. Congestion loss always comes from the queue instead.
        self.random_loss = random_loss
        self.randomly_lost = 0
        self._loss_rng = sim.rng(f"linkloss-{name}") if random_loss > 0 else None
        #: Optional fault injector (see :mod:`repro.net.faults`); None means
        #: the delivery path is exactly the clean store-and-forward path.
        self._fault_injector = None
        # Observability: aggregate counters are pulled from the raw slots
        # above at snapshot time, so the per-packet path stays untouched.
        if sim.metrics.enabled:
            self.queue.bind_metrics(sim.metrics)
            sim.metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry) -> None:
        labels = {"link": self.name}
        registry.counter("link.tx_packets", **labels).value = self.transmitted_packets
        registry.counter("link.tx_bytes", **labels).value = self.transmitted_bytes
        if self.randomly_lost:
            registry.counter("link.random_loss", **labels).value = self.randomly_lost

    @property
    def bandwidth_bps(self) -> float:
        """Serialization rate in bits/second, fixed at construction."""
        return self._bandwidth_bps

    # ----------------------------------------------------------------- wiring
    def connect(self, receiver: Receiver) -> None:
        """Set the far-end delivery callback (a node's receive method)."""
        self._receiver = receiver

    def set_fault_injector(self, injector) -> None:
        """Route deliveries through a :class:`~repro.net.faults.FaultInjector`.

        Pass None to restore the clean delivery path.
        """
        self._fault_injector = injector

    def set_random_loss(self, probability: float) -> None:
        """Enable/disable uncorrelated per-packet loss on this link."""
        if not 0 <= probability < 1:
            raise ConfigurationError(
                f"random_loss must be in [0, 1), got {probability}"
            )
        self.random_loss = probability
        if probability > 0 and self._loss_rng is None:
            self._loss_rng = self.sim.rng(f"linkloss-{self.name}")
        if probability == 0:
            self._loss_rng = None

    # ------------------------------------------------------------------ send
    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the output queue; start transmitting if idle.

        Returns True if the packet was queued, False if it was dropped.
        """
        now = self.sim.now
        accepted = self.queue.offer(now, packet)
        if accepted and not self._busy:
            self._start_next(now)
        return accepted

    # -------------------------------------------------------------- internals
    def _start_next(self, now: float) -> None:
        # Called only with a packet waiting: an idle link whose queue is
        # empty stays idle until the next send. Both per-hop events enter
        # the heap through ``schedule_at`` at ``now + d``, the float that
        # ``schedule(d)`` computes.
        packet = self.queue.take(now)
        self._busy = True
        size = packet.size
        tx_time = self._tx_times.get(size)
        if tx_time is None:
            tx_time = self._tx_times[size] = transmission_time(size, self.bandwidth_bps)
        self.sim.schedule_at(now + tx_time, self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        sim = self.sim
        now = sim.now
        self.transmitted_packets += 1
        self.transmitted_bytes += packet.size
        # Propagation: deliver to the far end `delay` seconds from now. The
        # transmitter is free immediately (pipelining on the wire).
        if self._loss_rng is not None and self._loss_rng.random() < self.random_loss:
            self.randomly_lost += 1
        elif self._receiver is not None:
            if self._fault_injector is not None:
                self._fault_injector.deliver(packet, self._receiver, self.delay)
            else:
                sim.schedule_at(now + self.delay, self._receiver, packet)
        if self.queue.packets:
            self._start_next(now)
        else:
            self._busy = False

    @property
    def utilization_hint(self) -> float:
        """Bytes transmitted so far as a fraction of capacity * elapsed time.

        Only meaningful after the simulation has run for a while; used by
        scenario calibration tests.
        """
        if self.sim.now <= 0:
            return 0.0
        return (self.transmitted_bytes * 8) / (self.bandwidth_bps * self.sim.now)
