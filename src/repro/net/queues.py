"""Output queues.

The paper's loss process is produced by a single FIFO drop-tail queue on the
bottleneck router's OC3 interface, sized to hold ~100 ms of packets. The
:class:`DropTailQueue` here reproduces exactly that: a byte-limited FIFO that
drops arrivals when full. :class:`REDQueue` is provided for the robustness
ablation (the paper's method should — and does — keep working when the
bottleneck applies random early detection instead of tail drop).

Queues are passive containers; the :class:`repro.net.link.Link` transmitter
pulls packets from them. Observers (see :mod:`repro.net.monitor`) can attach
to see every enqueue, drop and dequeue with exact timestamps — the simulator
equivalent of the paper's DAG capture cards.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Protocol

from repro.errors import ConfigurationError
from repro.net.packet import Packet


class QueueObserver(Protocol):
    """Interface for taps attached to a queue (DAG-card equivalent)."""

    def on_enqueue(self, time: float, packet: Packet, qlen_bytes: int) -> None:
        """Packet accepted into the queue; ``qlen_bytes`` includes it."""

    def on_drop(self, time: float, packet: Packet, qlen_bytes: int) -> None:
        """Packet dropped at arrival; ``qlen_bytes`` is the standing queue."""

    def on_dequeue(self, time: float, packet: Packet, qlen_bytes: int) -> None:
        """Packet handed to the transmitter; ``qlen_bytes`` excludes it."""


class QueueStats:
    """Cheap aggregate counters kept by every queue."""

    __slots__ = (
        "enqueued_packets",
        "enqueued_bytes",
        "dropped_packets",
        "dropped_bytes",
        "dequeued_packets",
        "dequeued_bytes",
        "peak_bytes",
    )

    def __init__(self) -> None:
        self.enqueued_packets = 0
        self.enqueued_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.dequeued_packets = 0
        self.dequeued_bytes = 0
        self.peak_bytes = 0

    @property
    def loss_rate(self) -> float:
        """Router-centric loss rate L/(S+L) from §3 of the paper."""
        total = self.enqueued_packets + self.dropped_packets
        if total == 0:
            return 0.0
        return self.dropped_packets / total


class DropTailQueue:
    """Byte-limited FIFO drop-tail queue.

    Parameters
    ----------
    capacity_bytes:
        Maximum queued bytes. A packet whose admission would exceed the
        capacity is dropped in its entirety (IP, not ATM).
    name:
        Label used in monitor output.
    """

    #: Drop-cause label reported to the metrics registry; RED overrides
    #: per drop to distinguish early (random) drops from forced tail drops.
    drop_cause = "tail"

    def __init__(self, capacity_bytes: int, name: str = "queue"):
        if not capacity_bytes > 0:  # also rejects NaN
            raise ConfigurationError(
                f"queue capacity must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.name = name
        #: Waiting packets, head first. The link transmitter tests it for
        #: emptiness; change it only through :meth:`offer` and :meth:`take`.
        self.packets: Deque[Packet] = deque()
        self._bytes = 0
        self.stats = QueueStats()
        self._observers: List[QueueObserver] = []
        self._metrics = None

    # -------------------------------------------------------------- observers
    def attach(self, observer: QueueObserver) -> None:
        """Attach a tap that sees every enqueue/drop/dequeue."""
        self._observers.append(observer)

    def bind_metrics(self, registry) -> None:
        """Publish this queue's counters through a metrics registry.

        Aggregate stats are *pulled* from :class:`QueueStats` at snapshot
        time (zero hot-path cost); only drops — rare by definition — push
        a per-cause/per-protocol counter at drop time. Idempotent per
        registry; a :class:`~repro.obs.metrics.NullRegistry` disables the
        push path entirely.
        """
        if registry is None or not registry.enabled or registry is self._metrics:
            return
        self._metrics = registry
        registry.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry) -> None:
        stats = self.stats
        labels = {"queue": self.name}
        registry.counter("queue.enqueued_packets", **labels).value = stats.enqueued_packets
        registry.counter("queue.enqueued_bytes", **labels).value = stats.enqueued_bytes
        registry.counter("queue.dequeued_packets", **labels).value = stats.dequeued_packets
        registry.counter("queue.dropped_packets", **labels).value = stats.dropped_packets
        registry.counter("queue.dropped_bytes", **labels).value = stats.dropped_bytes
        gauge = registry.gauge("queue.bytes", **labels)
        # Always publish floats: an int peak captured by a mid-run scrape
        # JSON-renders as "600" where the end-only path writes "600.0",
        # breaking digest equality even though the values compare equal.
        gauge.set(float(self._bytes))
        gauge.peak = max(gauge.peak, float(stats.peak_bytes))

    # ------------------------------------------------------------------ state
    def __len__(self) -> int:
        return len(self.packets)

    @property
    def bytes_queued(self) -> int:
        """Bytes currently in the queue."""
        return self._bytes

    @property
    def is_empty(self) -> bool:
        return not self.packets

    # ------------------------------------------------------------- operations
    def offer(self, time: float, packet: Packet) -> bool:
        """Try to admit ``packet`` at ``time``; return True if accepted."""
        if not self._admit(time, packet):
            self._reject(time, packet)
            return False
        size = packet.size
        packet.enqueued_at = time
        self.packets.append(packet)
        self._bytes = qlen = self._bytes + size
        stats = self.stats
        stats.enqueued_packets += 1
        stats.enqueued_bytes += size
        if qlen > stats.peak_bytes:
            stats.peak_bytes = qlen
        for observer in self._observers:
            observer.on_enqueue(time, packet, qlen)
        return True

    def take(self, time: float) -> Optional[Packet]:
        """Remove and return the head-of-line packet, or None if empty."""
        packets = self.packets
        if not packets:
            return None
        packet = packets.popleft()
        size = packet.size
        self._bytes = qlen = self._bytes - size
        stats = self.stats
        stats.dequeued_packets += 1
        stats.dequeued_bytes += size
        for observer in self._observers:
            observer.on_dequeue(time, packet, qlen)
        return packet

    # -------------------------------------------------------------- internals
    def _admit(self, time: float, packet: Packet) -> bool:
        """Drop-tail admission: accept iff the packet fits."""
        return self._bytes + packet.size <= self.capacity_bytes

    def _reject(self, time: float, packet: Packet) -> None:
        stats = self.stats
        stats.dropped_packets += 1
        stats.dropped_bytes += packet.size
        if self._metrics is not None:
            # Per-cause / per-protocol attribution lets receiver-side
            # accounting separate congestion tail-drops from fault noise.
            self._metrics.counter(
                "queue.drops",
                queue=self.name,
                cause=self.drop_cause,
                protocol=packet.protocol,
            ).inc()
        for observer in self._observers:
            observer.on_drop(time, packet, self._bytes)


class REDQueue(DropTailQueue):
    """Random Early Detection queue (gentle RED, byte mode).

    Used only by the robustness ablation; parameters follow the classic
    Floyd/Jacobson formulation with an exponentially weighted average queue
    and a drop probability ramp between ``min_thresh`` and ``max_thresh``.
    """

    def __init__(
        self,
        capacity_bytes: int,
        name: str = "red-queue",
        min_thresh_frac: float = 0.25,
        max_thresh_frac: float = 0.75,
        max_drop_prob: float = 0.1,
        weight: float = 0.002,
        rng=None,
    ):
        super().__init__(capacity_bytes, name)
        if not 0 < min_thresh_frac < max_thresh_frac <= 1.0:
            raise ConfigurationError(
                "RED thresholds must satisfy 0 < min < max <= 1, got "
                f"{min_thresh_frac}, {max_thresh_frac}"
            )
        if not 0 < max_drop_prob <= 1.0:
            raise ConfigurationError(
                f"max_drop_prob must be in (0, 1], got {max_drop_prob}"
            )
        if not 0 < weight <= 1.0:  # a NaN weight would early-drop everything
            raise ConfigurationError(f"weight must be in (0, 1], got {weight}")
        self.min_thresh = min_thresh_frac * capacity_bytes
        self.max_thresh = max_thresh_frac * capacity_bytes
        self.max_drop_prob = max_drop_prob
        self.weight = weight
        self.avg_bytes = 0.0
        if rng is None:
            import random as _random

            rng = _random.Random(0)
        self._rng = rng

    def _admit(self, time: float, packet: Packet) -> bool:
        # Update the EWMA on every arrival, then apply the RED ramp on top of
        # the hard drop-tail limit.
        self.avg_bytes += self.weight * (self._bytes - self.avg_bytes)
        if self._bytes + packet.size > self.capacity_bytes:
            self.drop_cause = "tail"
            return False
        self.drop_cause = "red-early"
        if self.avg_bytes < self.min_thresh:
            return True
        if self.avg_bytes >= self.max_thresh:
            return False
        ramp = (self.avg_bytes - self.min_thresh) / (self.max_thresh - self.min_thresh)
        return self._rng.random() >= ramp * self.max_drop_prob
