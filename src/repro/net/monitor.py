"""Ground-truth instrumentation (the DAG capture-card equivalent).

The paper established ground truth with optical splitters and Endace DAG
cards on both sides of the bottleneck hop, matching packet headers to
identify exactly which packets were lost and inferring the queue length.
In the simulator we attach a :class:`QueueMonitor` tap directly to the
bottleneck queue: it sees every enqueue, drop, and dequeue with exact
virtual timestamps, which is strictly stronger instrumentation.

To keep memory bounded over multi-hour simulated runs, the monitor does not
store every packet event. It stores:

* every **drop** (time + protocol) — drops are rare by definition,
* every **down-crossing** of a configurable high-water occupancy threshold —
  the information needed to delimit loss episodes the way the paper did for
  Harpoon traffic ("queueing delays of all packets between those losses were
  above 90 milliseconds"),
* aggregate counters (arrivals, drops, departures) for router-centric loss
  rates.

:class:`QueueSampler` separately records a periodic queue-length time series
(for the Figure 4/5/6/8 analogues).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.obs.metrics import RUN_LENGTH_BUCKETS
from repro.net.queues import DropTailQueue
from repro.net.simulator import Simulator


class QueueMonitor:
    """Lossless tap on a queue, recording drops and high-water crossings.

    Parameters
    ----------
    sim:
        Simulator (for timestamps in manual tests; events carry times).
    name:
        Label for reporting.
    high_water_bytes:
        Occupancy threshold whose *down*-crossings delimit loss episodes.
        If None, episode extraction falls back to gap-based merging only.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "monitor",
        high_water_bytes: Optional[int] = None,
        track_flows: bool = False,
    ):
        self.sim = sim
        self.name = name
        self.high_water_bytes = high_water_bytes
        #: Drop records as (time, protocol) tuples, chronological.
        self.drops: List[Tuple[float, str]] = []
        #: Times at which occupancy fell below the high-water mark.
        self.down_crossings: List[float] = []
        self.arrivals = 0
        self.departures = 0
        self.arrived_bytes = 0
        self._above = False
        #: Per-flow (arrivals, drops) counters — the §3 end-to-end view.
        #: Enabled on demand; costs one dict update per packet.
        self.track_flows = track_flows
        self.flow_arrivals: Dict[str, int] = {}
        self.flow_drops: Dict[str, int] = {}
        # Observability: a decimated queue-depth series and a drop-run
        # histogram (consecutive drops with no intervening dequeue — the
        # burst structure behind loss-episode duration). Disabled wholesale
        # under a NullRegistry, keeping the hot hooks at a None-check.
        self._drop_run = 0
        if sim.metrics.enabled:
            self._depth_series = sim.metrics.series(
                "queue.depth_bytes", max_samples=2048, queue=name
            )
            self._drop_run_hist = sim.metrics.histogram(
                "queue.drop_run_length", buckets=RUN_LENGTH_BUCKETS, queue=name
            )
            sim.metrics.add_collector(self._collect_metrics)
        else:
            self._depth_series = None
            self._drop_run_hist = None

    def _collect_metrics(self, registry) -> None:
        labels = {"monitor": self.name}
        registry.counter("monitor.arrivals", **labels).value = self.arrivals
        registry.counter("monitor.departures", **labels).value = self.departures
        registry.counter("monitor.drops", **labels).value = self.total_drops
        registry.counter("monitor.down_crossings", **labels).value = len(
            self.down_crossings
        )

    # --------------------------------------------------- QueueObserver hooks
    def on_enqueue(self, time: float, packet: Packet, qlen_bytes: int) -> None:
        self.arrivals += 1
        self.arrived_bytes += packet.size
        if self.track_flows:
            flow = packet.flow
            self.flow_arrivals[flow] = self.flow_arrivals.get(flow, 0) + 1
        if self._depth_series is not None:
            self._depth_series.append(time, qlen_bytes)
        self._track(time, qlen_bytes)

    def on_drop(self, time: float, packet: Packet, qlen_bytes: int) -> None:
        self.drops.append((time, packet.protocol))
        self._drop_run += 1
        if self.track_flows:
            flow = packet.flow
            self.flow_drops[flow] = self.flow_drops.get(flow, 0) + 1
        # A drop means the queue is at capacity: certainly above high water.
        if self.high_water_bytes is not None:
            self._above = True

    def on_dequeue(self, time: float, packet: Packet, qlen_bytes: int) -> None:
        self.departures += 1
        if self._drop_run:
            if self._drop_run_hist is not None:
                self._drop_run_hist.observe(self._drop_run)
            self._drop_run = 0
        self._track(time, qlen_bytes)

    def _track(self, time: float, qlen_bytes: int) -> None:
        threshold = self.high_water_bytes
        if threshold is None:
            return
        if self._above and qlen_bytes < threshold:
            self._above = False
            self.down_crossings.append(time)
        elif not self._above and qlen_bytes >= threshold:
            self._above = True

    # ------------------------------------------------------------- summaries
    @property
    def total_drops(self) -> int:
        return len(self.drops)

    @property
    def loss_rate(self) -> float:
        """Router-centric loss rate L/(S+L) (§3)."""
        total = self.arrivals + self.total_drops
        if total == 0:
            return 0.0
        return self.total_drops / total

    def drop_times(self, protocol: Optional[str] = None) -> List[float]:
        """Drop timestamps, optionally filtered by protocol label."""
        if protocol is None:
            return [time for time, _ in self.drops]
        return [time for time, proto in self.drops if proto == protocol]

    def end_to_end_loss_rates(self) -> Dict[str, float]:
        """Per-flow loss rates L_f/(S_f + L_f) — the §3 end-to-end view.

        Requires ``track_flows=True``. §3's central observation is visible
        here: while the router-centric :attr:`loss_rate` is non-zero, many
        individual flows report an end-to-end loss rate of exactly zero,
        which is why self-loss probing underestimates loss frequency.
        """
        if not self.track_flows:
            raise ConfigurationError(
                "per-flow loss rates need QueueMonitor(track_flows=True)"
            )
        rates: Dict[str, float] = {}
        for flow, arrived in self.flow_arrivals.items():
            dropped = self.flow_drops.get(flow, 0)
            rates[flow] = dropped / (arrived + dropped)
        # Flows whose every packet was dropped never show up in arrivals.
        for flow, dropped in self.flow_drops.items():
            if flow not in rates:
                rates[flow] = 1.0
        return rates


class QueueSampler:
    """Periodic queue-length sampler producing a (time, delay) series.

    The queue length is converted to seconds of delay at the configured
    drain rate, matching the y-axis of the paper's Figures 4-6 and 8.
    """

    def __init__(
        self,
        sim: Simulator,
        queue: DropTailQueue,
        drain_rate_bps: float,
        interval: float,
        start: float = 0.0,
    ):
        # `not x > 0` also rejects NaN.
        if not interval > 0:
            raise ConfigurationError(f"interval must be positive, got {interval}")
        if not drain_rate_bps > 0:
            raise ConfigurationError("drain_rate_bps must be positive")
        self.sim = sim
        self.queue = queue
        self.drain_rate_bps = drain_rate_bps
        self.interval = interval
        self.times: List[float] = []
        self.delays: List[float] = []
        sim.schedule_at(start, self._sample)

    def _sample(self) -> None:
        self.times.append(self.sim.now)
        self.delays.append(self.queue.bytes_queued * 8 / self.drain_rate_bps)
        self.sim.schedule(self.interval, self._sample)

    def series(self) -> Tuple[List[float], List[float]]:
        """Return (times, delays-in-seconds) lists of equal length."""
        return self.times, self.delays
