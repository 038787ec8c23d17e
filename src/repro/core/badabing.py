"""The BADABING tool: probe emission, collection, and estimation.

One :class:`BadabingTool` couples a sender application and a receiver
application on two simulator hosts:

* the sender walks a :class:`~repro.core.schedule.GeometricSchedule`,
  emitting one probe (a train of ``packets_per_probe`` packets,
  ``intra_probe_gap`` apart) at the start of every covered slot, optionally
  displaced by a jitter model and timestamped by a (possibly skewed) clock;
* the receiver logs arrivals with its own clock;
* :meth:`BadabingTool.result` joins the two logs into
  :class:`~repro.core.records.ProbeRecord` objects, applies the §6.1
  congestion marking, assembles experiment outcomes, and runs the §5
  estimators and §5.4 validation.

The probe packets travel as protocol ``"probe"`` so the bottleneck monitor
can attribute drops (used by the Figure 8 analysis of probe impact).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import profiling as _profiling
from repro.config import BadabingConfig, MarkingConfig
from repro.core.clock import AffineClock, Clock, SimClock
from repro.core.jitter import JitterModel, NoJitter
from repro.core.marking import CongestionMarker
from repro.core.records import ProbeRecord, SeqKey, probe_record
from repro.core.result import BadabingResult, assemble_result, filter_blackouts
from repro.core.schedule import GeometricSchedule
from repro.net.node import Host
from repro.net.simulator import Simulator
from repro.traffic.base import Application, ephemeral_port

PROBE_PROTOCOL = "probe"

#: Buckets (seconds) for the probe launch-timing-error histogram: sub-slot
#: resolution at the bottom, a whole slot and beyond at the top.
TIMING_ERROR_BUCKETS = (1e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 2.5e-2)


class _ProbeSender(Application):
    """Emits the scheduled probe trains and logs send timestamps."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst: str,
        dst_port: int,
        schedule: GeometricSchedule,
        slot_width: float,
        probe_size: int,
        packets_per_probe: int,
        intra_probe_gap: float,
        start: float,
        jitter: JitterModel,
        clock: Clock,
        rng_label: str,
    ):
        super().__init__(sim, host, PROBE_PROTOCOL)
        self.dst = dst
        self.dst_port = dst_port
        self.probe_size = probe_size
        self.packets_per_probe = packets_per_probe
        self.intra_probe_gap = intra_probe_gap
        self.clock = clock
        self.start = start
        self.slot_width = slot_width
        #: (slot, packet index) -> sender-clock send timestamp.
        self.sent: Dict[SeqKey, float] = {}
        #: slot -> true launch time of the train's first packet, in launch
        #: order (launch jitter can reorder trains relative to slot order).
        self.launched: Dict[int, float] = {}
        # Counts are published by a pull-collector at snapshot time (the
        # send log itself is the source of truth), so the per-packet path
        # carries no registry work; only the timing-error histogram needs a
        # per-train observation.
        metrics = sim.metrics
        if metrics.enabled:
            self._m_timing = metrics.histogram(
                "probe.timing_error_seconds",
                buckets=TIMING_ERROR_BUCKETS,
                tool="badabing",
            )
            metrics.add_collector(self._collect_metrics)
        else:
            self._m_timing = None
        rng = sim.rng(rng_label + "-jitter")
        for slot in schedule.probe_slots:
            nominal = start + slot * slot_width
            sim.schedule_at(nominal + jitter.sample(rng), self._emit_probe, slot)

    def _collect_metrics(self, registry) -> None:
        registry.counter("probe.trains_sent", tool="badabing").value = len(
            self.launched
        )
        registry.counter("probe.packets_sent", tool="badabing").value = len(self.sent)

    def _emit_probe(self, slot: int) -> None:
        # The first packet leaves now: it is scheduled zero seconds ahead.
        now = self.launched[slot] = self.sim.now
        if self._m_timing is not None:
            # Launch-timing error: how far jitter displaced this train from
            # the nominal slot boundary the schedule asked for (§5's "probes
            # at the start of every covered slot" assumption).
            self._m_timing.observe(abs(now - (self.start + slot * self.slot_width)))
        for index in range(self.packets_per_probe):
            self.sim.schedule(index * self.intra_probe_gap, self._emit_packet, slot, index)

    def _emit_packet(self, slot: int, index: int) -> None:
        stamp = self.sent[(slot, index)] = self.clock.now()
        self.send_packet(
            self.dst,
            self.probe_size,
            payload=(slot, index, stamp),
            port=self.dst_port,
            flow="badabing",
        )


class _ProbeReceiver(Application):
    """Logs probe arrivals with the receiver's clock.

    The log is keyed by probe sequence ``(slot, packet index)``, so
    reordered arrivals land in the right place regardless of arrival
    order, and duplicated packets are deduplicated by keeping the *first*
    arrival per sequence number (later copies only bump a counter).
    """

    def __init__(self, sim: Simulator, host: Host, clock: Clock, port: Optional[int] = None):
        super().__init__(sim, host, PROBE_PROTOCOL, port)
        self.clock = clock
        #: (slot, packet index) -> receiver-clock arrival timestamp.
        self.received: Dict[Tuple[int, int], float] = {}
        #: Arrivals discarded because the sequence number was already logged.
        self.duplicate_arrivals = 0
        #: Arrivals whose sequence is older than one already seen — the
        #: receiver-visible signature of in-network reordering.
        self.late_arrivals = 0
        self._max_key: Optional[Tuple[int, int]] = None
        # The arrival log and the native dedup/reorder tallies are the
        # source of truth; a pull-collector publishes them at snapshot time
        # so the per-packet path carries no registry work.
        if sim.metrics.enabled:
            sim.metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry) -> None:
        registry.counter("probe.packets_received", tool="badabing").value = len(
            self.received
        )
        registry.counter("probe.duplicates", tool="badabing").value = (
            self.duplicate_arrivals
        )
        registry.counter("probe.late_arrivals", tool="badabing").value = (
            self.late_arrivals
        )

    def on_packet(self, packet) -> None:
        slot, index, _stamp = packet.payload
        key = (slot, index)
        if key in self.received:
            self.duplicate_arrivals += 1
            return
        if self._max_key is None or key > self._max_key:
            self._max_key = key
        else:
            self.late_arrivals += 1
        self.received[key] = self.clock.now()


class BadabingTool:
    """Deploy BADABING between two hosts of a simulation.

    Create the tool *before* running the simulator, run the simulator past
    ``start + config.duration`` (plus a drain margin for in-flight
    packets), then call :meth:`result`.
    """

    def __init__(
        self,
        sim: Simulator,
        sender_host: Host,
        receiver_host: Host,
        config: Optional[BadabingConfig] = None,
        start: float = 0.0,
        jitter: Optional[JitterModel] = None,
        sender_clock: Optional[AffineClock] = None,
        receiver_clock: Optional[AffineClock] = None,
        rng_label: str = "badabing",
    ):
        self.sim = sim
        self.config = config if config is not None else BadabingConfig()
        self.start = start
        self._loss_recorded = False
        cfg = self.config
        self.schedule = GeometricSchedule(
            cfg.p,
            cfg.n_slots,
            sim.rng(rng_label + "-schedule"),
            improved=cfg.improved,
        )
        receiver_port = ephemeral_port()
        self.receiver = _ProbeReceiver(
            sim,
            receiver_host,
            SimClock(sim, receiver_clock),
            port=receiver_port,
        )
        self.sender = _ProbeSender(
            sim,
            sender_host,
            receiver_host.name,
            receiver_port,
            self.schedule,
            cfg.probe.slot,
            cfg.probe.probe_size,
            cfg.probe.packets_per_probe,
            cfg.probe.intra_probe_gap,
            start,
            jitter if jitter is not None else NoJitter(),
            SimClock(sim, sender_clock),
            rng_label,
        )
        self.marker = CongestionMarker(cfg.marking)

    # ------------------------------------------------------------------ output
    @property
    def end_time(self) -> float:
        """Nominal end of the probing phase (before network drain)."""
        return self.start + self.config.duration

    def probe_records(self) -> List[ProbeRecord]:
        """Join sender and receiver logs into per-slot probe records.

        Only complete trains count: a slot the run has not reached, or a
        train still being emitted (``result()`` called mid-run), has no
        record yet. Records come in launch order, which is the
        chronological order the marker's running OWD_max logic needs.
        """
        sent = self.sender.sent
        received = self.receiver.received
        k = self.config.probe.packets_per_probe
        records: List[ProbeRecord] = []
        for slot, send_time in self.sender.launched.items():
            for index in range(k):
                if (slot, index) not in sent:
                    break
            else:
                records.append(probe_record(slot, send_time, k, sent, received))
        return records

    def result(
        self,
        marking: Optional[MarkingConfig] = None,
        probes: Optional[List[ProbeRecord]] = None,
        blackout_windows: Optional[List[Tuple[float, float]]] = None,
    ) -> BadabingResult:
        """Run marking + estimation + validation over the collected logs.

        ``marking`` optionally overrides the marking parameters, allowing
        one expensive simulation run to be re-marked under many (alpha,
        tau) settings — how the Figure 9 sensitivity sweeps are produced.
        ``probes`` optionally substitutes pre-processed records (e.g.
        de-skewed via :func:`repro.core.clock.deskew_probe_records`).

        ``blackout_windows`` lists absolute-time ``(start, end)`` intervals
        during which the collector is known to have been down (crash /
        restart). Probes sent inside a window are *excluded* rather than
        mistaken for total loss — their slots count against the coverage
        report instead of polluting the congestion estimate. With every
        probe blacked out, estimation raises
        :class:`~repro.errors.EstimationError` carrying the coverage.
        """
        if probes is None:
            with _profiling.profile_stage("probe.join"):
                probes = self.probe_records()
        probes = filter_blackouts(probes, blackout_windows)
        if not self._loss_recorded and self.sim.metrics.enabled:
            # Record receiver-side loss once (result() may be re-invoked to
            # re-mark the same logs under other parameters).
            self._loss_recorded = True
            self.sim.metrics.counter("probe.packets_lost", tool="badabing").inc(
                sum(probe.lost_packets for probe in probes)
            )
        marker = CongestionMarker(marking) if marking is not None else self.marker
        return assemble_result(
            self.schedule,
            probes,
            self.config,
            marker=marker,
            duplicate_arrivals=self.receiver.duplicate_arrivals,
        )
