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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.config import BadabingConfig, MarkingConfig
from repro.core.clock import AffineClock, Clock, SimClock
from repro.core.estimators import LossEstimate, estimate_from_outcomes
from repro.core.jitter import JitterModel, NoJitter
from repro.core.marking import CongestionMarker, MarkingResult
from repro.core.records import CoverageReport, ExperimentOutcome, ProbeRecord
from repro.core.schedule import GeometricSchedule
from repro.core.validation import ValidationReport, validate_outcomes
from repro.net.node import Host
from repro.net.simulator import Simulator
from repro.obs.tracing import trace_span
from repro.traffic.base import Application, ephemeral_port

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.audit import RunAudit
    from repro.obs.manifest import RunManifest
    from repro.obs.tracing import Tracer

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
        #: (slot, packet index) -> (true send time, sender-clock timestamp).
        self.sent: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self.trains_sent = 0
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
        registry.counter("probe.trains_sent", tool="badabing").value = self.trains_sent
        registry.counter("probe.packets_sent", tool="badabing").value = len(self.sent)

    def _emit_probe(self, slot: int) -> None:
        self.trains_sent += 1
        if self._m_timing is not None:
            # Launch-timing error: how far jitter displaced this train from
            # the nominal slot boundary the schedule asked for (§5's "probes
            # at the start of every covered slot" assumption).
            self._m_timing.observe(abs(self.sim.now - (self.start + slot * self.slot_width)))
        for index in range(self.packets_per_probe):
            self.sim.schedule(index * self.intra_probe_gap, self._emit_packet, slot, index)

    def _emit_packet(self, slot: int, index: int) -> None:
        now = self.sim.now
        stamp = self.clock.now()
        self.sent[(slot, index)] = (now, stamp)
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


@dataclass
class BadabingResult:
    """Everything one measurement produced."""

    estimate: LossEstimate
    validation: ValidationReport
    marking: MarkingResult
    probes: List[ProbeRecord]
    outcomes: List[ExperimentOutcome]
    n_probes_sent: int
    probe_load_bps: float
    slot_width: float
    #: Plan-vs-observed accounting (how degraded the measurement was).
    coverage: Optional[CoverageReport] = None
    #: Receiver-side duplicate arrivals discarded during the log join.
    duplicate_arrivals: int = 0
    #: Provenance + timing record (filled in by the experiment runner).
    manifest: Optional["RunManifest"] = None
    #: Accuracy audit against ground truth (filled in by the experiment
    #: runner when the run's metrics registry is enabled).
    audit: Optional["RunAudit"] = None

    @property
    def frequency(self) -> float:
        """Estimated congestion frequency F̂."""
        return self.estimate.frequency

    @property
    def duration_seconds(self) -> float:
        """Estimated mean loss-episode duration D̂ in seconds (may be nan)."""
        return self.estimate.duration_seconds(self.slot_width)

    @property
    def lost_probe_packets(self) -> int:
        return sum(probe.lost_packets for probe in self.probes)


def filter_blackouts(
    probes: List[ProbeRecord],
    blackout_windows: Optional[List[Tuple[float, float]]],
) -> List[ProbeRecord]:
    """Drop probes sent inside known collector-outage windows."""
    if not blackout_windows:
        return probes
    return [
        probe
        for probe in probes
        if not any(
            start <= probe.send_time < end for start, end in blackout_windows
        )
    ]


def assemble_result(
    schedule: GeometricSchedule,
    probes: List[ProbeRecord],
    config: BadabingConfig,
    marker: Optional[CongestionMarker] = None,
    blackout_windows: Optional[List[Tuple[float, float]]] = None,
    duplicate_arrivals: int = 0,
    tracer: Optional["Tracer"] = None,
) -> BadabingResult:
    """Marking + estimation + validation over a joined probe stream.

    This is THE estimator path: both measurement backends — the simulator
    (:class:`BadabingTool`) and the live asyncio runtime
    (:mod:`repro.live`) — funnel their probe records through this one
    function, so estimator/validator behaviour cannot fork between them.
    ``probes`` must be sorted by send time; ``blackout_windows`` lists
    ``(start, end)`` send-time intervals during which the collector is
    known to have been down — probes inside them are excluded (degrading
    coverage) rather than mistaken for total loss.
    """
    probes = filter_blackouts(probes, blackout_windows)
    if marker is None:
        marker = CongestionMarker(config.marking)
    with trace_span(tracer, "probe.mark", n_probes=len(probes)):
        marked = marker.mark(probes)
    outcomes = schedule.outcomes_from_states(marked.slot_states)
    coverage = schedule.coverage_from_states(marked.slot_states)
    with trace_span(tracer, "probe.estimate"):
        estimate = estimate_from_outcomes(
            outcomes, improved=config.improved, coverage=coverage
        )
    with trace_span(tracer, "probe.validate"):
        validation = validate_outcomes(outcomes, coverage=coverage)
    return BadabingResult(
        estimate=estimate,
        validation=validation,
        marking=marked,
        probes=probes,
        outcomes=outcomes,
        n_probes_sent=schedule.n_probes,
        probe_load_bps=schedule.probe_load_bps(
            config.probe.packets_per_probe, config.probe.probe_size, config.probe.slot
        ),
        slot_width=config.probe.slot,
        coverage=coverage,
        duplicate_arrivals=duplicate_arrivals,
    )


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
        tracer: Optional["Tracer"] = None,
    ):
        self.sim = sim
        self.config = config if config is not None else BadabingConfig()
        self.start = start
        self.tracer = tracer
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
        """Join sender and receiver logs into per-slot probe records."""
        sent = self.sender.sent
        received = self.receiver.received
        k = self.config.probe.packets_per_probe
        records: List[ProbeRecord] = []
        for slot in self.schedule.probe_slots:
            first = sent.get((slot, 0))
            if first is None:
                # The schedule may place a slot beyond the time the caller
                # actually ran the simulator for; ignore unsent probes.
                continue
            send_true, _send_stamp = first
            owds: List[float] = []
            owd_before_loss: Optional[float] = None
            last_owd: Optional[float] = None
            saw_loss = False
            incomplete = False
            for index in range(k):
                entry = sent.get((slot, index))
                if entry is None:
                    # The train is still being emitted (result() called
                    # mid-run); treat the whole probe as not-yet-taken.
                    incomplete = True
                    break
                _true_time, stamp = entry
                arrival = received.get((slot, index))
                if arrival is None:
                    if not saw_loss:
                        saw_loss = True
                        owd_before_loss = last_owd
                else:
                    owd = arrival - stamp
                    owds.append(owd)
                    last_owd = owd
            if incomplete:
                continue
            records.append(
                ProbeRecord(
                    slot=slot,
                    send_time=send_true,
                    n_packets=k,
                    owds=tuple(owds),
                    owd_before_loss=owd_before_loss,
                )
            )
        # Launch jitter can reorder emissions relative to slot order; the
        # marker's running OWD_max logic needs true chronological order.
        records.sort(key=lambda record: record.send_time)
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
            with trace_span(self.tracer, "probe.join"):
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
            tracer=self.tracer,
        )
