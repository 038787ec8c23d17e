"""Live runtime orchestration: send, reflect, and loopback sessions.

Everything here composes the lower layers — :mod:`repro.live.wire`
datagrams, the :mod:`repro.live.sender` schedule walker, the
:mod:`repro.live.reflector` state machine — into the three entry points
the CLI exposes:

* :func:`run_live_send` — drive a measurement against a remote reflector
  and return a :class:`LiveRunResult` whose ``result`` is a plain
  :class:`~repro.core.result.BadabingResult`, built by the *same*
  :func:`~repro.core.result.assemble_result` path as simulator runs;
* :func:`run_live_reflector` — serve sessions until stopped or idle;
* :func:`run_live_loopback` — both ends in one process over 127.0.0.1,
  with the deterministic :mod:`repro.live.impair` shim standing in for a
  lossy network (how CI exercises the runtime without real loss).

While a session runs, a :class:`StreamingMonitor` folds the collected
probe prefix into the §5.4 :class:`~repro.core.validation.SequentialValidator`
exactly as the simulator's convergence telemetry does, publishes the
running F̂ as the ``live.frequency`` series, and (optionally) streams
finalized records into an incremental :class:`~repro.io.traces.TraceWriter`
so a crash loses at most the unfinalized tail.
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass
from math import floor
from typing import Dict, List, Optional, Union

from repro.config import BadabingConfig, MarkingConfig
from repro.core.clock import Clock, MonotonicClock, rebase_probe_owds
from repro.core.estimators import frequency_from_counter
from repro.core.marking import MarkerState
from repro.core.records import ExperimentOutcome, ProbeRecord
from repro.core.result import BadabingResult, assemble_result
from repro.core.schedule import GeometricSchedule
from repro.core.validation import SequentialValidator
from repro.errors import EstimationError, LiveSessionError
from repro.experiments.budget import RunBudget
from repro.io.traces import TraceWriter
from repro.live import loop as live_loop
from repro.live.fleet import (
    WATCHDOG_INTERVAL,
    FleetPolicy,
    FleetReflectorProtocol,
    start_fleet_reflector,
)
from repro.live.impair import build_impairment
from repro.live.reflector import ReflectorProtocol, start_reflector
from repro.live.sender import LiveSender, SenderStats, open_sender
from repro.live.session import (
    SeqKey,
    config_from_spec,
    make_session_id,
    probe_records_from_logs,
    schedule_from_spec,
    spec_for,
)
from repro.live.wire import SessionSpec
from repro.net.faults import FaultProfile
from repro.net.simulator import _stable_seed
from repro.obs.manifest import RunManifest, config_digest, summarize_snapshot
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.profiling import profile_stage

#: Extra settle time past tau before a slot's marking is considered final
#: in the streaming view (covers echo latency + scheduler jitter).
FINALIZE_MARGIN = 0.25


class StreamingMonitor:
    """Incremental §5.4 feed + trace persistence over a growing probe log.

    The sender calls ``observe(send_ns, recv_ns, epoch_ns, elapsed)`` with
    its send and receive logs every few trains, and ``finish(send_ns,
    recv_ns, epoch_ns)`` once the session is over. Experiments whose last
    slot ended more than ``tau + FINALIZE_MARGIN`` seconds ago are
    *finalized*: their outcomes are folded into the sequential validator
    (in start-slot order, exactly once), the running F̂ is appended to the
    ``live.frequency`` series, and the finalized records are flushed to
    the trace writer. The final authoritative result is still recomputed
    from scratch by :func:`~repro.core.result.assemble_result` — this
    monitor is the live view, not a second estimator.

    Each report marks what a whole-prefix
    :meth:`~repro.core.marking.CongestionMarker.mark` over
    :func:`~repro.core.clock.rebase_probe_owds` of the full join would, but
    joins only the slots from the next unfed experiment on. Records below
    that slot are final: they were joined once and folded into one
    :class:`~repro.core.marking.MarkerState`, the marker's own first pass,
    which holds raw OWDs; each report folds the rest into a fork of it. The
    rebase shift is the smallest OWD seen, and the state reads ``raw -
    shift``, so a new minimum, which a drifting clock brings on most
    reports, costs a pass over the OWD_max history. Only the uncorrelated-
    loss filter decides from the shift which losses enter that state; with
    it on, the monitor keeps the final records and folds them again whenever
    the minimum moves. A record counts as
    final once its slot is past the horizon, so an echo later than
    ``tau + FINALIZE_MARGIN`` misses the live view and the trace, as it
    always has for the trace.
    """

    def __init__(
        self,
        schedule: GeometricSchedule,
        config: BadabingConfig,
        registry: Optional[MetricsRegistry] = None,
        writer: Optional[TraceWriter] = None,
    ):
        self.schedule = schedule
        self.config = config
        self.registry = registry if registry is not None else NullRegistry()
        self.writer = writer
        self.validator = SequentialValidator()
        self._experiments = sorted(
            schedule.experiments, key=lambda experiment: experiment.start_slot
        )
        self._next_experiment = 0
        self.skipped_experiments = 0
        self._series = (
            self.registry.series("live.frequency", role="sender")
            if self.registry.enabled
            else None
        )
        #: Slots below ``_kept_slot`` are folded into the marker state and
        #: not joined again; below ``_written_slot`` they are in the trace.
        self._kept_slot = 0
        self._written_slot = 0
        #: Smallest OWD and newest send time joined so far.
        self._minimum: Optional[float] = None
        self._newest = 0.0
        #: Marker state after the slots below ``_kept_slot``, in raw OWDs.
        self._state = MarkerState(config.marking)
        #: With the uncorrelated-loss filter on, the records below
        #: ``_kept_slot``, to fold again under a new shift.
        self._kept: List[ProbeRecord] = []

    def observe(
        self,
        send_ns: Dict[SeqKey, int],
        recv_ns: Dict[SeqKey, int],
        epoch_ns: int,
        elapsed: float,
    ) -> None:
        """Fold the experiments finalized ``elapsed`` seconds into the session."""
        horizon = elapsed - self.config.marking.tau - FINALIZE_MARGIN
        if horizon <= 0:
            return
        finalize_slot = floor(horizon / self.config.probe.slot)
        self._advance(send_ns, recv_ns, epoch_ns, finalize_slot)

    def finish(
        self, send_ns: Dict[SeqKey, int], recv_ns: Dict[SeqKey, int], epoch_ns: int
    ) -> None:
        """Session over: everything collected is final."""
        self._advance(send_ns, recv_ns, epoch_ns, self.schedule.n_slots)

    def _advance(
        self,
        send_ns: Dict[SeqKey, int],
        recv_ns: Dict[SeqKey, int],
        epoch_ns: int,
        finalize_slot: int,
    ) -> None:
        # Trains go out in slot order, so the newest send names the last
        # slot worth joining.
        last_sent = next(reversed(send_ns))[0] if send_ns else -1
        window = probe_records_from_logs(
            self.schedule,
            self.config.probe.packets_per_probe,
            send_ns,
            recv_ns,
            epoch_ns,
            start_slot=self._kept_slot,
            stop_slot=last_sent + 1,
        )
        # A delivered OWD never leaves the log, so the smallest one joined so
        # far is the smallest in the whole log.
        for record in window:
            if record.owds:
                low = min(record.owds)
                if self._minimum is None or low < self._minimum:
                    self._minimum = low
        shift = 0.0 if self._minimum is None else self._minimum
        filtered = self.config.marking.filter_uncorrelated_losses
        if shift != self._state.shift:
            if filtered:
                self._rederive(shift)
            else:
                self._state.rebase(shift)

        experiments = self._experiments
        first = stop = self._next_experiment
        while (
            stop < len(experiments)
            and experiments[stop].start_slot + experiments[stop].length
            <= finalize_slot
        ):
            stop += 1
        written = min(finalize_slot, last_sent + 1)
        kept = (
            min(written, experiments[stop].start_slot)
            if stop < len(experiments)
            else written
        )
        split = 0
        while split < len(window) and window[split].slot < kept:
            split += 1

        # Pass 1: records that become final now advance the kept state;
        # the rest run on a fork, to the end of the log, because probes
        # before the first OWD_max estimate take the end-of-log threshold,
        # the one after the newest record.
        thresholds: List[Optional[float]] = []
        noise: List[bool] = []
        self._state.fold(window[:split], thresholds, noise)
        tail = self._state.fork()
        tail.fold(window[split:], thresholds, noise)

        # Pass 2: the tau rule looks both ways, over every loss so far.
        states: Dict[int, bool] = {}
        for record, threshold, is_noise in zip(window, thresholds, noise):
            if record.slot >= finalize_slot:
                break
            states[record.slot] = (record.lost and not is_noise) or tail.delayed(
                record, threshold
            )

        for experiment in experiments[first:stop]:
            bits = [states.get(slot) for slot in experiment.slots]
            if any(bit is None for bit in bits):
                # Slots the sender never reached (budget stop) or whose
                # probes are gone entirely; coverage accounting at the end
                # owns these, the streaming view just skips them.
                self.skipped_experiments += 1
            else:
                self.validator.add(
                    ExperimentOutcome(
                        experiment.start_slot, tuple(int(bit) for bit in bits)
                    )
                )
        self._next_experiment = stop
        if window:
            self._newest = window[-1].send_time
        counter = self.validator.pattern_counter
        if self._series is not None and counter.get("M"):
            self._series.append(self._newest, frequency_from_counter(counter))
        if self.writer is not None:
            self.writer.write_probes(
                [
                    record
                    for record in window
                    if self._written_slot <= record.slot < written
                ]
            )

        if filtered:
            self._kept.extend(window[:split])
        self._kept_slot = kept
        self._written_slot = written

    def _rederive(self, shift: float) -> None:
        """Fold the kept records again under a new rebase shift (filter on)."""
        self._state = MarkerState(self.config.marking)
        self._state.rebase(shift)
        self._state.fold(self._kept)


@dataclass
class ReflectorSummary:
    """Reflector-side accounting carried back from a loopback run."""

    probes_received: int = 0
    probes_echoed: int = 0
    impaired_drops: int = 0
    duplicate_arrivals: int = 0
    wire_errors: int = 0
    unknown_session: int = 0
    rate_limited: int = 0

    @classmethod
    def from_protocol(cls, protocol: ReflectorProtocol) -> "ReflectorSummary":
        # The *_total properties fold in sessions already retired to the
        # LRU, so the summary survives fleet-mode session turnover.
        return cls(
            probes_received=protocol.probes_received_total,
            probes_echoed=protocol.probes_echoed_total,
            impaired_drops=protocol.impaired_drops_total,
            duplicate_arrivals=protocol.duplicate_arrivals_total,
            wire_errors=protocol.wire_errors,
            unknown_session=protocol.unknown_session,
            rate_limited=protocol.rate_limited_total,
        )


@dataclass
class LiveRunResult:
    """One live sender session's full output."""

    #: The standard result object — audit/report/render consumers see the
    #: exact same shape a simulator run produces.
    result: BadabingResult
    spec: SessionSpec
    schedule: GeometricSchedule
    session_id: int
    stats: SenderStats
    #: Present for loopback runs (both ends in-process).
    reflector: Optional[ReflectorSummary] = None
    #: Reflector-side one-way estimate for the same session (loopback
    #: cross-check; None when the reflector saw too little to estimate).
    receiver_result: Optional[BadabingResult] = None

    @property
    def frequency(self) -> float:
        return self.result.frequency

    @property
    def degraded(self) -> bool:
        """True when emission stopped early (budget, Ctrl-C, restart NAK)."""
        return bool(self.stats.stopped)

    @property
    def manifest(self) -> Optional[RunManifest]:
        return self.result.manifest


def _live_manifest(
    seed: int,
    live_config: BadabingConfig,
    stats: SenderStats,
    registry: MetricsRegistry,
) -> RunManifest:
    """Provenance record mirroring the simulator runner's manifests.

    ``sim_seconds`` carries the *measurement* seconds (the live analogue
    of virtual time) and ``events_processed`` the probe packets sent, so
    manifest consumers see comparable shapes across backends.
    """
    from repro import __version__

    return RunManifest(
        tool="badabing-live",
        seed=seed,
        config_digest=config_digest(live_config),
        package_version=__version__,
        sim_seconds=stats.elapsed_seconds,
        wall_seconds=stats.elapsed_seconds,
        events_processed=stats.packets_sent,
        metrics=summarize_snapshot(registry.snapshot()) if registry.enabled else {},
    )


def _install_sigint(loop: asyncio.AbstractEventLoop, stop_event: asyncio.Event) -> bool:
    """Route Ctrl-C into a graceful stop; False where signals are unavailable."""
    try:
        loop.add_signal_handler(signal.SIGINT, stop_event.set)
        return True
    except (NotImplementedError, ValueError, RuntimeError):
        return False


def _remove_sigint(loop: asyncio.AbstractEventLoop) -> None:
    try:
        loop.remove_signal_handler(signal.SIGINT)
    except (NotImplementedError, ValueError, RuntimeError):  # pragma: no cover
        pass


async def run_live_send(
    host: str,
    port: int,
    config: Optional[BadabingConfig] = None,
    seed: int = 1,
    marking: Optional[MarkingConfig] = None,
    registry: Optional[MetricsRegistry] = None,
    budget: Optional[RunBudget] = None,
    stop_event: Optional[asyncio.Event] = None,
    trace_path: Optional[str] = None,
    clock: Optional[Clock] = None,
    handle_sigint: bool = False,
) -> LiveRunResult:
    """One full live measurement against a reflector at ``host:port``.

    Raises :class:`~repro.errors.LiveSessionError` when the reflector
    never answers the handshake, and
    :class:`~repro.errors.EstimationError` when the session ended before
    producing a single usable experiment. A stop (Ctrl-C with
    ``handle_sigint``, the ``stop_event``, or an exhausted
    :class:`~repro.experiments.budget.RunBudget`) degrades gracefully:
    outstanding echoes are drained and the partial record stream is
    estimated with reduced coverage.
    """
    config = config if config is not None else BadabingConfig()
    clock = clock if clock is not None else MonotonicClock()
    registry = registry if registry is not None else NullRegistry()
    stop_event = stop_event if stop_event is not None else asyncio.Event()
    spec = spec_for(config, seed)
    schedule = schedule_from_spec(spec)
    live_config = config_from_spec(
        spec, marking if marking is not None else config.marking
    )
    session_id = make_session_id(seed)
    writer = (
        TraceWriter(
            trace_path,
            live_config.probe.slot,
            live_config.n_slots,
            live_config.p,
            list(schedule.experiments),
            metadata={
                "tool": "badabing-live",
                "seed": seed,
                "session": session_id,
                "probe_size": spec.probe_size,
                "clock_domain": "monotonic",
            },
        )
        if trace_path
        else None
    )
    monitor = StreamingMonitor(schedule, live_config, registry, writer=writer)
    transport, protocol = await open_sender(host, port, session_id, clock=clock)
    loop = asyncio.get_running_loop()
    sigint_installed = handle_sigint and _install_sigint(loop, stop_event)
    try:
        sender = LiveSender(
            transport,
            protocol,
            spec,
            schedule,
            clock=clock,
            registry=registry,
            budget=budget,
            stop_event=stop_event,
            on_progress=monitor.observe,
        )
        # The one frame open across an await: sessions interleaving under
        # one active profiler would lose frames (DESIGN.md §14).
        with profile_stage(
            "live.session", host=host, port=port, n_slots=spec.n_slots
        ):
            records = await sender.run()
        monitor.finish(sender.send_ns, protocol.recv_ns, sender.epoch_ns)
    finally:
        if sigint_installed:
            _remove_sigint(loop)
        if writer is not None:
            writer.close()
        transport.close()
    stats = sender.stats
    probes = rebase_probe_owds(records)
    with profile_stage("live.assemble", n_probes=len(probes)):
        result = assemble_result(
            schedule,
            probes,
            live_config,
            duplicate_arrivals=stats.duplicate_echoes,
        )
    result.manifest = _live_manifest(seed, live_config, stats, registry)
    return LiveRunResult(
        result=result,
        spec=spec,
        schedule=schedule,
        session_id=session_id,
        stats=stats,
    )


async def run_live_reflector(
    host: str = "127.0.0.1",
    port: int = 5005,
    faults: Union[str, FaultProfile, None] = None,
    seed: int = 1,
    registry: Optional[MetricsRegistry] = None,
    mode: str = "echo",
    stop_event: Optional[asyncio.Event] = None,
    policy: Optional[FleetPolicy] = None,
    marking: Optional[MarkingConfig] = None,
    serve_sessions: Optional[int] = None,
    exit_idle: Optional[float] = None,
    watchdog_interval: float = WATCHDOG_INTERVAL,
    handle_sigint: bool = False,
    exporter=None,
) -> FleetReflectorProtocol:
    """Serve fleet reflector sessions until stopped, idle, or session-budget.

    Always runs the multi-tenant :class:`FleetReflectorProtocol` with its
    eviction/retirement watchdog, so a long-lived reflector holds bounded
    state no matter how many sessions pass through; ``policy`` adds
    admission control and per-tenant rate caps on top (default: none).

    ``exit_idle`` ends service once at least one session finished, none
    are still active, and no datagram has arrived for that many seconds;
    ``serve_sessions`` ends it once that many sessions finished. With
    neither, only the stop event (or Ctrl-C with ``handle_sigint``).

    ``exporter`` (a :class:`~repro.obs.export.TelemetryExporter` over
    ``registry``) is started while serving and stopped — final snapshot
    flushed — on every exit path, Ctrl-C included, so operators can watch
    ``/metrics``/``/healthz``/``/sessions`` for the reflector's lifetime.
    """
    registry = registry if registry is not None else NullRegistry()
    stop_event = stop_event if stop_event is not None else asyncio.Event()
    impair_seed = _stable_seed(seed, "live-impair")
    impairment_for = (
        (lambda _session_id: build_impairment(faults, impair_seed))
        if faults is not None
        else None
    )
    transport, protocol, watchdog_task = await start_fleet_reflector(
        host,
        port,
        policy=policy,
        watchdog_interval=watchdog_interval,
        registry=registry,
        impairment_for=impairment_for,
        marking=marking,
        mode=mode,
    )
    loop = asyncio.get_running_loop()
    sigint_installed = handle_sigint and _install_sigint(loop, stop_event)
    if exporter is not None:
        await exporter.start()
    try:
        while not stop_event.is_set():
            await asyncio.sleep(0.2)
            if serve_sessions is not None and protocol.sessions_finished >= serve_sessions:
                break
            if (
                exit_idle is not None
                and protocol.sessions_finished
                and all(s.finished for s in protocol.sessions.values())
            ):
                idle = (protocol.clock.now_ns() - protocol.last_activity_ns) / 1e9
                if idle >= exit_idle:
                    break
    finally:
        if sigint_installed:
            _remove_sigint(loop)
        watchdog_task.cancel()
        try:
            await watchdog_task
        except asyncio.CancelledError:
            pass
        transport.close()
        if exporter is not None:
            await exporter.stop()
    return protocol


async def run_live_loopback(
    config: Optional[BadabingConfig] = None,
    seed: int = 1,
    faults: Union[str, FaultProfile, None] = None,
    marking: Optional[MarkingConfig] = None,
    registry: Optional[MetricsRegistry] = None,
    budget: Optional[RunBudget] = None,
    trace_path: Optional[str] = None,
    stop_event: Optional[asyncio.Event] = None,
    handle_sigint: bool = False,
) -> LiveRunResult:
    """Both ends in one process over 127.0.0.1 (CI's live smoke test).

    The reflector gets the deterministic impairment shim for ``faults``
    (seeded from ``seed``, so the realized drop pattern is replayable),
    the sender runs a normal session against it, and the result carries
    both the sender-side estimate and the reflector's own one-way
    cross-check.
    """
    registry = registry if registry is not None else NullRegistry()
    impair_seed = _stable_seed(seed, "live-impair")
    reflector_transport, reflector = await start_reflector(
        "127.0.0.1",
        0,
        registry=registry,
        impairment_for=lambda _session_id: build_impairment(faults, impair_seed),
        mode="echo",
    )
    port = reflector_transport.get_extra_info("sockname")[1]
    try:
        run = await run_live_send(
            "127.0.0.1",
            port,
            config=config,
            seed=seed,
            marking=marking,
            registry=registry,
            budget=budget,
            stop_event=stop_event,
            trace_path=trace_path,
            handle_sigint=handle_sigint,
        )
    finally:
        reflector_transport.close()
    run.reflector = ReflectorSummary.from_protocol(reflector)
    if marking is None and config is not None:
        marking = config.marking
    try:
        run.receiver_result = reflector.result_for(run.session_id, marking)
    except (EstimationError, LiveSessionError):
        run.receiver_result = None
    return run


def live_send(*args, **kwargs) -> LiveRunResult:
    """Run :func:`run_live_send` through :func:`repro.live.loop.run`."""
    return live_loop.run(run_live_send(*args, **kwargs))


def live_reflect(*args, **kwargs) -> ReflectorProtocol:
    """Run :func:`run_live_reflector` through :func:`repro.live.loop.run`."""
    return live_loop.run(run_live_reflector(*args, **kwargs))


def live_loopback(*args, **kwargs) -> LiveRunResult:
    """Run :func:`run_live_loopback` through :func:`repro.live.loop.run`."""
    return live_loop.run(run_live_loopback(*args, **kwargs))
