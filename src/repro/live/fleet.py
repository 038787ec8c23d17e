"""Multi-tenant fleet layer: admission control, eviction, backpressure.

The plain :class:`~repro.live.reflector.ReflectorProtocol` trusts its
peers: every HELLO registers state, every probe is logged, and sessions
live forever. That is fine for one loopback sender and hostile reality
for a reflector meant to serve thousands of concurrent tenants. This
module wraps the protocol in the overload armor a fleet-scale deployment
needs, while keeping per-tenant robustness state lean (a token bucket is
two floats and an integer; an evicted session collapses to one LRU slot):

* **Admission control** — :class:`FleetPolicy` caps concurrent sessions
  and the aggregate nominal probe rate; a HELLO past either cap is
  answered with a ``BUSY`` datagram carrying a ``RETRY_AFTER`` hint
  instead of silently growing state (``live.admission_rejected``).
* **Idle eviction** — :meth:`FleetReflectorProtocol.sweep` (driven by the
  :func:`watchdog` task) expires sessions with no traffic past a deadline
  derived from their own spec (slot width × slots + grace), emitting a
  partial receiver-side :class:`~repro.core.result.BadabingResult`
  whose :class:`~repro.core.records.CoverageReport` accounts for the
  missing tail rather than dropping the tenant's data (``live.evicted``).
* **Backpressure** — a per-tenant :class:`TokenBucket` sized from the
  session's *declared* schedule caps what one misbehaving sender can
  push; excess probes are dropped before they touch the arrival log
  (``live.rate_limited``), so they cannot starve other tenants.
* **Retirement** — finished sessions linger briefly for FIN retries,
  have their receiver-side result harvested, and are then retired to the
  bounded recent-session LRU (see
  :meth:`~repro.live.reflector.ReflectorProtocol.retire_session`).

:func:`run_fleet_loopback` composes all of it with N concurrent in-process
senders over 127.0.0.1 — the many-session soak CI runs — and returns one
:class:`~repro.experiments.budget.RunOutcome` per session, mirroring the
sweep engine's structured-failure shape.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import BadabingConfig, MarkingConfig
from repro.core.result import BadabingResult
from repro.errors import ConfigurationError, EstimationError, LiveSessionError
from repro.experiments.budget import RunBudget, RunOutcome
from repro.live import loop as live_loop
from repro.live import wire
from repro.live.reflector import ReflectorProtocol, ReflectorSession
from repro.net.faults import FaultProfile
from repro.obs.metrics import MetricsRegistry

#: Default watchdog tick (seconds): fine enough to evict promptly, coarse
#: enough to cost nothing against thousands of sessions.
WATCHDOG_INTERVAL = 0.25


@dataclass
class TokenBucket:
    """Lean per-tenant rate limiter: two floats and a timestamp.

    Refill is computed lazily from the elapsed time at each ``allow``
    call (the aioquic idiom: no timers, no queues — threshold math on
    arrival), so holding one per session scales to thousands of tenants.
    """

    rate: float
    burst: float
    tokens: float = 0.0
    last_ns: int = 0

    def __post_init__(self) -> None:
        if self.rate <= 0.0 or self.burst <= 0.0:
            raise ConfigurationError(
                f"token bucket needs positive rate/burst, got "
                f"rate={self.rate}, burst={self.burst}"
            )
        self.tokens = self.burst

    def allow(self, now_ns: int, cost: float = 1.0) -> bool:
        """Consume ``cost`` tokens if available; refill lazily first."""
        if now_ns > self.last_ns:
            self.tokens = min(
                self.burst, self.tokens + (now_ns - self.last_ns) * 1e-9 * self.rate
            )
            self.last_ns = now_ns
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False


@dataclass(frozen=True)
class FleetPolicy:
    """Overload limits for a multi-tenant reflector.

    Every limit defaults to "off" so a policy-less fleet reflector
    behaves exactly like the plain protocol (plus retirement, which only
    bounds memory).

    Attributes
    ----------
    max_sessions:
        Cap on *concurrent active* sessions; HELLOs past it get ``BUSY``.
    max_aggregate_pps:
        Cap on the summed nominal probe rate (packets/second, computed
        from each admitted spec as ``p × packets_per_probe / slot``) —
        protects the reflector's downlink, not just its memory.
    rate_cap_pps:
        Per-tenant token-bucket rate. When unset, each tenant's bucket is
        sized from its own declared schedule (nominal rate × headroom),
        so only senders violating their *own* HELLO get squeezed.
    rate_headroom:
        Multiplier over the declared nominal rate for spec-derived
        buckets (schedule geometry is bursty; 4× passes honest senders).
    rate_burst_seconds:
        Bucket depth, in seconds of the allowed rate.
    idle_timeout:
        Per-session idle eviction deadline override (seconds). Unset,
        each session's deadline derives from its own spec:
        ``slot × n_slots + idle_grace``.
    idle_grace:
        Grace added to the spec-derived deadline (handshake + drain slop).
    retry_after:
        The RETRY_AFTER hint (seconds) carried in ``BUSY`` rejections.
    fin_linger:
        How long a finished session stays active (answering FIN retries,
        counting stragglers as duplicates) before retirement.
    max_reports:
        Bound on retained per-session :class:`SessionReport` objects.
    """

    max_sessions: Optional[int] = None
    max_aggregate_pps: Optional[float] = None
    rate_cap_pps: Optional[float] = None
    rate_headroom: float = 4.0
    rate_burst_seconds: float = 0.5
    idle_timeout: Optional[float] = None
    idle_grace: float = 2.0
    retry_after: float = 1.0
    fin_linger: float = 1.0
    max_reports: int = 1024

    def __post_init__(self) -> None:
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        for name in ("max_aggregate_pps", "rate_cap_pps", "idle_timeout"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        for name in ("rate_headroom", "rate_burst_seconds", "retry_after"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if self.idle_grace < 0 or self.fin_linger < 0 or self.max_reports < 1:
            raise ConfigurationError(
                "idle_grace/fin_linger must be >= 0 and max_reports >= 1"
            )


def nominal_pps(spec: wire.SessionSpec) -> float:
    """Expected probe packets/second a spec's schedule emits."""
    return spec.p * spec.packets_per_probe / spec.slot_seconds


def idle_deadline_seconds(spec: wire.SessionSpec, policy: FleetPolicy) -> float:
    """Idle-eviction deadline for one session, from its own spec."""
    if policy.idle_timeout is not None:
        return policy.idle_timeout
    return spec.duration_seconds + policy.idle_grace


@dataclass
class SessionReport:
    """What one retired session left behind (bounded-queue dashboard feed)."""

    session_id: int
    peer: Tuple[str, int]
    reason: str  #: ``"finished"`` or ``"evicted"``
    probes_received: int
    duplicate_arrivals: int
    rate_limited: int
    #: Receiver-side estimate (partial for evicted sessions: its coverage
    #: report accounts for the unobserved tail). None when the session
    #: produced no usable experiment at all.
    result: Optional[BadabingResult] = None

    @property
    def evicted(self) -> bool:
        return self.reason == "evicted"


class FleetReflectorProtocol(ReflectorProtocol):
    """Reflector state machine with fleet policy enforcement.

    Accepts every :class:`~repro.live.reflector.ReflectorProtocol` kwarg
    plus ``policy`` and ``marking`` (the marking config used when
    harvesting receiver-side results at retirement; ``harvest_results``
    disables that work entirely for pure-echo deployments).
    """

    def __init__(
        self,
        policy: Optional[FleetPolicy] = None,
        marking: Optional[MarkingConfig] = None,
        harvest_results: bool = True,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.policy = policy if policy is not None else FleetPolicy()
        self.marking = marking
        self.harvest_results = harvest_results
        self.admission_rejected = 0
        self.rejected_sessions_full = 0
        self.rejected_rate_full = 0
        self.evicted = 0
        self.admitted_pps = 0.0
        self._buckets: Dict[int, TokenBucket] = {}
        self._session_pps: Dict[int, float] = {}
        self.reports: Deque[SessionReport] = deque(maxlen=self.policy.max_reports)

    # ------------------------------------------------------------- admission
    def _admit(
        self, header: wire.ProbeHeader, spec: wire.SessionSpec, addr: Tuple[str, int]
    ) -> bool:
        policy = self.policy
        if (
            policy.max_sessions is not None
            and len(self.sessions) >= policy.max_sessions
        ):
            self._reject(header.session, wire.BUSY_SESSIONS, addr)
            return False
        if (
            policy.max_aggregate_pps is not None
            and self.admitted_pps + nominal_pps(spec) > policy.max_aggregate_pps
        ):
            self._reject(header.session, wire.BUSY_RATE, addr)
            return False
        return True

    def _reject(self, session_id: int, reason: int, addr: Tuple[str, int]) -> None:
        self.admission_rejected += 1
        if reason == wire.BUSY_SESSIONS:
            self.rejected_sessions_full += 1
        else:
            self.rejected_rate_full += 1
        self._send(
            wire.encode_busy(
                session_id, self.policy.retry_after, reason, self.clock.now_ns()
            ),
            addr,
        )

    def _register(
        self, header: wire.ProbeHeader, spec: wire.SessionSpec, addr: Tuple[str, int]
    ) -> ReflectorSession:
        session = super()._register(header, spec, addr)
        pps = nominal_pps(spec)
        self._session_pps[session.session_id] = pps
        self.admitted_pps += pps
        allowed = (
            self.policy.rate_cap_pps
            if self.policy.rate_cap_pps is not None
            else pps * self.policy.rate_headroom
        )
        self._buckets[session.session_id] = TokenBucket(
            rate=allowed,
            burst=max(
                float(spec.packets_per_probe),
                allowed * self.policy.rate_burst_seconds,
            ),
            last_ns=self.clock.now_ns(),
        )
        return session

    # ----------------------------------------------------------- backpressure
    def _consume_rate_token(self, session: ReflectorSession, now_ns: int) -> bool:
        bucket = self._buckets.get(session.session_id)
        if bucket is None:
            return True
        return bucket.allow(now_ns)

    # ------------------------------------------------------------- retirement
    def retire_session(self, session_id: int) -> Optional[ReflectorSession]:
        session = super().retire_session(session_id)
        if session is not None:
            self.admitted_pps -= self._session_pps.pop(session_id, 0.0)
            if self.admitted_pps < 1e-9:
                self.admitted_pps = 0.0
            self._buckets.pop(session_id, None)
        return session

    def _harvest(self, session: ReflectorSession) -> Optional[BadabingResult]:
        if not self.harvest_results:
            return None
        try:
            return self.result_for(session.session_id, self.marking)
        except (EstimationError, LiveSessionError):
            # Too little data for a single usable experiment — the report
            # still records the raw arrival accounting.
            return None

    def _retire_with_report(self, session: ReflectorSession, reason: str) -> SessionReport:
        report = SessionReport(
            session_id=session.session_id,
            peer=session.peer,
            reason=reason,
            probes_received=session.probes_received,
            duplicate_arrivals=session.duplicate_arrivals,
            rate_limited=session.rate_limited,
            result=self._harvest(session),
        )
        self.retire_session(session.session_id)
        self.reports.append(report)
        return report

    def evict(self, session_id: int) -> Optional[SessionReport]:
        """Expire one session now, keeping its partial result."""
        session = self.sessions.get(session_id)
        if session is None:
            return None
        self.evicted += 1
        return self._retire_with_report(session, "evicted")

    def sweep(self, now_ns: Optional[int] = None) -> List[SessionReport]:
        """One watchdog pass: retire finished sessions, evict stalled ones.

        Synchronous and side-effect-complete so tests can drive it with a
        fake clock; :func:`watchdog` just calls it on an interval.
        """
        if now_ns is None:
            now_ns = self.clock.now_ns()
        linger_ns = int(self.policy.fin_linger * 1e9)
        retired: List[SessionReport] = []
        for session in list(self.sessions.values()):
            if session.finished:
                if (
                    session.fin_seen_ns is not None
                    and now_ns - session.fin_seen_ns >= linger_ns
                ):
                    retired.append(self._retire_with_report(session, "finished"))
                continue
            deadline_ns = int(idle_deadline_seconds(session.spec, self.policy) * 1e9)
            last_seen = session.last_seen_ns or session.started_ns
            if now_ns - last_seen > deadline_ns:
                self.evicted += 1
                retired.append(self._retire_with_report(session, "evicted"))
        return retired

    # ---------------------------------------------------------------- metrics
    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        super()._collect_metrics(registry)
        registry.counter("live.admission_rejected", role="reflector").value = (
            self.admission_rejected
        )
        registry.counter(
            "live.admission_rejected_sessions", role="reflector"
        ).value = self.rejected_sessions_full
        registry.counter("live.admission_rejected_rate", role="reflector").value = (
            self.rejected_rate_full
        )
        registry.counter("live.evicted", role="reflector").value = self.evicted
        # Point-in-time reading; see Gauge.sample for the digest contract.
        registry.gauge("live.admitted_pps", role="reflector").sample(self.admitted_pps)


async def watchdog(
    protocol: FleetReflectorProtocol,
    stop_event: Optional[asyncio.Event] = None,
    interval: float = WATCHDOG_INTERVAL,
) -> None:
    """Periodic :meth:`FleetReflectorProtocol.sweep` until cancelled/stopped."""
    while stop_event is None or not stop_event.is_set():
        await asyncio.sleep(interval)
        protocol.sweep()


async def start_fleet_reflector(
    host: str = "127.0.0.1",
    port: int = 0,
    policy: Optional[FleetPolicy] = None,
    watchdog_interval: float = WATCHDOG_INTERVAL,
    **protocol_kwargs,
) -> Tuple[asyncio.DatagramTransport, FleetReflectorProtocol, asyncio.Task]:
    """Bind a fleet reflector and its watchdog task.

    Returns ``(transport, protocol, watchdog_task)``; cancel the task and
    close the transport to shut down.
    """
    loop = asyncio.get_running_loop()
    try:
        transport, protocol = await loop.create_datagram_endpoint(
            lambda: FleetReflectorProtocol(policy=policy, **protocol_kwargs),
            local_addr=(host, port),
        )
    except OSError as exc:
        raise LiveSessionError(
            f"cannot bind fleet reflector on {host}:{port}: {exc}"
        ) from exc
    task = loop.create_task(watchdog(protocol, interval=watchdog_interval))
    return transport, protocol, task


@dataclass
class FleetLoopbackResult:
    """Everything a many-session loopback soak produced."""

    outcomes: List[RunOutcome]
    #: Retirement reports harvested by the watchdog (bounded).
    reports: List[SessionReport]
    admission_rejected: int
    evicted: int
    rate_limited: int
    wire_errors: int
    unknown_session: int
    sessions_admitted: int
    sessions_active: int = 0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def degraded(self) -> List[RunOutcome]:
        """Sessions that completed but stopped early (partial estimates)."""
        return [
            outcome
            for outcome in self.outcomes
            if outcome.ok and outcome.result is not None and outcome.result.stats.stopped
        ]


async def run_fleet_loopback(
    configs: Union[BadabingConfig, Sequence[BadabingConfig]],
    n_sessions: Optional[int] = None,
    base_seed: int = 1,
    policy: Optional[FleetPolicy] = None,
    faults: Union[str, FaultProfile, None] = None,
    marking: Optional[MarkingConfig] = None,
    registry: Optional[MetricsRegistry] = None,
    budget: Optional[RunBudget] = None,
    stagger_seconds: float = 0.0,
    harvest_results: bool = False,
    exporter=None,
) -> FleetLoopbackResult:
    """N concurrent sender sessions against one in-process fleet reflector.

    Session ``i`` runs seed ``base_seed + i`` with config ``configs[i]``
    (a single config is broadcast), so each session's impairment pattern
    and estimate are byte-identical to a serial single-session loopback
    of the same (config, seed) — the fleet invariant CI asserts. Sender
    failures (e.g. admission retries exhausted) become structured failed
    :class:`~repro.experiments.budget.RunOutcome` rows, never exceptions.

    ``exporter`` (a :class:`~repro.obs.export.TelemetryExporter` over
    ``registry``) is started once the reflector is listening and stopped
    — with a final flushed snapshot — on every exit path, including
    budget exhaustion and Ctrl-C drains, so a degraded soak still leaves
    a valid export stream. Per-session shards stream as labeled rollups
    as each session's registry merges in.
    """
    from repro.live.impair import build_impairment
    from repro.live.runtime import run_live_send
    from repro.live.session import make_session_id
    from repro.net.simulator import _stable_seed

    if isinstance(configs, BadabingConfig):
        if n_sessions is None:
            raise ConfigurationError(
                "broadcasting one config requires n_sessions"
            )
        configs = [configs] * n_sessions
    else:
        configs = list(configs)
        if n_sessions is not None and n_sessions != len(configs):
            raise ConfigurationError(
                f"n_sessions={n_sessions} does not match {len(configs)} configs"
            )
    seeds = [base_seed + i for i in range(len(configs))]
    seed_by_session = {make_session_id(seed): seed for seed in seeds}

    def impairment_for(session_id: int):
        seed = seed_by_session.get(session_id)
        if seed is None or faults is None:
            return None
        return build_impairment(faults, _stable_seed(seed, "live-impair"))

    transport, protocol, watchdog_task = await start_fleet_reflector(
        "127.0.0.1",
        0,
        policy=policy,
        registry=registry,
        impairment_for=impairment_for,
        marking=marking,
        harvest_results=harvest_results,
        mode="echo",
    )
    port = transport.get_extra_info("sockname")[1]
    merged = registry if registry is not None else None

    async def one_session(index: int) -> RunOutcome:
        label = f"session[{index}]"
        if stagger_seconds > 0.0:
            await asyncio.sleep(index * stagger_seconds)
        shard = MetricsRegistry() if merged is not None and merged.enabled else None
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            run = await run_live_send(
                "127.0.0.1",
                port,
                config=configs[index],
                seed=seeds[index],
                marking=marking,
                registry=shard,
                budget=budget,
            )
        except (LiveSessionError, EstimationError) as exc:
            return RunOutcome(
                label=label,
                ok=False,
                error=str(exc),
                error_type=type(exc).__name__,
                attempts=1,
                seeds=(seeds[index],),
                elapsed_seconds=loop.time() - started,
            )
        finally:
            if shard is not None and merged is not None:
                merged.merge(
                    shard.detach_collectors(), series_labels={"session": label}
                )
        return RunOutcome(
            label=label,
            ok=True,
            result=run,
            attempts=1,
            seeds=(seeds[index],),
            elapsed_seconds=loop.time() - started,
        )

    if exporter is not None:
        await exporter.start()
    try:
        outcomes = list(
            await asyncio.gather(*(one_session(i) for i in range(len(configs))))
        )
        # Let the watchdog retire finished sessions (bounded-linger wait),
        # so the soak's final state reflects steady-state fleet behavior.
        linger = (
            protocol.policy.fin_linger + 2 * WATCHDOG_INTERVAL
            if protocol.policy.fin_linger <= 2.0
            else 0.0
        )
        if linger:
            await asyncio.sleep(linger)
    finally:
        watchdog_task.cancel()
        try:
            await watchdog_task
        except asyncio.CancelledError:
            pass
        transport.close()
        if exporter is not None:
            await exporter.stop()
    return FleetLoopbackResult(
        outcomes=outcomes,
        reports=list(protocol.reports),
        admission_rejected=protocol.admission_rejected,
        evicted=protocol.evicted,
        rate_limited=protocol.rate_limited_total,
        wire_errors=protocol.wire_errors,
        unknown_session=protocol.unknown_session,
        sessions_admitted=protocol.sessions_admitted,
        sessions_active=len(protocol.sessions),
    )


def fleet_loopback(*args, **kwargs) -> FleetLoopbackResult:
    """Run :func:`run_fleet_loopback` through :func:`repro.live.loop.run`."""
    return live_loop.run(run_fleet_loopback(*args, **kwargs))
