"""Asyncio UDP probe sender: walk the geometric schedule on a wall clock.

The sender is the live twin of the simulator's ``_ProbeSender`` +
``_ProbeReceiver`` pair: it emits each scheduled probe train at an
*absolute* nanosecond deadline (``epoch + slot × slot_ns`` — deadlines
never accumulate sleep error), logs send stamps, collects the
reflector's echoes into an arrival log keyed by ``(slot, index)``, and
leaves estimation entirely to the shared
:func:`repro.core.result.assemble_result` path.

Budgets reuse :class:`~repro.experiments.budget.RunBudget` semantics
translated to the live domain — ``max_events`` caps probe *packets*,
``max_wall_seconds`` caps the session's wall time — but a live run
**degrades instead of aborting**: hitting a budget (or Ctrl-C via the
stop event) stops emission, drains outstanding echoes, and yields a
partial record stream whose missing slots show up as reduced coverage,
exactly like a faulted simulator run.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.clock import Clock, MonotonicClock
from repro.core.records import ProbeRecord
from repro.core.schedule import GeometricSchedule
from repro.errors import LiveSessionError, WireFormatError
from repro.experiments.budget import RunBudget
from repro.live import wire
from repro.live.session import SeqKey, probe_records_from_logs
from repro.obs.metrics import MetricsRegistry, NullRegistry

#: Handshake: per-attempt ack wait and number of HELLO attempts.
HELLO_TIMEOUT = 0.5
HELLO_ATTEMPTS = 5
#: Exponential backoff with full jitter between HELLO attempts: attempt
#: ``i`` sleeps ``uniform(0, min(cap, base × 2^i))`` (plus any BUSY
#: RETRY_AFTER floor), so a thundering herd of rejected senders
#: decorrelates instead of re-colliding on the admission gate.
HELLO_BACKOFF_BASE = 0.1
HELLO_BACKOFF_CAP = 2.0
#: FIN is best-effort: fewer, shorter attempts.
FIN_TIMEOUT = 0.3
FIN_ATTEMPTS = 3
#: Post-emission wait for outstanding echoes (seconds).
DRAIN_TIMEOUT = 1.0

#: Buckets (seconds) for launch-timing error on a real host: scheduler
#: jitter at the bottom, missed-slot territory at the top.
LIVE_TIMING_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 2.5e-2, 0.1
)


@dataclass
class SenderStats:
    """What one live sender session actually did."""

    packets_sent: int = 0
    trains_sent: int = 0
    echoes_received: int = 0
    duplicate_echoes: int = 0
    wire_errors: int = 0
    #: "" = ran to schedule end; otherwise "stop" / "packet-budget" /
    #: "wall-budget" / "reflector-restart" — why emission ended early.
    stopped: str = ""
    elapsed_seconds: float = 0.0
    #: HELLO datagrams sent before the reflector acknowledged.
    hello_attempts: int = 0
    #: HELLO attempts answered with BUSY (admission rejection + retry).
    hello_busy: int = 0

    @property
    def completed(self) -> bool:
        return not self.stopped


class SenderProtocol(asyncio.DatagramProtocol):
    """Sender-side datagram handler: acks and echoes land here."""

    def __init__(self, session_id: int, clock: Clock):
        self.session_id = session_id
        self.clock = clock
        self.recv_ns: Dict[SeqKey, int] = {}
        self.hello_acked = asyncio.Event()
        self.fin_acked = asyncio.Event()
        self.hello_busy = asyncio.Event()
        #: RETRY_AFTER hint (seconds) from the latest BUSY rejection.
        self.retry_after: float = 0.0
        self.busy_reason: int = 0
        #: Set when a NAK arrives for our established session: the
        #: reflector restarted and lost our state mid-measurement.
        self.restart_detected = False
        #: Echo count the drain waits for; ``drained`` is set once that
        #: many echoes are in, or on a restart NAK. None until the drain.
        self.echoes_expected: Optional[int] = None
        self.drained = asyncio.Event()
        self.wire_errors = 0
        self.duplicate_echoes = 0
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport) -> None:
        transport.max_size = wire.MAX_DATAGRAM
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        try:
            header = wire.decode_header(data)
            if header.session != self.session_id:
                return
            if header.kind == wire.ECHO:
                _header, recv_ns = wire.decode_echo(data)
                key = header.key
                if key in self.recv_ns:
                    self.duplicate_echoes += 1
                else:
                    self.recv_ns[key] = recv_ns
                    expected = self.echoes_expected
                    if expected is not None and len(self.recv_ns) >= expected:
                        self.drained.set()
            elif header.kind == wire.HELLO_ACK:
                self.hello_acked.set()
            elif header.kind == wire.FIN_ACK:
                self.fin_acked.set()
            elif header.kind == wire.BUSY:
                _header, retry_after, reason = wire.decode_busy(data)
                self.retry_after = retry_after
                self.busy_reason = reason
                self.hello_busy.set()
            elif header.kind == wire.NAK:
                # Only meaningful once the session was established —
                # before that, admission speaks BUSY, not NAK.
                if self.hello_acked.is_set() and not self.fin_acked.is_set():
                    self.restart_detected = True
                    self.drained.set()
        except WireFormatError:
            self.wire_errors += 1

    def error_received(self, exc) -> None:  # pragma: no cover - platform noise
        # ICMP port-unreachable while the reflector restarts; echoes for
        # in-flight probes are simply lost, which the estimator reads as
        # loss — the honest interpretation of an unreachable reflector.
        pass


class LiveSender:
    """One live sender session bound to a connected UDP endpoint."""

    def __init__(
        self,
        transport: asyncio.DatagramTransport,
        protocol: SenderProtocol,
        spec: wire.SessionSpec,
        schedule: GeometricSchedule,
        clock: Optional[Clock] = None,
        registry: Optional[MetricsRegistry] = None,
        budget: Optional[RunBudget] = None,
        stop_event: Optional[asyncio.Event] = None,
        on_progress: Optional[
            Callable[[Dict[SeqKey, int], Dict[SeqKey, int], int, float], None]
        ] = None,
        progress_every_trains: int = 32,
        hello_attempts: int = HELLO_ATTEMPTS,
        hello_timeout: float = HELLO_TIMEOUT,
        backoff_base: float = HELLO_BACKOFF_BASE,
        backoff_cap: float = HELLO_BACKOFF_CAP,
    ):
        self.transport = transport
        self.protocol = protocol
        self.spec = spec
        self.schedule = schedule
        self.clock = clock if clock is not None else MonotonicClock()
        self.registry = registry if registry is not None else NullRegistry()
        self.budget = budget if budget is not None else RunBudget()
        self.stop_event = stop_event if stop_event is not None else asyncio.Event()
        self.on_progress = on_progress
        self.progress_every_trains = max(1, progress_every_trains)
        self.hello_attempts = max(1, hello_attempts)
        self.hello_timeout = hello_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        # Deterministic per-session jitter stream: reproducible runs, yet
        # distinct sessions decorrelate (full-jitter backoff needs that).
        self._jitter = random.Random(protocol.session_id ^ 0x9E3779B97F4A7C15)
        self.send_ns: Dict[SeqKey, int] = {}
        self.epoch_ns: Optional[int] = None
        self.stats = SenderStats()
        self._sequence = 0
        if self.registry.enabled:
            self._m_timing = self.registry.histogram(
                "live.timing_error_seconds",
                buckets=LIVE_TIMING_BUCKETS,
                role="sender",
            )
            self.registry.add_collector(self._collect_metrics)
        else:
            self._m_timing = None

    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        registry.counter("live.packets_sent", role="sender").value = (
            self.stats.packets_sent
        )
        registry.counter("live.trains_sent", role="sender").value = (
            self.stats.trains_sent
        )
        registry.counter("live.echoes_received", role="sender").value = len(
            self.protocol.recv_ns
        )
        registry.counter("live.duplicate_echoes", role="sender").value = (
            self.protocol.duplicate_echoes
        )
        registry.counter("live.wire_errors", role="sender").value = (
            self.protocol.wire_errors
        )
        registry.counter("live.hello_attempts", role="sender").value = (
            self.stats.hello_attempts
        )
        registry.counter("live.hello_busy", role="sender").value = (
            self.stats.hello_busy
        )

    # ---------------------------------------------------------------- handshake
    def _backoff_delay(self, attempt: int, floor: float = 0.0) -> float:
        """Full-jitter exponential backoff, floored at any RETRY_AFTER hint."""
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        return floor + self._jitter.uniform(0.0, ceiling)

    async def _await_hello_response(self, timeout: float) -> str:
        """Wait for HELLO_ACK or BUSY, whichever lands first."""
        acked = asyncio.ensure_future(self.protocol.hello_acked.wait())
        busy = asyncio.ensure_future(self.protocol.hello_busy.wait())
        try:
            done, _pending = await asyncio.wait(
                {acked, busy}, timeout=timeout, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in (acked, busy):
                if not task.done():
                    task.cancel()
        if self.protocol.hello_acked.is_set():
            return "acked"
        return "busy" if busy in done else "timeout"

    async def handshake(self) -> None:
        """HELLO/HELLO_ACK with jittered backoff retries.

        A ``BUSY`` rejection is not a failure: the sender honors the
        carried RETRY_AFTER hint (plus jitter) and re-HELLOs, so a burst
        of sessions over the admission cap resolves itself as capacity
        frees up. Raises :class:`~repro.errors.LiveSessionError` only
        when every attempt timed out or was rejected.
        """
        rejected = False
        for attempt in range(self.hello_attempts):
            self.protocol.hello_busy.clear()
            self.stats.hello_attempts += 1
            self.transport.sendto(
                wire.encode_hello(
                    self.protocol.session_id, self.spec, self.clock.now_ns()
                )
            )
            response = await self._await_hello_response(self.hello_timeout)
            if response == "acked":
                return
            if response == "busy":
                rejected = True
                self.stats.hello_busy += 1
                delay = self._backoff_delay(attempt, floor=self.protocol.retry_after)
            else:
                delay = self._backoff_delay(attempt)
            if attempt + 1 < self.hello_attempts and delay > 0.0:
                await asyncio.sleep(delay)
        if rejected:
            reason = wire.BUSY_REASONS.get(self.protocol.busy_reason, "busy")
            exc = LiveSessionError(
                f"reflector rejected HELLO ({reason} cap) after "
                f"{self.stats.hello_attempts} attempts; last RETRY_AFTER "
                f"{self.protocol.retry_after:.3f}s"
            )
            # Structured backpressure for orchestrators (fleet controller):
            # carry the admission verdict so callers can honor RETRY_AFTER
            # without parsing the message.
            exc.busy = True
            exc.retry_after = self.protocol.retry_after
            exc.busy_reason = reason
            raise exc
        raise LiveSessionError(
            f"reflector did not acknowledge HELLO after "
            f"{self.stats.hello_attempts} attempts"
        )

    # ----------------------------------------------------------------- probing
    async def run(self, drain_timeout: float = DRAIN_TIMEOUT) -> List[ProbeRecord]:
        """Handshake, walk the schedule, drain, FIN; return joined records."""
        await self.handshake()
        clock = self.clock
        start_ns = clock.now_ns()
        self.epoch_ns = start_ns
        slot_ns = self.spec.slot_ns
        k = self.spec.packets_per_probe
        max_packets = self.budget.max_events
        wall_cap_ns = (
            int(self.budget.max_wall_seconds * 1e9)
            if self.budget.max_wall_seconds is not None
            else None
        )
        since_progress = 0
        for slot in self.schedule.probe_slots:
            if self.stop_event.is_set():
                self.stats.stopped = "stop"
                break
            if self.protocol.restart_detected:
                # The reflector NAKed our established session: it
                # restarted and lost the state. Probing on would only buy
                # fake loss until the budget died — degrade now instead.
                self.stats.stopped = "reflector-restart"
                break
            if max_packets is not None and self.stats.packets_sent + k > max_packets:
                self.stats.stopped = "packet-budget"
                break
            deadline_ns = start_ns + slot * slot_ns
            if wall_cap_ns is not None and deadline_ns - start_ns > wall_cap_ns:
                self.stats.stopped = "wall-budget"
                break
            delay_ns = deadline_ns - clock.now_ns()
            if delay_ns > 0:
                await asyncio.sleep(delay_ns / 1e9)
                if self.stop_event.is_set():
                    self.stats.stopped = "stop"
                    break
                if self.protocol.restart_detected:
                    self.stats.stopped = "reflector-restart"
                    break
            if self._m_timing is not None:
                self._m_timing.observe(abs(clock.now_ns() - deadline_ns) / 1e9)
            self._emit_train(slot, k)
            since_progress += 1
            if self.on_progress is not None and since_progress >= self.progress_every_trains:
                since_progress = 0
                self._report_progress()
        await self._drain(drain_timeout)
        await self._fin()
        self.stats.echoes_received = len(self.protocol.recv_ns)
        self.stats.duplicate_echoes = self.protocol.duplicate_echoes
        self.stats.wire_errors = self.protocol.wire_errors
        self.stats.elapsed_seconds = (clock.now_ns() - start_ns) / 1e9
        records = self.probe_records()
        if self.on_progress is not None:
            self._report_progress()
        return records

    def _emit_train(self, slot: int, k: int) -> None:
        # Packets within a train go back-to-back (the paper's ~30 µs gap is
        # below asyncio timer resolution; the serialization delay of the
        # sendto calls provides the spacing, as in the real tool).
        for index in range(k):
            stamp = self.clock.now_ns()
            self.send_ns[(slot, index)] = stamp
            self.transport.sendto(
                wire.encode_probe(
                    self.protocol.session_id,
                    self._sequence,
                    slot,
                    index,
                    k,
                    stamp,
                    probe_size=self.spec.probe_size,
                )
            )
            self._sequence += 1
            self.stats.packets_sent += 1
        self.stats.trains_sent += 1

    def _report_progress(self) -> None:
        # The callback gets the logs, not their join: joining them here would
        # cost every report the whole session so far.
        elapsed = (
            (self.clock.now_ns() - self.epoch_ns) / 1e9
            if self.epoch_ns is not None
            else 0.0
        )
        self.on_progress(self.send_ns, self.protocol.recv_ns, self.epoch_ns, elapsed)

    async def _drain(self, drain_timeout: float) -> None:
        """Wait (bounded) for echoes still in flight after the last train.

        Returns as soon as the last outstanding echo lands, or a restart
        NAK says no reflector state (and no echo) is left to wait for.
        """
        protocol = self.protocol
        expected = protocol.echoes_expected = self.stats.packets_sent
        if protocol.restart_detected or len(protocol.recv_ns) >= expected:
            return
        try:
            await asyncio.wait_for(protocol.drained.wait(), timeout=drain_timeout)
        except asyncio.TimeoutError:
            pass

    async def _fin(self) -> None:
        """Best-effort session teardown; the reflector also times out.

        Retries back off with jitter like HELLO — a fleet of sessions
        finishing together must not synchronize their FIN retransmits.
        """
        for attempt in range(FIN_ATTEMPTS):
            self.transport.sendto(
                wire.encode_control(
                    wire.FIN, self.protocol.session_id, self.clock.now_ns()
                )
            )
            try:
                await asyncio.wait_for(
                    self.protocol.fin_acked.wait(), timeout=FIN_TIMEOUT
                )
                return
            except asyncio.TimeoutError:
                if attempt + 1 < FIN_ATTEMPTS:
                    await asyncio.sleep(self._backoff_delay(attempt))

    def probe_records(self) -> List[ProbeRecord]:
        """Join the send log with collected echoes (raw OWDs)."""
        if self.epoch_ns is None:
            return []
        return probe_records_from_logs(
            self.schedule,
            self.spec.packets_per_probe,
            self.send_ns,
            self.protocol.recv_ns,
            self.epoch_ns,
        )


async def open_sender(
    host: str,
    port: int,
    session_id: int,
    clock: Optional[Clock] = None,
) -> Tuple[asyncio.DatagramTransport, SenderProtocol]:
    """Connected UDP endpoint toward a reflector."""
    loop = asyncio.get_running_loop()
    clock = clock if clock is not None else MonotonicClock()
    try:
        return await loop.create_datagram_endpoint(
            lambda: SenderProtocol(session_id, clock), remote_addr=(host, port)
        )
    except OSError as exc:
        raise LiveSessionError(
            f"cannot open sender socket toward {host}:{port}: {exc}"
        ) from exc
