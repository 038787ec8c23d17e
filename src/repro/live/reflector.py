"""Asyncio UDP reflector: the far end of a live BADABING session.

The reflector is deliberately dumb and crash-proof: it answers HELLO
with HELLO_ACK, stamps and echoes probe packets (``echo`` mode) or
silently absorbs them (``sink`` mode), answers FIN with FIN_ACK, and
counts everything it could not parse instead of dying on it. All of its
per-session state — the regenerated schedule and the arrival log — also
lets it reconstruct :class:`~repro.core.records.ProbeRecord` streams
receiver-side, so a sink-mode reflector can estimate one-way loss
without any return path (see :meth:`ReflectorProtocol.probe_records`).
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import MarkingConfig
from repro.core.clock import Clock, MonotonicClock, rebase_probe_owds
from repro.core.records import ProbeRecord
from repro.core.result import BadabingResult, assemble_result
from repro.errors import LiveSessionError, WireFormatError
from repro.live import wire
from repro.live.impair import ReceiverImpairment
from repro.live.session import (
    SeqKey,
    config_from_spec,
    probe_records_from_arrivals,
    schedule_from_spec,
)
from repro.obs.metrics import MetricsRegistry, NullRegistry

#: Reflector modes: ``echo`` sends the stamped header back (round-trip
#: collection at the sender), ``sink`` only records (one-way collection
#: at the reflector).
MODES = ("echo", "sink")

#: How many retired session ids the reflector remembers (bounded LRU).
#: Late duplicate probes from a retired session count as duplicates, not
#: ``live.unknown_session`` — and the memory cost is one dict slot per id.
RECENT_SESSIONS = 4096

#: Ceiling on NAK datagrams per second across all peers. NAKs make a
#: restarted reflector *visible* to senders mid-session, but an
#: unthrottled NAK-per-probe would turn the reflector into a packet
#: amplifier for spoofed traffic.
NAK_PER_SECOND = 20


@dataclass
class ReflectorSession:
    """Everything the reflector keeps per live session."""

    session_id: int
    peer: Tuple[str, int]
    spec: wire.SessionSpec
    #: Reflector clock at HELLO receipt — anchors outage-window elapsed time.
    started_ns: int
    #: Sender clock at HELLO emission — epoch for receiver-side send times.
    sender_epoch_ns: int
    impairment: Optional[ReceiverImpairment] = None
    #: (slot, index) -> sender-clock send stamp (from the probe header).
    send_ns: Dict[SeqKey, int] = field(default_factory=dict)
    #: (slot, index) -> reflector-clock arrival stamp (first copy wins).
    recv_ns: Dict[SeqKey, int] = field(default_factory=dict)
    probes_received: int = 0
    probes_echoed: int = 0
    duplicate_arrivals: int = 0
    impaired_drops: int = 0
    #: Probe datagrams refused by the per-tenant token bucket (fleet layer).
    rate_limited: int = 0
    finished: bool = False
    #: Sender clock at FIN emission — bounds the receiver-side join (slots
    #: past it were never probed, so their silence is not loss).
    fin_send_ns: Optional[int] = None
    #: Reflector clock at the last datagram from this session — drives the
    #: fleet watchdog's idle-eviction deadline.
    last_seen_ns: int = 0
    #: Reflector clock when FIN first arrived (linger timer for retirement).
    fin_seen_ns: Optional[int] = None


class ReflectorProtocol(asyncio.DatagramProtocol):
    """Datagram handler implementing the reflector state machine.

    Parameters
    ----------
    clock:
        Time source for receive stamps (default: the monotonic wall clock).
    registry:
        Metrics registry; malformed datagrams land in ``live.wire_errors``,
        probes without a session in ``live.unknown_session``, etc.
    impairment_for:
        Optional factory ``(session_id) -> ReceiverImpairment | None``
        installing the deterministic forward-loss shim per session
        (loopback testing); None reflects everything faithfully.
    mode:
        ``"echo"`` or ``"sink"`` (see :data:`MODES`).
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        registry: Optional[MetricsRegistry] = None,
        impairment_for=None,
        mode: str = "echo",
        recent_capacity: int = RECENT_SESSIONS,
    ):
        if mode not in MODES:
            raise LiveSessionError(f"reflector mode must be one of {MODES}: {mode!r}")
        self.clock = clock if clock is not None else MonotonicClock()
        self.registry = registry if registry is not None else NullRegistry()
        self.impairment_for = impairment_for
        self.mode = mode
        self.sessions: Dict[int, ReflectorSession] = {}
        #: Bounded LRU of retired session ids (id -> retired_at_ns). Late
        #: duplicate probes from these count as duplicates, not unknowns.
        self.recent_sessions: "OrderedDict[int, int]" = OrderedDict()
        self.recent_capacity = max(0, recent_capacity)
        self.wire_errors = 0
        self.unknown_session = 0
        self.unexpected_kind = 0
        self.late_duplicates = 0
        self.naks_sent = 0
        self.sessions_admitted = 0
        self.sessions_finished = 0
        self.sessions_retired = 0
        # Cumulative per-session counters folded in at retirement so the
        # aggregate metrics stay monotonic as sessions leave the dict.
        self._retired_probes_received = 0
        self._retired_probes_echoed = 0
        self._retired_impaired_drops = 0
        self._retired_duplicates = 0
        self._retired_rate_limited = 0
        self._nak_window_start_ns = 0
        self._nak_window_count = 0
        self.transport: Optional[asyncio.DatagramTransport] = None
        #: Set every time any datagram arrives — lets a serving loop
        #: implement an idle timeout without polling the socket.
        self.last_activity_ns = self.clock.now_ns()
        if self.registry.enabled:
            self.registry.add_collector(self._collect_metrics)

    # Aggregates that survive session retirement.
    @property
    def probes_received_total(self) -> int:
        return self._retired_probes_received + sum(
            s.probes_received for s in self.sessions.values()
        )

    @property
    def probes_echoed_total(self) -> int:
        return self._retired_probes_echoed + sum(
            s.probes_echoed for s in self.sessions.values()
        )

    @property
    def impaired_drops_total(self) -> int:
        return self._retired_impaired_drops + sum(
            s.impaired_drops for s in self.sessions.values()
        )

    @property
    def duplicate_arrivals_total(self) -> int:
        return (
            self._retired_duplicates
            + self.late_duplicates
            + sum(s.duplicate_arrivals for s in self.sessions.values())
        )

    @property
    def rate_limited_total(self) -> int:
        return self._retired_rate_limited + sum(
            s.rate_limited for s in self.sessions.values()
        )

    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        registry.counter("live.wire_errors", role="reflector").value = self.wire_errors
        registry.counter("live.unknown_session", role="reflector").value = (
            self.unknown_session
        )
        registry.counter("live.unexpected_kind", role="reflector").value = (
            self.unexpected_kind
        )
        registry.counter("live.sessions", role="reflector").value = (
            self.sessions_admitted
        )
        # ``sample`` (not ``set``): the peak must not depend on whether a
        # live exporter happened to scrape while more sessions were up.
        registry.gauge("live.sessions_active", role="reflector").sample(
            float(len(self.sessions))
        )
        registry.counter("live.late_duplicates", role="reflector").value = (
            self.late_duplicates
        )
        registry.counter("live.naks_sent", role="reflector").value = self.naks_sent
        registry.counter("live.probes_received", role="reflector").value = (
            self.probes_received_total
        )
        registry.counter("live.probes_echoed", role="reflector").value = (
            self.probes_echoed_total
        )
        registry.counter("live.impaired_drops", role="reflector").value = (
            self.impaired_drops_total
        )
        registry.counter("live.rate_limited", role="reflector").value = (
            self.rate_limited_total
        )

    # ------------------------------------------------------- protocol plumbing
    def connection_made(self, transport) -> None:
        transport.max_size = wire.MAX_DATAGRAM
        self.transport = transport

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        """Dispatch one datagram; malformed input is counted, never raised."""
        self.last_activity_ns = self.clock.now_ns()
        try:
            header = wire.decode_header(data)
            if header.kind == wire.HELLO:
                self._on_hello(data, addr)
            elif header.kind == wire.PROBE:
                self._on_probe(header, addr)
            elif header.kind == wire.FIN:
                self._on_fin(header, addr)
            else:
                # ECHO / *_ACK datagrams belong on the sender side.
                self.unexpected_kind += 1
        except WireFormatError:
            self.wire_errors += 1

    # ------------------------------------------------------------ state machine
    def _on_hello(self, data: bytes, addr: Tuple[str, int]) -> None:
        header, spec = wire.decode_hello(data)
        session = self.sessions.get(header.session)
        if session is None:
            if not self._admit(header, spec, addr):
                return
            session = self._register(header, spec, addr)
        session.last_seen_ns = self.clock.now_ns()
        # Ack idempotently: HELLO retransmits must not reset the session.
        self._send(wire.encode_control(wire.HELLO_ACK, header.session, self.clock.now_ns()), addr)

    def _admit(
        self, header: wire.ProbeHeader, spec: wire.SessionSpec, addr: Tuple[str, int]
    ) -> bool:
        """Admission hook; the fleet layer overrides this with real policy."""
        return True

    def _register(
        self, header: wire.ProbeHeader, spec: wire.SessionSpec, addr: Tuple[str, int]
    ) -> ReflectorSession:
        impairment = (
            self.impairment_for(header.session)
            if self.impairment_for is not None
            else None
        )
        session = ReflectorSession(
            session_id=header.session,
            peer=addr,
            spec=spec,
            started_ns=self.clock.now_ns(),
            sender_epoch_ns=header.send_ns,
            impairment=impairment,
        )
        self.sessions[header.session] = session
        self.sessions_admitted += 1
        # A re-admitted id (sender restart) is live again, not "recent".
        self.recent_sessions.pop(header.session, None)
        return session

    def _on_probe(self, header: wire.ProbeHeader, addr: Tuple[str, int]) -> None:
        session = self.sessions.get(header.session)
        if session is None:
            if header.session in self.recent_sessions:
                # A straggler from a retired (finished/evicted) session:
                # its record already counted, so this is a duplicate, not
                # an unknown — and it refreshes the id's LRU position.
                self.recent_sessions.move_to_end(header.session)
                self.late_duplicates += 1
                return
            # No handshake, no service: probes from unknown sessions are
            # dropped (and counted) rather than echoed, so a stray sender
            # cannot use the reflector as a generic packet bouncer. A
            # throttled NAK tells a legitimate sender mid-session that the
            # reflector restarted and lost its state.
            self.unknown_session += 1
            self._maybe_nak(header.session, addr)
            return
        now_ns = self.clock.now_ns()
        session.last_seen_ns = now_ns
        if not self._consume_rate_token(session, now_ns):
            session.rate_limited += 1
            return
        if session.impairment is not None:
            elapsed = (now_ns - session.started_ns) / 1e9
            if session.impairment.drop(header.slot, header.index, elapsed):
                session.impaired_drops += 1
                return
        session.probes_received += 1
        key = header.key
        if key in session.recv_ns:
            session.duplicate_arrivals += 1
        else:
            session.recv_ns[key] = now_ns
            session.send_ns[key] = header.send_ns
        if self.mode == "echo":
            session.probes_echoed += 1
            self._send(wire.encode_echo(header, now_ns), addr)

    def _on_fin(self, header: wire.ProbeHeader, addr: Tuple[str, int]) -> None:
        session = self.sessions.get(header.session)
        if session is not None:
            now_ns = self.clock.now_ns()
            session.last_seen_ns = now_ns
            if not session.finished:
                session.finished = True
                session.fin_seen_ns = now_ns
                self.sessions_finished += 1
            if session.fin_send_ns is None:
                session.fin_send_ns = header.send_ns
        # FIN_ACK even for unknown sessions: the sender may be retrying
        # after the reflector restarted; letting it terminate is harmless.
        self._send(wire.encode_control(wire.FIN_ACK, header.session, self.clock.now_ns()), addr)

    def _consume_rate_token(self, session: ReflectorSession, now_ns: int) -> bool:
        """Backpressure hook; the fleet layer overrides with a token bucket."""
        return True

    def _maybe_nak(self, session_id: int, addr: Tuple[str, int]) -> None:
        """Send at most :data:`NAK_PER_SECOND` unknown-session notices."""
        now_ns = self.clock.now_ns()
        if now_ns - self._nak_window_start_ns >= 1_000_000_000:
            self._nak_window_start_ns = now_ns
            self._nak_window_count = 0
        if self._nak_window_count >= NAK_PER_SECOND:
            return
        self._nak_window_count += 1
        self.naks_sent += 1
        self._send(wire.encode_control(wire.NAK, session_id, now_ns), addr)

    def retire_session(self, session_id: int) -> Optional[ReflectorSession]:
        """Drop a session's bulky state, remembering only its id (LRU).

        Finished (FIN_ACKed) sessions previously stayed in the session
        dict forever — unbounded memory on a long-lived reflector. The
        retired id keeps answering late duplicate probes as duplicates
        instead of ``live.unknown_session``; per-session counters fold
        into cumulative totals so aggregate metrics never move backwards.
        """
        session = self.sessions.pop(session_id, None)
        if session is None:
            return None
        self._retired_probes_received += session.probes_received
        self._retired_probes_echoed += session.probes_echoed
        self._retired_impaired_drops += session.impaired_drops
        self._retired_duplicates += session.duplicate_arrivals
        self._retired_rate_limited += session.rate_limited
        self.sessions_retired += 1
        if self.recent_capacity > 0:
            self.recent_sessions[session_id] = self.clock.now_ns()
            self.recent_sessions.move_to_end(session_id)
            while len(self.recent_sessions) > self.recent_capacity:
                self.recent_sessions.popitem(last=False)
        return session

    def _send(self, payload: bytes, addr: Tuple[str, int]) -> None:
        if self.transport is not None:
            self.transport.sendto(payload, addr)

    # ------------------------------------------------------- receiver-side view
    def probe_records(self, session_id: int) -> List[ProbeRecord]:
        """Receiver-side probe records for one session (raw OWDs).

        The arrivals-only join: missing packets in probed slots *are the
        losses* (that is the whole point of sink-mode estimation), bounded
        by the FIN stamp so slots the sender never reached degrade
        coverage instead. One-way delays are
        reflector-clock-minus-sender-clock and must be rebased
        (:func:`~repro.core.clock.rebase_probe_owds`) before marking
        unless both ends share a clock.
        """
        session = self._session(session_id)
        spec = session.spec
        return probe_records_from_arrivals(
            schedule_from_spec(spec),
            spec.packets_per_probe,
            session.send_ns,
            session.recv_ns,
            spec.slot_ns,
            fin_send_ns=session.fin_send_ns,
        )

    def result_for(
        self, session_id: int, marking: Optional[MarkingConfig] = None
    ) -> BadabingResult:
        """One-way BADABING estimate from the reflector's own log.

        This is how a sink-mode deployment reports: rebuild the schedule
        from the session spec, rebase the cross-clock delays, and feed the
        exact same :func:`~repro.core.result.assemble_result` path the
        simulator and the sender use.
        """
        session = self._session(session_id)
        probes = rebase_probe_owds(self.probe_records(session_id))
        return assemble_result(
            schedule_from_spec(session.spec),
            probes,
            config_from_spec(session.spec, marking),
            duplicate_arrivals=session.duplicate_arrivals,
        )

    def _session(self, session_id: int) -> ReflectorSession:
        session = self.sessions.get(session_id)
        if session is None:
            raise LiveSessionError(f"no such live session: {session_id}")
        return session


async def start_reflector(
    host: str = "127.0.0.1",
    port: int = 0,
    **protocol_kwargs,
) -> Tuple[asyncio.DatagramTransport, ReflectorProtocol]:
    """Bind a reflector endpoint; returns (transport, protocol).

    ``port=0`` binds an ephemeral port — read the actual one from
    ``transport.get_extra_info("sockname")[1]`` (how the loopback runner
    wires sender to reflector without a fixed port).
    """
    loop = asyncio.get_running_loop()
    try:
        return await loop.create_datagram_endpoint(
            lambda: ReflectorProtocol(**protocol_kwargs), local_addr=(host, port)
        )
    except OSError as exc:
        raise LiveSessionError(f"cannot bind reflector on {host}:{port}: {exc}") from exc
