"""Binary wire format of the live BADABING runtime.

Every datagram starts with one fixed 30-byte header, packed in network
byte order (``!`` — big-endian on every host, so captures are portable
across architectures):

====== ===== =========================================================
offset bytes field
====== ===== =========================================================
0      2     magic ``0xBADA``
2      1     protocol version (``VERSION``)
3      1     message kind (:data:`HELLO` … :data:`FIN_ACK`)
4      8     session id (u64)
12     4     datagram sequence number (u32, per session, monotonic)
16     4     slot index (u32; 0 for control messages)
20     1     packet index within the probe train (u8)
21     1     packets per probe (u8, ≥ 1; 1 for control messages)
22     8     send timestamp, nanoseconds of the sender's clock (u64)
====== ===== =========================================================

* ``PROBE`` datagrams append zero padding up to the configured probe
  size, so live probes load the path like the paper's 600-byte probes.
* ``ECHO`` datagrams are the probe header re-stamped by the reflector: a
  trailing u64 carries the reflector's receive timestamp (its own clock)
  so the sender can form one-way delay samples; the padding is *not*
  echoed (the reverse path is not part of the measured forward path).
* ``HELLO`` datagrams append a :class:`SessionSpec` — everything the
  reflector needs to regenerate the sender's geometric schedule
  deterministically and estimate one-way, receiver-side.

Decoding is fuzz-resistant by contract: every decoder validates length,
magic, version, kind, and field ranges, and raises *only*
:class:`~repro.errors.WireFormatError` on any malformed input. A
reflector therefore counts-and-drops garbage instead of crashing
(``live.wire_errors`` in the metrics registry).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from repro import profiling as _profiling
from repro.errors import WireFormatError

#: First two header bytes of every live datagram.
MAGIC = 0xBADA
#: Wire protocol version; bumped on any incompatible layout change.
VERSION = 1

# Message kinds.
HELLO = 1
HELLO_ACK = 2
PROBE = 3
ECHO = 4
FIN = 5
FIN_ACK = 6
#: HELLO rejected by admission control; carries a retry-after trailer.
BUSY = 7
#: "I don't know this session" — sent (rate-limited) in answer to PROBEs
#: for sessions the reflector has no state for, so a sender can detect a
#: reflector restart mid-session instead of probing into a void.
NAK = 8

_KINDS = frozenset((HELLO, HELLO_ACK, PROBE, ECHO, FIN, FIN_ACK, BUSY, NAK))
KIND_NAMES = {
    HELLO: "hello",
    HELLO_ACK: "hello-ack",
    PROBE: "probe",
    ECHO: "echo",
    FIN: "fin",
    FIN_ACK: "fin-ack",
    BUSY: "busy",
    NAK: "nak",
}

#: BUSY reason codes carried in the trailer.
BUSY_SESSIONS = 1  #: concurrent-session cap reached
BUSY_RATE = 2  #: aggregate probe-rate cap reached
BUSY_REASONS = {BUSY_SESSIONS: "sessions", BUSY_RATE: "rate"}

#: magic, version, kind, session, sequence, slot, index, k, send_ns.
_HEADER = struct.Struct("!HBBQIIBBQ")
#: Reflector receive timestamp appended to ECHO datagrams.
_ECHO_TRAILER = struct.Struct("!Q")
#: schedule_seed, n_slots, slot_ns, p_ppm, packets_per_probe, improved,
#: probe_size.
_SPEC = struct.Struct("!QIQIBBH")
#: retry_after_ms, reason code — appended to BUSY datagrams.
_BUSY_TRAILER = struct.Struct("!IB")

HEADER_SIZE = _HEADER.size
ECHO_SIZE = HEADER_SIZE + _ECHO_TRAILER.size
HELLO_SIZE = HEADER_SIZE + _SPEC.size
BUSY_SIZE = HEADER_SIZE + _BUSY_TRAILER.size

#: Read size of the live endpoints' datagram transports. Every UDP payload
#: fits (65,507 bytes at most), and the buffer stays under glibc's 128 KiB
#: mmap threshold: with asyncio's default of 256 KiB, each datagram maps,
#: faults in and unmaps a fresh buffer unless that threshold was raised.
MAX_DATAGRAM = 64 * 1024

_U8 = (1 << 8) - 1
_U16 = (1 << 16) - 1
_U32 = (1 << 32) - 1
_U64 = (1 << 64) - 1

#: Parts-per-million fixed-point base used to carry ``p`` on the wire.
PPM = 1_000_000


@dataclass(frozen=True)
class ProbeHeader:
    """One decoded datagram header (all message kinds share it)."""

    kind: int
    session: int
    sequence: int
    slot: int
    index: int
    packets_per_probe: int
    send_ns: int

    @property
    def key(self) -> Tuple[int, int]:
        """The (slot, packet index) sequence key used by the log joins."""
        return (self.slot, self.index)


@dataclass(frozen=True)
class SessionSpec:
    """Schedule parameters carried by HELLO.

    The reflector regenerates ``GeometricSchedule(p, n_slots,
    random.Random(schedule_seed), improved)`` from these and can then
    assemble the exact experiment plan the sender is walking — the
    architectural trick that makes true one-way, receiver-side estimation
    possible without shipping the schedule itself.
    """

    schedule_seed: int
    n_slots: int
    slot_ns: int
    p_ppm: int
    packets_per_probe: int
    improved: bool
    probe_size: int

    @property
    def p(self) -> float:
        return self.p_ppm / PPM

    @property
    def slot_seconds(self) -> float:
        return self.slot_ns / 1e9

    @property
    def duration_seconds(self) -> float:
        return self.n_slots * self.slot_seconds

    def validate(self) -> "SessionSpec":
        if not 0 < self.p_ppm <= PPM:
            raise WireFormatError(f"p_ppm out of (0, {PPM}]: {self.p_ppm}")
        if self.n_slots < 2:
            raise WireFormatError(f"n_slots must be >= 2, got {self.n_slots}")
        if self.slot_ns <= 0:
            raise WireFormatError(f"slot_ns must be positive, got {self.slot_ns}")
        if not 1 <= self.packets_per_probe <= _U8:
            raise WireFormatError(
                f"packets_per_probe out of [1, {_U8}]: {self.packets_per_probe}"
            )
        if not HEADER_SIZE <= self.probe_size <= _U16:
            raise WireFormatError(
                f"probe_size out of [{HEADER_SIZE}, {_U16}]: {self.probe_size}"
            )
        return self


def _check_range(name: str, value: int, ceiling: int) -> int:
    if not isinstance(value, int) or not 0 <= value <= ceiling:
        raise WireFormatError(f"{name} out of [0, {ceiling}]: {value!r}")
    return value


def encode_header(header: ProbeHeader) -> bytes:
    """Pack a header, validating every field range first."""
    # Every encoder funnels through here, so this one frame covers the
    # whole encode surface (probe/echo/hello/control/busy).
    prof = _profiling.ACTIVE
    if prof is None:
        return _encode_header(header)
    frame = prof.start("wire.encode")
    try:
        return _encode_header(header)
    finally:
        prof.stop(frame)


def _encode_header(header: ProbeHeader) -> bytes:
    if header.kind not in _KINDS:
        raise WireFormatError(f"unknown message kind {header.kind!r}")
    _check_range("session", header.session, _U64)
    _check_range("sequence", header.sequence, _U32)
    _check_range("slot", header.slot, _U32)
    _check_range("index", header.index, _U8)
    k = header.packets_per_probe
    if not isinstance(k, int) or not 1 <= k <= _U8:
        raise WireFormatError(f"packets_per_probe out of [1, {_U8}]: {k!r}")
    if header.index >= k:
        raise WireFormatError(
            f"packet index {header.index} >= packets_per_probe {k}"
        )
    _check_range("send_ns", header.send_ns, _U64)
    return _HEADER.pack(
        MAGIC,
        VERSION,
        header.kind,
        header.session,
        header.sequence,
        header.slot,
        header.index,
        k,
        header.send_ns,
    )


def decode_header(data: bytes) -> ProbeHeader:
    """Unpack and validate the fixed header of any live datagram."""
    prof = _profiling.ACTIVE
    if prof is None:
        return _decode_header(data)
    frame = prof.start("wire.decode")
    try:
        return _decode_header(data)
    finally:
        prof.stop(frame)


def _decode_header(data: bytes) -> ProbeHeader:
    if len(data) < HEADER_SIZE:
        raise WireFormatError(
            f"short datagram: {len(data)} bytes < header {HEADER_SIZE}"
        )
    magic, version, kind, session, sequence, slot, index, k, send_ns = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise WireFormatError(f"bad magic 0x{magic:04X} (want 0x{MAGIC:04X})")
    if version != VERSION:
        raise WireFormatError(f"version skew: got {version}, speak {VERSION}")
    if kind not in _KINDS:
        raise WireFormatError(f"unknown message kind {kind}")
    if k < 1:
        raise WireFormatError("packets_per_probe must be >= 1")
    if index >= k:
        raise WireFormatError(f"packet index {index} >= packets_per_probe {k}")
    return ProbeHeader(
        kind=kind,
        session=session,
        sequence=sequence,
        slot=slot,
        index=index,
        packets_per_probe=k,
        send_ns=send_ns,
    )


# --------------------------------------------------------------------- probes
def encode_probe(
    session: int,
    sequence: int,
    slot: int,
    index: int,
    packets_per_probe: int,
    send_ns: int,
    probe_size: int = HEADER_SIZE,
) -> bytes:
    """A PROBE datagram, zero-padded to ``probe_size`` bytes."""
    header = encode_header(
        ProbeHeader(PROBE, session, sequence, slot, index, packets_per_probe, send_ns)
    )
    if probe_size < HEADER_SIZE:
        raise WireFormatError(
            f"probe_size {probe_size} smaller than header {HEADER_SIZE}"
        )
    return header + b"\x00" * (probe_size - HEADER_SIZE)


def encode_echo(probe: ProbeHeader, recv_ns: int) -> bytes:
    """Reflect a PROBE header back with the reflector's receive stamp."""
    if probe.kind != PROBE:
        raise WireFormatError(f"can only echo PROBE headers, got kind {probe.kind}")
    header = encode_header(
        ProbeHeader(
            ECHO,
            probe.session,
            probe.sequence,
            probe.slot,
            probe.index,
            probe.packets_per_probe,
            probe.send_ns,
        )
    )
    return header + _ECHO_TRAILER.pack(_check_range("recv_ns", recv_ns, _U64))


def decode_echo(data: bytes) -> Tuple[ProbeHeader, int]:
    """Decode an ECHO datagram into (original header, reflector recv_ns)."""
    header = decode_header(data)
    if header.kind != ECHO:
        raise WireFormatError(f"expected ECHO, got kind {header.kind}")
    if len(data) < ECHO_SIZE:
        raise WireFormatError(
            f"short echo: {len(data)} bytes < {ECHO_SIZE}"
        )
    (recv_ns,) = _ECHO_TRAILER.unpack_from(data, HEADER_SIZE)
    return header, recv_ns


# ------------------------------------------------------------------ handshake
def encode_hello(session: int, spec: SessionSpec, send_ns: int) -> bytes:
    """HELLO: open a session, carrying the schedule spec."""
    spec.validate()
    header = encode_header(ProbeHeader(HELLO, session, 0, 0, 0, 1, send_ns))
    return header + _SPEC.pack(
        _check_range("schedule_seed", spec.schedule_seed, _U64),
        spec.n_slots,
        spec.slot_ns,
        spec.p_ppm,
        spec.packets_per_probe,
        1 if spec.improved else 0,
        spec.probe_size,
    )


def decode_hello(data: bytes) -> Tuple[ProbeHeader, SessionSpec]:
    """Decode a HELLO datagram into (header, session spec)."""
    header = decode_header(data)
    if header.kind != HELLO:
        raise WireFormatError(f"expected HELLO, got kind {header.kind}")
    if len(data) < HELLO_SIZE:
        raise WireFormatError(f"short hello: {len(data)} bytes < {HELLO_SIZE}")
    seed, n_slots, slot_ns, p_ppm, k, improved, probe_size = _SPEC.unpack_from(
        data, HEADER_SIZE
    )
    if improved not in (0, 1):
        raise WireFormatError(f"improved flag must be 0/1, got {improved}")
    spec = SessionSpec(
        schedule_seed=seed,
        n_slots=n_slots,
        slot_ns=slot_ns,
        p_ppm=p_ppm,
        packets_per_probe=k,
        improved=bool(improved),
        probe_size=probe_size,
    ).validate()
    return header, spec


def encode_control(kind: int, session: int, send_ns: int) -> bytes:
    """A bare control datagram: HELLO_ACK, FIN, FIN_ACK, or NAK."""
    if kind not in (HELLO_ACK, FIN, FIN_ACK, NAK):
        raise WireFormatError(f"not a bare control kind: {kind}")
    return encode_header(ProbeHeader(kind, session, 0, 0, 0, 1, send_ns))


# ----------------------------------------------------------- admission control
def encode_busy(
    session: int, retry_after_seconds: float, reason: int, send_ns: int
) -> bytes:
    """BUSY: HELLO rejected; retry after the carried hint (seconds)."""
    if reason not in BUSY_REASONS:
        raise WireFormatError(f"unknown BUSY reason code {reason!r}")
    retry_after_ms = int(round(retry_after_seconds * 1000.0))
    if not 0 <= retry_after_ms <= _U32:
        raise WireFormatError(
            f"retry_after out of range: {retry_after_seconds!r} seconds"
        )
    header = encode_header(ProbeHeader(BUSY, session, 0, 0, 0, 1, send_ns))
    return header + _BUSY_TRAILER.pack(retry_after_ms, reason)


def decode_busy(data: bytes) -> Tuple[ProbeHeader, float, int]:
    """Decode a BUSY datagram into (header, retry_after_seconds, reason)."""
    header = decode_header(data)
    if header.kind != BUSY:
        raise WireFormatError(f"expected BUSY, got kind {header.kind}")
    if len(data) < BUSY_SIZE:
        raise WireFormatError(f"short busy: {len(data)} bytes < {BUSY_SIZE}")
    retry_after_ms, reason = _BUSY_TRAILER.unpack_from(data, HEADER_SIZE)
    if reason not in BUSY_REASONS:
        raise WireFormatError(f"unknown BUSY reason code {reason}")
    return header, retry_after_ms / 1000.0, reason
