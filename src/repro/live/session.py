"""Session plumbing shared by the live sender and reflector.

A live session is parameterized entirely by a
:class:`~repro.live.wire.SessionSpec`: the HELLO handshake ships it to
the reflector, and *both* ends derive their view of the measurement from
the spec — the sender walks :func:`schedule_from_spec`'s schedule, the
reflector regenerates the identical schedule from the same
``schedule_seed``, and both assemble results against
:func:`config_from_spec`. Quantization (``p`` to parts-per-million, slot
width to nanoseconds) happens once, in :func:`spec_for`, *before* either
side builds anything, so the two ends can never disagree on the plan.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.config import BadabingConfig, MarkingConfig, ProbeConfig
from repro.core.records import ProbeRecord
from repro.core.schedule import GeometricSchedule
from repro.errors import LiveSessionError
from repro.live.wire import PPM, SessionSpec
from repro.net.simulator import _stable_seed

#: (slot, packet-index) key into the send/receive logs — matches the
#: simulator tool's log shape, so the join below mirrors
#: :meth:`repro.core.badabing.BadabingTool.probe_records`.
SeqKey = Tuple[int, int]


def make_session_id(seed: int) -> int:
    """Deterministic 64-bit session id for a seeded run."""
    return _stable_seed(seed, "live-session")


def spec_for(config: BadabingConfig, seed: int) -> SessionSpec:
    """Quantize a :class:`BadabingConfig` into the wire-carried spec."""
    if config.p > 1.0:
        # Never clamp silently: p is a per-slot probability, and a config
        # claiming p=1.5 is a bug at the call site, not a request for 1.0.
        raise LiveSessionError(
            f"p={config.p} is not a probability (> 1); refusing to clamp"
        )
    p_ppm = int(round(config.p * PPM))
    if p_ppm <= 0:
        raise LiveSessionError(
            f"p={config.p} quantizes to zero ppm; too small for the wire"
        )
    return SessionSpec(
        schedule_seed=_stable_seed(seed, "live-schedule"),
        n_slots=config.n_slots,
        slot_ns=int(round(config.probe.slot * 1e9)),
        p_ppm=min(p_ppm, PPM),
        packets_per_probe=config.probe.packets_per_probe,
        improved=config.improved,
        probe_size=config.probe.probe_size,
    ).validate()


def schedule_from_spec(spec: SessionSpec) -> GeometricSchedule:
    """The experiment plan both ends regenerate from the spec."""
    return GeometricSchedule(
        spec.p,
        spec.n_slots,
        random.Random(spec.schedule_seed),
        improved=spec.improved,
    )


def config_from_spec(
    spec: SessionSpec, marking: Optional[MarkingConfig] = None
) -> BadabingConfig:
    """Rebuild the (quantized) config the shared estimator path expects."""
    return BadabingConfig(
        probe=ProbeConfig(
            slot=spec.slot_seconds,
            probe_size=spec.probe_size,
            packets_per_probe=spec.packets_per_probe,
        ),
        marking=marking if marking is not None else MarkingConfig(),
        p=spec.p,
        n_slots=spec.n_slots,
        improved=spec.improved,
    )


def probe_records_from_logs(
    schedule: GeometricSchedule,
    packets_per_probe: int,
    send_ns: Dict[SeqKey, int],
    recv_ns: Dict[SeqKey, int],
    epoch_ns: int,
    start_slot: int = 0,
    stop_slot: Optional[int] = None,
) -> List[ProbeRecord]:
    """Join send/receive nanosecond logs into per-slot probe records.

    The live twin of the simulator tool's log join: ``send_ns`` holds the
    sender-clock stamp of every emitted packet, ``recv_ns`` the
    receiver-clock stamp of every arrival (first copy per sequence key —
    dedup happens where the log is written). Record send times are
    expressed in seconds since ``epoch_ns`` (the session epoch on the
    *send-log* clock); one-way delays are ``recv − send`` and therefore
    live in a cross-clock domain when the two logs come from different
    hosts — pass the result through
    :func:`repro.core.clock.rebase_probe_owds` before marking in that
    case. Slots the sender never reached (budget stop, Ctrl-C) are simply
    absent, degrading coverage instead of faking loss.

    Only the probe slots in ``[start_slot, stop_slot)`` are joined (default:
    the whole schedule); the records are the whole-log join's records in
    that range, so a caller that keeps the records it joined before can
    join just the slots after them.
    """
    probe_slots = schedule.probe_slots
    first_index = bisect_left(probe_slots, start_slot)
    stop_index = (
        len(probe_slots) if stop_slot is None else bisect_left(probe_slots, stop_slot)
    )
    records: List[ProbeRecord] = []
    for slot in probe_slots[first_index:stop_index]:
        first = send_ns.get((slot, 0))
        if first is None:
            continue
        send_time = (first - epoch_ns) / 1e9
        owds: List[float] = []
        owd_before_loss: Optional[float] = None
        last_owd: Optional[float] = None
        saw_loss = False
        incomplete = False
        for index in range(packets_per_probe):
            stamp = send_ns.get((slot, index))
            if stamp is None:
                # Train cut short mid-emission (stop raced the train).
                incomplete = True
                break
            arrival = recv_ns.get((slot, index))
            if arrival is None:
                if not saw_loss:
                    saw_loss = True
                    owd_before_loss = last_owd
            else:
                owd = (arrival - stamp) / 1e9
                owds.append(owd)
                last_owd = owd
        if incomplete:
            continue
        records.append(
            ProbeRecord(
                slot=slot,
                send_time=send_time,
                n_packets=packets_per_probe,
                owds=tuple(owds),
                owd_before_loss=owd_before_loss,
            )
        )
    records.sort(key=lambda record: record.send_time)
    return records


def probe_records_from_arrivals(
    schedule: GeometricSchedule,
    packets_per_probe: int,
    send_ns: Dict[SeqKey, int],
    recv_ns: Dict[SeqKey, int],
    slot_ns: int,
    last_slot: Optional[int] = None,
) -> List[ProbeRecord]:
    """Receiver-side join: reconstruct probe records from arrivals alone.

    A sink-mode reflector has no authoritative send log — it only knows
    the stamps of packets that *arrived*. Here absence means **loss**,
    the inverse of :func:`probe_records_from_logs`'s "not sent yet": a
    scheduled slot with some arrivals yields a record whose missing
    indices are losses, and a scheduled slot with *no* arrivals at all
    yields an all-lost record — but only up to ``last_slot``, beyond
    which silence is read as "the sender never got there" (budget stop,
    crash) and degrades coverage instead of fabricating loss. Derive
    ``last_slot`` from the FIN datagram's sender stamp when one arrived;
    the default is the highest slot with any arrival.

    Send times are seconds since the sender's (estimated) session epoch,
    recovered from observed first-packet stamps: each arrived ``(slot,
    0)`` packet pins ``epoch ≈ stamp − slot × slot_ns`` up to launch
    jitter; the minimum over observations is used so fully-lost slots
    get nominal send times in the same domain.
    """
    epoch_candidates = [
        stamp - slot * slot_ns
        for (slot, index), stamp in send_ns.items()
        if index == 0
    ]
    if not epoch_candidates:
        return []
    epoch_ns = min(epoch_candidates)
    if last_slot is None:
        last_slot = max(slot for slot, _index in recv_ns)
    records: List[ProbeRecord] = []
    for slot in schedule.probe_slots:
        if slot > last_slot:
            continue
        owds: List[float] = []
        owd_before_loss: Optional[float] = None
        last_owd: Optional[float] = None
        saw_loss = False
        for index in range(packets_per_probe):
            stamp = send_ns.get((slot, index))
            arrival = recv_ns.get((slot, index))
            if arrival is None or stamp is None:
                if not saw_loss:
                    saw_loss = True
                    owd_before_loss = last_owd
            else:
                owd = (arrival - stamp) / 1e9
                owds.append(owd)
                last_owd = owd
        first = send_ns.get((slot, 0))
        send_time = (
            (first - epoch_ns) / 1e9 if first is not None else slot * slot_ns / 1e9
        )
        records.append(
            ProbeRecord(
                slot=slot,
                send_time=send_time,
                n_packets=packets_per_probe,
                owds=tuple(owds),
                owd_before_loss=owd_before_loss,
            )
        )
    records.sort(key=lambda record: record.send_time)
    return records
