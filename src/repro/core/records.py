"""Probe records and experiment outcomes.

Two data shapes flow through the BADABING pipeline:

* :class:`ProbeRecord` — what one multi-packet probe measured in one slot
  (which packets survived, with what one-way delays). Built by
  :func:`probe_record` from the send and arrival logs of the simulated
  tool, the live sender or a sink-mode reflector; consumed by the §6.1
  marking algorithm.
* :class:`ExperimentOutcome` — the paper's ``y_i``: the binary string of
  congestion indications for the slots of one basic (2-slot) or extended
  (3-slot) experiment. Consumed by the estimators and validators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

#: ``(slot, packet index)`` — the key of every probe send and arrival log.
SeqKey = Tuple[int, int]

#: Every legal ``bits`` tuple mapped to its §5 pattern string ("01",
#: "110", ...). An outcome is valid when its bits are a key here, so both
#: the check and the string form are one table lookup instead of a
#: per-bit loop or join — outcomes are built and counted in bulk.
_PATTERN_STRINGS = {
    bits: "".join(str(bit) for bit in bits)
    for length in (2, 3)
    for bits in product((0, 1), repeat=length)
}


@dataclass(frozen=True)
class ProbeRecord:
    """One probe (a train of packets sent back-to-back within one slot).

    Attributes
    ----------
    slot:
        Discrete slot index the probe targeted.
    send_time:
        Time the first packet left the sender (sender clock).
    n_packets:
        How many packets the probe comprised.
    owds:
        One-way delays of the packets that arrived, in packet order.
        Lost packets simply have no entry; ``n_packets - len(owds)`` were
        lost. Delays are measured with whatever clocks the hosts have, so
        they may include offset/skew (see :mod:`repro.core.clock`).
    owd_before_loss:
        One-way delay of the most recent successfully transmitted packet
        seen at the time a loss in this probe was detected — §6.1's
        estimate of the maximum queue depth. None when no packet was lost
        or no earlier delivery existed.
    """

    slot: int
    send_time: float
    n_packets: int
    owds: Tuple[float, ...]
    owd_before_loss: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_packets < 1:
            raise ConfigurationError("a probe has at least one packet")
        if len(self.owds) > self.n_packets:
            raise ConfigurationError("more deliveries than packets sent")

    @property
    def lost_packets(self) -> int:
        return self.n_packets - len(self.owds)

    @property
    def lost(self) -> bool:
        """True if any packet of the probe was lost."""
        return self.lost_packets > 0

    @property
    def max_owd(self) -> Optional[float]:
        """Largest observed one-way delay, or None if all packets lost."""
        return max(self.owds) if self.owds else None


def probe_record(
    slot: int,
    send_time: float,
    n_packets: int,
    send_stamps: Mapping[SeqKey, float],
    arrivals: Mapping[SeqKey, float],
    unit: float = 1.0,
) -> ProbeRecord:
    """The record of the train sent in ``slot``, from its send and arrival logs.

    A packet with no arrival is lost; every arrival has a send stamp. A
    delivery's one-way delay is ``(arrival − send stamp) / unit``: 1e9
    turns nanosecond stamps into seconds, and the default 1.0 leaves
    seconds bit for bit. ``owd_before_loss`` is the delay of the last
    delivery before the train's first loss, §6.1's estimate of OWD_max.
    """
    owds: List[float] = []
    owd_before_loss: Optional[float] = None
    for index in range(n_packets):
        key = (slot, index)
        arrival = arrivals.get(key)
        if arrival is not None:
            owds.append((arrival - send_stamps[key]) / unit)
        elif owds and len(owds) == index:
            # First loss, after at least one delivery.
            owd_before_loss = owds[-1]
    return ProbeRecord(slot, send_time, n_packets, tuple(owds), owd_before_loss)


@dataclass(frozen=True)
class ExperimentOutcome:
    """The paper's y_i: per-slot congestion bits for one experiment."""

    start_slot: int
    bits: Tuple[int, ...]

    def __post_init__(self) -> None:
        # One dict lookup accepts every legal tuple. The type test comes
        # first: a list is unhashable, and hash() of an outcome must work.
        bits = self.bits
        if not isinstance(bits, tuple):
            raise ConfigurationError(
                f"bits must be a tuple, got {type(bits).__name__}"
            )
        try:
            if bits in _PATTERN_STRINGS:
                return
        except TypeError:  # a tuple holding something unhashable
            pass
        if len(bits) not in (2, 3):
            raise ConfigurationError(f"experiments span 2 or 3 slots, got {len(bits)}")
        raise ConfigurationError(f"bits must be 0/1, got {bits}")

    @property
    def is_basic(self) -> bool:
        return len(self.bits) == 2

    @property
    def is_extended(self) -> bool:
        return len(self.bits) == 3

    @property
    def as_string(self) -> str:
        """The y_i notation used throughout §5, e.g. ``"01"`` or ``"110"``."""
        return _PATTERN_STRINGS[self.bits]

    @property
    def first_bit(self) -> int:
        """z_i, the input to the frequency estimator."""
        return self.bits[0]


@dataclass(frozen=True)
class CoverageReport:
    """How much of a planned measurement produced usable data.

    Degraded runs (duplicated/reordered/partially lost logs, collector
    outages, truncated simulations) can leave scheduled slots with no
    probe record; the estimators then work from fewer experiments than
    planned. This report quantifies the gap so consumers can weight or
    reject estimates from thin data instead of silently trusting them.
    """

    scheduled_slots: int
    usable_slots: int
    scheduled_experiments: int
    usable_experiments: int

    def __post_init__(self) -> None:
        if self.scheduled_slots < 0 or self.scheduled_experiments < 0:
            raise ConfigurationError("scheduled counts must be non-negative")
        if not 0 <= self.usable_slots <= self.scheduled_slots:
            raise ConfigurationError(
                f"usable_slots must be in [0, {self.scheduled_slots}], "
                f"got {self.usable_slots}"
            )
        if not 0 <= self.usable_experiments <= self.scheduled_experiments:
            raise ConfigurationError(
                f"usable_experiments must be in [0, {self.scheduled_experiments}], "
                f"got {self.usable_experiments}"
            )

    @property
    def slot_fraction(self) -> float:
        """Slots with usable data / scheduled slots (1.0 when none planned)."""
        if self.scheduled_slots == 0:
            return 1.0
        return self.usable_slots / self.scheduled_slots

    @property
    def experiment_fraction(self) -> float:
        """Usable experiments / scheduled experiments (1.0 when none planned)."""
        if self.scheduled_experiments == 0:
            return 1.0
        return self.usable_experiments / self.scheduled_experiments

    @property
    def complete(self) -> bool:
        """True when nothing scheduled went unobserved."""
        return (
            self.usable_slots == self.scheduled_slots
            and self.usable_experiments == self.scheduled_experiments
        )

    def describe(self) -> str:
        """Human-readable one-liner for logs and error messages."""
        return (
            f"coverage {self.slot_fraction:.1%} "
            f"({self.usable_slots}/{self.scheduled_slots} slots, "
            f"{self.usable_experiments}/{self.scheduled_experiments} experiments)"
        )


@dataclass
class MeasurementLog:
    """Everything one BADABING run produced, for estimation and debugging."""

    slot_width: float
    n_slots: int
    probes: List[ProbeRecord] = field(default_factory=list)
    outcomes: List[ExperimentOutcome] = field(default_factory=list)
    #: Slots whose probes were entirely lost *and* had no delay info; kept
    #: for diagnostics (they are still marked congested — loss is loss).
    blind_slots: int = 0
