"""Deterministic receiver-side impairment for live loopback runs.

A loopback run (`repro live loopback`) sends real UDP datagrams over
127.0.0.1, where the kernel essentially never loses anything — useless
for exercising the estimators. This shim sits *inside* the reflector's
datagram handler and decides, per probe packet, whether to pretend the
packet was lost on the forward path, reusing the declarative
:class:`~repro.net.faults.FaultProfile` vocabulary (uncorrelated drops,
Gilbert bursts, collector outage windows).

Unlike the simulator's :class:`~repro.net.faults.FaultInjector`, the
uncorrelated Bernoulli decision here is a *pure function* of
``(seed, slot, packet index)`` — a keyed hash, not a consumed RNG
stream — so it is independent of arrival order (UDP may reorder even on
loopback) and tests can replay the exact realized drop pattern to
compute the true loss rate the estimator should recover.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from random import Random
from typing import Dict, Optional, Union

from repro.net.faults import FaultProfile, FaultStats, resolve_fault_profile

_HASH_DENOM = float(1 << 64)


def bernoulli_drop(seed: int, slot: int, index: int, probability: float) -> bool:
    """Order-independent seeded drop decision for one probe packet.

    Maps ``blake2b(seed:slot:index)`` onto [0, 1) and compares against
    ``probability``. Stable across processes and Python versions
    (independent of ``PYTHONHASHSEED``), so a test that knows the seed
    can enumerate exactly which packets a run dropped.
    """
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    digest = hashlib.blake2b(
        f"{seed}:{slot}:{index}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / _HASH_DENOM < probability


@dataclass
class ReceiverImpairment:
    """Per-session forward-path loss emulation at the reflector.

    ``drop(slot, index, elapsed)`` returns True when the probe packet
    should be treated as lost. ``elapsed`` is seconds since the session
    started, checked against the profile's (relative) outage windows.
    Gilbert bursts consume a seeded RNG stream keyed per *probe* (slot),
    so the chain state is arrival-order independent at probe granularity.
    """

    profile: FaultProfile
    seed: int
    stats: FaultStats = field(default_factory=FaultStats)

    def __post_init__(self) -> None:
        self._burst_state: Dict[int, bool] = {}
        self._gilbert_rng = Random(self.seed ^ 0x9E3779B97F4A7C15)
        self._last_gilbert_slot: Optional[int] = None

    def drop(self, slot: int, index: int, elapsed: float) -> bool:
        profile = self.profile
        if any(start <= elapsed < end for start, end in profile.outage_windows):
            self.stats.dropped_outage += 1
            return True
        if profile.gilbert_enabled and self._gilbert_drop(slot):
            self.stats.dropped_burst += 1
            return True
        if bernoulli_drop(self.seed, slot, index, profile.drop_probability):
            self.stats.dropped_random += 1
            return True
        self.stats.delivered += 1
        return False

    def _gilbert_drop(self, slot: int) -> bool:
        """Advance the two-state chain once per new slot, then sample."""
        in_burst = self._burst_state.get(slot)
        if in_burst is None:
            if self._last_gilbert_slot is None:
                in_burst = False
            else:
                in_burst = self._burst_state[self._last_gilbert_slot]
                if in_burst:
                    if self._gilbert_rng.random() < self.profile.gilbert_g:
                        in_burst = False
                elif self._gilbert_rng.random() < self.profile.gilbert_b:
                    in_burst = True
            self._burst_state[slot] = in_burst
            self._last_gilbert_slot = slot
        return bool(in_burst) and self._gilbert_rng.random() < self.profile.gilbert_drop


def build_impairment(
    faults: Optional[Union[str, FaultProfile]], seed: int
) -> Optional[ReceiverImpairment]:
    """Resolve a profile name/object into a shim; None when no-op.

    Link-level impairments the reflector cannot emulate receiver-side
    (reordering delay, duplication lag, flapping) are ignored here — only
    the loss processes and outage windows apply. Real reordering and
    duplication still happen naturally on the UDP path.
    """
    profile = resolve_fault_profile(faults)
    if profile is None:
        return None
    lossy = FaultProfile(
        drop_probability=profile.drop_probability,
        gilbert_b=profile.gilbert_b,
        gilbert_g=profile.gilbert_g,
        gilbert_drop=profile.gilbert_drop,
        outage_windows=profile.outage_windows,
    )
    if lossy.is_noop:
        return None
    return ReceiverImpairment(profile=lossy, seed=seed)
