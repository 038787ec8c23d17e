"""Deterministic fault injection for the network substrate.

The paper's testbed only misbehaves in one way — the bottleneck queue
drops packets — but real measurement deployments also see path noise that
has nothing to do with congestion: uncorrelated and bursty loss on other
segments, reordering, duplication, links that flap, and collectors that
crash and restart mid-measurement. This module injects exactly those
impairments into the simulator so every estimator and consumer can be
validated against degraded inputs.

Design rules
------------
* **Composable** — one :class:`FaultProfile` switches any subset of the
  impairments on; a :class:`FaultInjector` realizes the profile on a
  specific :class:`~repro.net.link.Link` (drop / reorder / duplicate /
  flap) or :class:`~repro.net.node.Host` (receiver outage windows).
* **Deterministic** — all randomness comes from a named
  :meth:`~repro.net.simulator.Simulator.rng` stream keyed by the
  injector's label, so two runs with the same seed and profile are
  bit-identical, and *adding* an injector never perturbs the random
  streams of existing components.
* **Zero-cost when disabled** — a no-op profile draws no random numbers
  and schedules through the exact same code path as an unfaulted link,
  so the clean-path reproduction stays bit-identical to the seed.

Bursty loss uses the Gilbert two-state Markov chain from
:mod:`repro.synthetic.gilbert`, applied at packet granularity: a packet
finds the chain in the *burst* state with stationary probability
``b/(b+g)`` and is then dropped with ``gilbert_drop``; sojourn lengths
are geometric with means ``1/g`` (burst) and ``1/b`` (clear) packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import FaultInjectionError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    # The profile catalog stays importable without the simulator (the CLI
    # offers its names), and link imports this module.
    from repro.net.link import Link
    from repro.net.node import Host
    from repro.net.packet import Packet
    from repro.net.simulator import Simulator


@dataclass(frozen=True)
class FaultProfile:
    """A declarative bundle of impairments. All default to "off".

    Attributes
    ----------
    drop_probability:
        Per-packet uncorrelated drop probability (Bernoulli loss).
    gilbert_b, gilbert_g:
        Per-packet transition probabilities of the Gilbert chain:
        ``b`` = P(clear -> burst), ``g`` = P(burst -> clear). Both must be
        set (> 0) to enable bursty loss.
    gilbert_drop:
        Drop probability while the chain is in the burst state.
    reorder_probability:
        Probability a packet is held back by an extra delay, letting
        later packets overtake it (classic reordering).
    reorder_delay, reorder_jitter:
        The hold-back is ``reorder_delay`` plus ``U(0, reorder_jitter)``.
    duplicate_probability:
        Probability a delivered packet is delivered a second time.
    duplicate_lag:
        Extra delay of the duplicate copy relative to the original.
    flap_down, flap_up:
        Link flapping: the link cycles down for ``flap_down`` seconds then
        up for ``flap_up`` seconds, starting (down-first) at
        ``flap_start``. Packets finishing transmission while down vanish.
        Both must be > 0 to enable flapping.
    flap_start:
        Absolute simulation time of the first down transition.
    outage_windows:
        Host-side collector outages: ``((start, end), ...)`` absolute-time
        windows during which a faulted Host silently discards local
        deliveries — a crashed-and-restarted receiver process.
    """

    drop_probability: float = 0.0
    gilbert_b: float = 0.0
    gilbert_g: float = 0.0
    gilbert_drop: float = 0.5
    reorder_probability: float = 0.0
    reorder_delay: float = 0.0
    reorder_jitter: float = 0.0
    duplicate_probability: float = 0.0
    duplicate_lag: float = 0.0005
    flap_down: float = 0.0
    flap_up: float = 0.0
    flap_start: float = 0.0
    outage_windows: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "drop_probability",
            "gilbert_b",
            "gilbert_g",
            "gilbert_drop",
            "reorder_probability",
            "duplicate_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultInjectionError(f"{name} must be in [0, 1], got {value}")
        for name in (
            "reorder_delay",
            "reorder_jitter",
            "duplicate_lag",
            "flap_down",
            "flap_up",
            "flap_start",
        ):
            value = getattr(self, name)
            if not value >= 0:  # also rejects NaN
                raise FaultInjectionError(f"{name} must be >= 0, got {value}")
        if (self.gilbert_b > 0) != (self.gilbert_g > 0):
            raise FaultInjectionError(
                "gilbert_b and gilbert_g must be enabled together "
                f"(got b={self.gilbert_b}, g={self.gilbert_g})"
            )
        if (self.flap_down > 0) != (self.flap_up > 0):
            raise FaultInjectionError(
                "flap_down and flap_up must be enabled together "
                f"(got down={self.flap_down}, up={self.flap_up})"
            )
        # normalize so equality / no-op detection is well defined
        windows = tuple(tuple(window) for window in self.outage_windows)
        for window in windows:
            if len(window) != 2 or not window[0] <= window[1]:
                raise FaultInjectionError(
                    f"outage windows are (start, end) with start <= end: {window}"
                )
        object.__setattr__(self, "outage_windows", windows)

    # ------------------------------------------------------------- predicates
    @property
    def gilbert_enabled(self) -> bool:
        return self.gilbert_b > 0 and self.gilbert_g > 0

    @property
    def flapping_enabled(self) -> bool:
        return self.flap_down > 0 and self.flap_up > 0

    @property
    def is_noop(self) -> bool:
        """True when the profile injects nothing at all."""
        return (
            self.drop_probability == 0
            and not self.gilbert_enabled
            and self.reorder_probability == 0
            and self.duplicate_probability == 0
            and not self.flapping_enabled
            and not self.outage_windows
        )

    @property
    def needs_rng(self) -> bool:
        """True when realizing the profile requires random draws."""
        return (
            self.drop_probability > 0
            or self.gilbert_enabled
            or self.reorder_probability > 0
            or self.duplicate_probability > 0
        )

    def shifted(self, offset: float) -> "FaultProfile":
        """Profile with all absolute times moved ``offset`` seconds later.

        Lets callers author windows relative to the measurement start and
        anchor them once the warmup length is known.
        """
        return replace(
            self,
            flap_start=self.flap_start + offset,
            outage_windows=tuple(
                (start + offset, end + offset) for start, end in self.outage_windows
            ),
        )


#: Named profiles usable from the CLI / runner (``--faults mild`` etc.).
#: Times are relative to the measurement start; the runner anchors them.
FAULT_PROFILES: Dict[str, FaultProfile] = {
    "none": FaultProfile(),
    "mild": FaultProfile(
        drop_probability=0.001,
        reorder_probability=0.005,
        reorder_delay=0.002,
        reorder_jitter=0.004,
        duplicate_probability=0.002,
    ),
    "reorder": FaultProfile(
        reorder_probability=0.05, reorder_delay=0.004, reorder_jitter=0.006
    ),
    "duplicate": FaultProfile(duplicate_probability=0.05),
    "bursty": FaultProfile(gilbert_b=0.002, gilbert_g=0.05, gilbert_drop=0.5),
    # Aggressive Gilbert chain (~17% of slots bad, 80% drop when bad):
    # guarantees visible loss episodes even in sub-second sessions, so a
    # controller demo's lossy path stays unconverged while clean paths
    # finish — the budget-shift recipe in EXPERIMENTS.md relies on it.
    "heavy-loss": FaultProfile(gilbert_b=0.02, gilbert_g=0.1, gilbert_drop=0.8),
    "flaky-link": FaultProfile(flap_down=0.5, flap_up=15.0, flap_start=5.0),
    "outage": FaultProfile(outage_windows=((20.0, 25.0),)),
    "chaos": FaultProfile(
        drop_probability=0.002,
        gilbert_b=0.001,
        gilbert_g=0.05,
        gilbert_drop=0.5,
        reorder_probability=0.02,
        reorder_delay=0.003,
        reorder_jitter=0.005,
        duplicate_probability=0.01,
        flap_down=0.3,
        flap_up=20.0,
        flap_start=8.0,
        outage_windows=((40.0, 42.0),),
    ),
}


def resolve_fault_profile(
    faults: "Optional[str | FaultProfile]",
) -> Optional[FaultProfile]:
    """Accept a profile name, a profile object, or None; None for no-ops."""
    if faults is None:
        return None
    if isinstance(faults, str):
        profile = FAULT_PROFILES.get(faults)
        if profile is None:
            raise FaultInjectionError(
                f"unknown fault profile {faults!r}; choose from {sorted(FAULT_PROFILES)}"
            )
    elif isinstance(faults, FaultProfile):
        profile = faults
    else:
        raise FaultInjectionError(
            f"faults must be a profile name or FaultProfile, got {type(faults).__name__}"
        )
    return None if profile.is_noop else profile


@dataclass
class FaultStats:
    """Counters of what an injector actually did (for degraded-mode reports)."""

    delivered: int = 0
    dropped_random: int = 0
    dropped_burst: int = 0
    dropped_flap: int = 0
    dropped_outage: int = 0
    duplicated: int = 0
    reordered: int = 0

    @property
    def dropped(self) -> int:
        return (
            self.dropped_random
            + self.dropped_burst
            + self.dropped_flap
            + self.dropped_outage
        )

    @property
    def total_injected(self) -> int:
        return self.dropped + self.duplicated + self.reordered

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultInjector:
    """Realize a :class:`FaultProfile` on links and hosts.

    One injector may be attached to any number of links and hosts; they
    share the profile, the random stream, and the counters (a "path-level"
    chaos source). Attach a separate injector per link for independent
    per-link noise.
    """

    def __init__(self, sim: Simulator, profile: FaultProfile, label: str = "faults"):
        if not isinstance(profile, FaultProfile):
            raise FaultInjectionError(
                f"profile must be a FaultProfile, got {type(profile).__name__}"
            )
        self.sim = sim
        self.profile = profile
        self.label = label
        self.stats = FaultStats()
        # Only materialize the random stream when the profile needs it, so a
        # windows/flap-only injector stays draw-free and fully arithmetic.
        self._rng = sim.rng(f"faults-{label}") if profile.needs_rng else None
        self._in_burst = False
        # Injected drops are pushed per-(cause, protocol) so receiver-side
        # accounting can separate fault noise from congestion tail-drops;
        # aggregate stats are pulled from FaultStats at snapshot time.
        self._metrics = sim.metrics if sim.metrics.enabled else None
        if self._metrics is not None:
            self._metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry) -> None:
        for name, value in self.stats.as_dict().items():
            registry.counter(f"faults.{name}", injector=self.label).value = value

    def _count_drop(self, cause: str, packet: Packet) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "faults.drops",
                injector=self.label,
                cause=cause,
                protocol=packet.protocol,
            ).inc()

    # -------------------------------------------------------------- attaching
    def attach_to_link(self, link: "Link") -> "FaultInjector":
        """Install this injector on a link's delivery path."""
        link.set_fault_injector(self)
        return self

    def attach_to_host(self, host: "Host") -> "FaultInjector":
        """Install this injector as the host's inbound (collector) filter."""
        host.set_inbound_filter(self.admit)
        return self

    # ------------------------------------------------------------- link faults
    def link_down(self, now: float) -> bool:
        """Whether the flap schedule has the link down at ``now``."""
        profile = self.profile
        if not profile.flapping_enabled or now < profile.flap_start:
            return False
        cycle = profile.flap_down + profile.flap_up
        phase = (now - profile.flap_start) % cycle
        return phase < profile.flap_down

    def deliver(self, packet: Packet, receiver, delay: float) -> None:
        """Fault-aware replacement for a link's propagation scheduling.

        Called by :class:`~repro.net.link.Link` at end of serialization;
        decides whether/when/how often ``receiver(packet)`` fires.
        """
        profile = self.profile
        sim = self.sim
        if self.link_down(sim.now):
            self.stats.dropped_flap += 1
            self._count_drop("flap", packet)
            return
        rng = self._rng
        if rng is not None:
            if profile.gilbert_enabled:
                # Advance the two-state chain one step per packet, then
                # sample the state-dependent drop (Gilbert-Elliott).
                if self._in_burst:
                    if rng.random() < profile.gilbert_g:
                        self._in_burst = False
                else:
                    if rng.random() < profile.gilbert_b:
                        self._in_burst = True
                if self._in_burst and rng.random() < profile.gilbert_drop:
                    self.stats.dropped_burst += 1
                    self._count_drop("burst", packet)
                    return
            if profile.drop_probability > 0 and rng.random() < profile.drop_probability:
                self.stats.dropped_random += 1
                self._count_drop("random", packet)
                return
            extra = 0.0
            if (
                profile.reorder_probability > 0
                and rng.random() < profile.reorder_probability
            ):
                extra = profile.reorder_delay
                if profile.reorder_jitter > 0:
                    extra += rng.random() * profile.reorder_jitter
                if extra > 0:
                    self.stats.reordered += 1
            sim.schedule(delay + extra, receiver, packet)
            self.stats.delivered += 1
            if (
                profile.duplicate_probability > 0
                and rng.random() < profile.duplicate_probability
            ):
                self.stats.duplicated += 1
                sim.schedule(delay + extra + profile.duplicate_lag, receiver, packet)
        else:
            sim.schedule(delay, receiver, packet)
            self.stats.delivered += 1

    # ------------------------------------------------------------- host faults
    def in_outage(self, now: float) -> bool:
        """Whether ``now`` falls inside a collector outage window."""
        return any(start <= now < end for start, end in self.profile.outage_windows)

    def admit(self, packet: Packet) -> bool:
        """Inbound filter: False discards the local delivery (collector down)."""
        if self.in_outage(self.sim.now):
            self.stats.dropped_outage += 1
            self._count_drop("outage", packet)
            return False
        return True
