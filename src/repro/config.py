"""Configuration dataclasses shared across the library.

:class:`TestbedConfig` describes the dumbbell testbed replica (paper Fig. 3).
The defaults are the *scaled* testbed documented in DESIGN.md §2: bandwidths
are reduced ~13x relative to the paper's OC3 bottleneck so that pure-Python
simulation finishes in minutes, while everything expressed in *time* — the
100 ms bottleneck buffer, the 100 ms round-trip time, the 5 ms probe slot —
keeps the paper's values, preserving loss-episode dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.units import mbps, ms


@dataclass
class TestbedConfig:
    """Parameters of the dumbbell testbed replica.

    Attributes
    ----------
    bottleneck_bps:
        Bottleneck link rate (paper: OC3 155 Mb/s; scaled default 12 Mb/s).
    access_bps:
        Per-host access link rate (paper: GigE; scaled to 10x bottleneck).
    buffer_time:
        Bottleneck buffer depth in seconds of line rate (paper: ~100 ms).
    prop_delay:
        One-way propagation delay inserted on the bottleneck (paper: 50 ms
        per direction via a hardware emulator → 100 ms RTT).
    access_delay:
        One-way delay of each access link (small, non-zero).
    n_traffic_pairs:
        Number of traffic-generator host pairs hanging off the dumbbell.
    mtu:
        Full-size data packet in bytes (paper: 1500).
    red:
        Use a RED bottleneck queue instead of drop-tail (ablation only).
    """

    bottleneck_bps: float = mbps(12)
    access_bps: float = mbps(120)
    buffer_time: float = ms(100)
    prop_delay: float = ms(50)
    access_delay: float = ms(0.1)
    n_traffic_pairs: int = 4
    mtu: int = 1500
    red: bool = False

    def __post_init__(self) -> None:
        # NaN fails every ordered comparison, so `x <= 0` would let it
        # through; `not x > 0` and `not x >= 0` reject it.
        if not (self.bottleneck_bps > 0 and self.access_bps > 0):
            raise ConfigurationError("link rates must be positive")
        if self.access_bps < self.bottleneck_bps:
            raise ConfigurationError(
                "access links must be at least as fast as the bottleneck "
                "(otherwise loss moves off the bottleneck and ground truth "
                "instrumentation misses it)"
            )
        if not self.buffer_time > 0:
            raise ConfigurationError("buffer_time must be positive")
        for name in ("prop_delay", "access_delay"):
            value = getattr(self, name)
            if not value >= 0:
                raise ConfigurationError(f"{name} must be non-negative, got {value}")
        if self.n_traffic_pairs < 1:
            raise ConfigurationError("need at least one traffic pair")
        if self.mtu < 64:
            raise ConfigurationError(f"mtu too small: {self.mtu}")

    @property
    def buffer_bytes(self) -> int:
        """Bottleneck queue capacity in bytes (buffer_time x line rate)."""
        return int(self.buffer_time * self.bottleneck_bps / 8)

    @property
    def base_rtt(self) -> float:
        """Round-trip propagation time through the dumbbell (no queueing)."""
        # Forward: access + bottleneck + access; reverse the same.
        return 2 * (2 * self.access_delay + self.prop_delay)


@dataclass
class ProbeConfig:
    """Parameters shared by the probe tools (BADABING and baselines).

    Attributes
    ----------
    slot:
        Discretization interval in seconds (paper: 5 ms).
    probe_size:
        Size of each probe packet in bytes (paper: 600).
    packets_per_probe:
        Packets per probe "train" (paper: 3).
    intra_probe_gap:
        Back-to-back spacing of packets within a probe (paper: ~30 µs).
    """

    slot: float = ms(5)
    probe_size: int = 600
    packets_per_probe: int = 3
    intra_probe_gap: float = 30e-6

    def __post_init__(self) -> None:
        # As in TestbedConfig: `not x > 0` also rejects NaN. An infinite
        # slot would make every schedule time and slot count overflow.
        if not (self.slot > 0 and math.isfinite(self.slot)):
            raise ConfigurationError(
                f"slot must be positive and finite, got {self.slot}"
            )
        if not self.probe_size > 0:
            raise ConfigurationError(
                f"probe_size must be positive, got {self.probe_size}"
            )
        if not self.packets_per_probe >= 1:
            raise ConfigurationError("packets_per_probe must be >= 1")
        if not self.intra_probe_gap >= 0:
            raise ConfigurationError(
                f"intra_probe_gap must be non-negative, got {self.intra_probe_gap}"
            )
        if (self.packets_per_probe - 1) * self.intra_probe_gap >= self.slot:
            raise ConfigurationError(
                "probe train longer than a slot; increase slot or shrink train"
            )


@dataclass
class MarkingConfig:
    """§6.1 congestion-marking parameters.

    A probed slot is marked congested if any probe packet in it was lost, or
    if it falls within ``tau`` seconds of a slot with probe loss and its
    one-way delay exceeds ``(1 - alpha) * OWD_max`` (with OWD_max tracked
    from the delays of packets adjacent to losses, aggregated over the last
    ``owd_history`` estimates).

    ``owd_statistic`` selects the aggregate over the estimate history:

    * ``"mean"`` — the paper's choice (§6.1);
    * ``"median"`` — robust variant: end-host/NIC losses taken at normal
      delays produce low OWD_max estimates that drag a *mean* down until
      the threshold sits below the propagation floor, marking everything
      near a loss; the median shrugs them off (see the
      ``ablation_uncorrelated_loss`` benchmark);
    * ``"max"`` — most conservative threshold.
    """

    alpha: float = 0.1
    tau: float = ms(80)
    owd_history: int = 16
    owd_statistic: str = "mean"
    #: Reclassify losses whose own delay evidence is below the congestion
    #: threshold as end-host/NIC noise: they neither mark their slot nor
    #: anchor the tau rule. Off by default (paper behaviour).
    filter_uncorrelated_losses: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ConfigurationError(f"alpha must be in (0,1), got {self.alpha}")
        if not self.tau >= 0:  # also rejects NaN, which would disable the rule
            raise ConfigurationError(f"tau must be non-negative, got {self.tau}")
        if self.owd_history < 1:
            raise ConfigurationError("owd_history must be >= 1")
        if self.owd_statistic not in ("mean", "median", "max"):
            raise ConfigurationError(
                f"owd_statistic must be mean/median/max, got {self.owd_statistic!r}"
            )


@dataclass
class BadabingConfig:
    """Full BADABING tool configuration (§5 + §6)."""

    probe: ProbeConfig = field(default_factory=ProbeConfig)
    marking: MarkingConfig = field(default_factory=MarkingConfig)
    #: Per-slot probability of starting an experiment (paper's p).
    p: float = 0.3
    #: Total number of slots in the measurement (paper's N).
    n_slots: int = 180_000
    #: Use the §5.3 improved algorithm (extended 3-probe experiments w.p. 1/2).
    improved: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.p <= 1:
            raise ConfigurationError(f"p must be in (0,1], got {self.p}")
        if self.n_slots < 2:
            raise ConfigurationError("n_slots must be >= 2")

    @property
    def duration(self) -> float:
        """Wall-clock length of the measurement in seconds."""
        return self.n_slots * self.probe.slot
