"""Constant-bit-rate traffic and engineered loss episodes.

The paper's §4/§6 CBR scenarios used (modified) Iperf to create loss episodes
of *known, constant* duration spaced at exponential intervals — the cleanest
possible ground truth. :class:`EpisodicCbrTraffic` reproduces that: between
episodes the bottleneck idles; at each exponentially spaced epoch the source
bursts above the bottleneck rate for exactly long enough to (a) fill the
buffer and then (b) keep it overflowing for the requested episode duration.

The burst arithmetic: with burst rate ``r`` and bottleneck rate ``B``, the
queue fills ``Q`` bytes in ``t_fill = 8 Q / (r - B)`` seconds; drops then
continue while the burst lasts, so a burst of ``t_fill + L`` produces a loss
episode of duration ``L``.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.net.node import Host
from repro.net.simulator import Simulator
from repro.traffic.base import ephemeral_port
from repro.traffic.udp import UdpSink, UdpSource
from repro.units import BITS_PER_BYTE


class CbrSource(UdpSource):
    """Alias of :class:`UdpSource` under its traffic-scenario name."""


class EpisodicCbrTraffic:
    """Engineered constant-duration loss episodes (modified-Iperf analogue).

    Parameters
    ----------
    sim, sender, receiver:
        Simulator and the end hosts to run between.
    bottleneck_bps:
        The bottleneck rate the bursts must exceed.
    buffer_bytes:
        Bottleneck queue capacity (used to compute the fill time).
    episode_durations:
        Loss-episode durations to draw from, uniformly at random (a single
        value reproduces Table 2/4; ``[0.05, 0.10, 0.15]`` reproduces
        Table 5).
    mean_spacing:
        Mean of the exponential gap between episode *starts* (paper: 10 s).
    overload_factor:
        Burst rate as a multiple of the bottleneck rate (paper-like default
        2.0, giving a ~50% drop probability during episodes — the behaviour
        behind Figure 7's CBR curve).
    packet_size:
        Burst packet size in bytes.
    rng_label:
        Simulator RNG stream label (determinism).
    """

    def __init__(
        self,
        sim: Simulator,
        sender: Host,
        receiver: Host,
        bottleneck_bps: float,
        buffer_bytes: int,
        episode_durations: Sequence[float] = (0.068,),
        mean_spacing: float = 10.0,
        overload_factor: float = 2.0,
        packet_size: int = 1500,
        start: float = 0.5,
        rng_label: str = "episodic-cbr",
    ):
        # `not x > ...` also rejects NaN; an infinite burst rate would send
        # every burst packet at one simulated instant.
        if not (overload_factor > 1.0 and math.isfinite(overload_factor)):
            raise ConfigurationError(
                "overload_factor must be finite and exceed 1.0 to cause loss: "
                f"{overload_factor}"
            )
        if not episode_durations or not all(d > 0 for d in episode_durations):
            raise ConfigurationError("episode durations must be positive")
        if not mean_spacing > 0:
            raise ConfigurationError("mean_spacing must be positive")
        self.sim = sim
        self.bottleneck_bps = bottleneck_bps
        self.buffer_bytes = buffer_bytes
        self.episode_durations = list(episode_durations)
        self.mean_spacing = mean_spacing
        self.burst_rate = overload_factor * bottleneck_bps
        self.rng = sim.rng(rng_label)
        port = ephemeral_port()
        self.sink = UdpSink(sim, receiver, port=port)
        self.source = CbrSource(
            sim,
            sender,
            receiver.name,
            rate_bps=0.0,
            packet_size=packet_size,
            dst_port=port,
            flow=f"cbr:{sender.name}->{receiver.name}",
        )
        #: (start_time, requested_loss_duration) of every burst scheduled.
        self.scheduled_episodes: List[tuple] = []
        sim.schedule_at(max(start, sim.now), self._schedule_next)

    @property
    def fill_time(self) -> float:
        """Time for the burst to fill the bottleneck buffer from empty."""
        return self.buffer_bytes * BITS_PER_BYTE / (self.burst_rate - self.bottleneck_bps)

    def _schedule_next(self) -> None:
        gap = self.rng.expovariate(1.0 / self.mean_spacing)
        self.sim.schedule(gap, self._begin_burst)

    def _begin_burst(self) -> None:
        loss_duration = self.rng.choice(self.episode_durations)
        burst_duration = self.fill_time + loss_duration
        self.scheduled_episodes.append((self.sim.now, loss_duration))
        self.source.set_rate(self.burst_rate)
        self.sim.schedule(burst_duration, self._end_burst)

    def _end_burst(self) -> None:
        self.source.set_rate(0.0)
        self._schedule_next()
