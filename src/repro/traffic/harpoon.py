"""Harpoon-like web traffic.

The paper's third traffic scenario used the Harpoon traffic generator [31]
configured so that self-similar, web-like workload bursts pushed the
bottleneck into loss roughly every 20 seconds. The essential properties the
loss-measurement experiments depend on are: heavy-tailed transfer sizes,
ON/OFF session structure, fluctuating flow counts, and occasional load
surges that produce *variable-duration* loss episodes — exactly what makes
episode delineation hard (§4, Fig. 6, Tables 3 and 6).

:class:`HarpoonWebTraffic` reproduces that with three ingredients on top of
the TCP model:

* Poisson session arrivals; each session performs a geometric number of
  file transfers with exponential think times between them,
* Pareto-distributed file sizes (shape ~1.2, the classic web heavy tail),
* a surge process: at exponentially spaced epochs (paper: mean ~20 s) a
  batch of simultaneous large transfers starts, briefly exceeding the
  bottleneck capacity.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ConfigurationError
from repro.net.node import Host
from repro.net.simulator import Simulator
from repro.traffic.tcp import TcpSender, start_tcp_flow


class HarpoonWebTraffic:
    """Self-configuring web-like background traffic with load surges.

    Parameters
    ----------
    sim:
        The simulator.
    senders, receivers:
        Pools of hosts; each transfer picks a random sender/receiver pair.
    session_rate:
        Poisson arrival rate of browsing sessions (sessions/second). This
        sets the *base* load; keep it below the bottleneck's capacity.
    mean_files_per_session:
        Geometric mean of transfers per session.
    mean_think_time:
        Mean exponential gap between a session's transfers.
    pareto_shape, min_file_bytes:
        Heavy-tailed file size distribution parameters.
    surge_interval_mean:
        Mean gap between load surges (paper: loss roughly every 20 s).
        Set to 0 to disable surges.
    surge_flows, surge_file_bytes:
        Number and size of the simultaneous transfers in each surge.
    mss, rwnd:
        TCP parameters for the generated flows.
    """

    def __init__(
        self,
        sim: Simulator,
        senders: Sequence[Host],
        receivers: Sequence[Host],
        session_rate: float = 2.0,
        mean_files_per_session: float = 5.0,
        mean_think_time: float = 0.5,
        pareto_shape: float = 1.2,
        min_file_bytes: int = 12_000,
        max_file_bytes: int = 3_000_000,
        surge_interval_mean: float = 20.0,
        surge_flows: int = 6,
        surge_file_bytes: int = 400_000,
        mss: int = 1500,
        rwnd: int = 64,
        start: float = 0.0,
        rng_label: str = "harpoon",
    ):
        if not senders or not receivers:
            raise ConfigurationError("need at least one sender and one receiver")
        # `not x > ...` also rejects NaN; an infinite session rate draws
        # zero inter-arrival gaps, so simulated time would never advance.
        if not (session_rate > 0 and math.isfinite(session_rate)):
            raise ConfigurationError(
                f"session_rate must be positive and finite: {session_rate}"
            )
        if not pareto_shape > 1.0:
            raise ConfigurationError(
                "pareto_shape must exceed 1 so mean file size is finite"
            )
        self.sim = sim
        self.senders = list(senders)
        self.receivers = list(receivers)
        self.session_rate = session_rate
        self.mean_files_per_session = mean_files_per_session
        self.mean_think_time = mean_think_time
        self.pareto_shape = pareto_shape
        self.min_file_bytes = min_file_bytes
        self.max_file_bytes = max_file_bytes
        self.surge_interval_mean = surge_interval_mean
        self.surge_flows = surge_flows
        self.surge_file_bytes = surge_file_bytes
        self.mss = mss
        self.rwnd = rwnd
        self.rng = sim.rng(rng_label)

        self.sessions_started = 0
        self.transfers_started = 0
        self.transfers_completed = 0
        self.bytes_offered = 0
        self.surges = 0
        self.active_flows = 0
        self._stopped = False

        sim.schedule_at(max(start, sim.now), self._next_session)
        if surge_interval_mean > 0:
            sim.schedule_at(
                max(start, sim.now) + self.rng.expovariate(1.0 / surge_interval_mean),
                self._surge,
            )

    # ------------------------------------------------------------- generation
    def stop(self) -> None:
        """Stop launching new sessions/surges (running flows drain)."""
        self._stopped = True

    def _next_session(self) -> None:
        if self._stopped:
            return
        self.sim.schedule(self.rng.expovariate(self.session_rate), self._next_session)
        self.sessions_started += 1
        n_files = max(1, int(self.rng.expovariate(1.0 / self.mean_files_per_session)) + 1)
        self._session_transfer(n_files)

    def _session_transfer(self, remaining: int) -> None:
        if self._stopped or remaining <= 0:
            return
        size = self._draw_file_size()
        self._start_transfer(size)
        think = self.rng.expovariate(1.0 / self.mean_think_time)
        self.sim.schedule(think, self._session_transfer, remaining - 1)

    def _surge(self) -> None:
        if self._stopped:
            return
        self.surges += 1
        for _ in range(self.surge_flows):
            self._start_transfer(self.surge_file_bytes)
        self.sim.schedule(
            self.rng.expovariate(1.0 / self.surge_interval_mean), self._surge
        )

    def _draw_file_size(self) -> int:
        # Pareto via inverse CDF, truncated to keep single transfers from
        # dominating an entire (scaled) experiment.
        u = self.rng.random()
        size = int(self.min_file_bytes / (u ** (1.0 / self.pareto_shape)))
        return min(size, self.max_file_bytes)

    def _start_transfer(self, size_bytes: int) -> None:
        sender = self.rng.choice(self.senders)
        receiver = self.rng.choice(self.receivers)
        segments = max(1, (size_bytes + self.mss - 1) // self.mss)
        self.transfers_started += 1
        self.bytes_offered += size_bytes
        self.active_flows += 1
        start_tcp_flow(
            self.sim,
            sender,
            receiver,
            total_segments=segments,
            mss=self.mss,
            rwnd=self.rwnd,
            on_complete=self._on_flow_done,
        )

    def _on_flow_done(self, sender: TcpSender) -> None:
        self.transfers_completed += 1
        self.active_flows -= 1

    # -------------------------------------------------------------- reporting
    @property
    def mean_offered_load_bps(self) -> float:
        """Rough offered load so far (bytes offered / elapsed time)."""
        if self.sim.now <= 0:
            return 0.0
        return self.bytes_offered * 8 / self.sim.now
