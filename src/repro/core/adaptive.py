"""Open-ended ("adaptive") measurement mode (§5.1, §7).

§5.1 allows a full experiment to be terminated "in an open-ended adaptive
fashion, e.g., until estimates of desired accuracy for a congestion
characteristic have been obtained, or until such accuracy is determined
impossible"; §7 recommends exactly this at low probe rates, where impact
on the path is negligible but a fixed N may be too short.

:class:`AdaptiveMeasurement` packages that workflow: it owns a
:class:`~repro.core.badabing.BadabingTool` provisioned for a maximum
duration, advances the simulation in chunks, feeds new experiment outcomes
to a :class:`~repro.core.validation.SequentialValidator`, and stops as
soon as the validator declares the estimate robust (or hopeless).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import BadabingConfig, MarkingConfig, ProbeConfig
from repro.core.badabing import BadabingTool
from repro.core.result import BadabingResult
from repro.core.validation import SequentialValidator
from repro.errors import ConfigurationError
from repro.net.node import Host
from repro.net.simulator import Simulator


@dataclass
class AdaptiveOutcome:
    """What an adaptive measurement concluded."""

    result: BadabingResult
    elapsed: float
    chunks: int
    #: "converged" | "aborted" | "exhausted"
    reason: str

    @property
    def trustworthy(self) -> bool:
        return self.reason == "converged"


class AdaptiveMeasurement:
    """Run BADABING until the §5.4 validator is satisfied.

    Parameters
    ----------
    sim, sender_host, receiver_host:
        Simulator and probe endpoints (traffic must already be attached to
        the simulator; this class drives the event loop).
    p:
        Per-slot experiment probability (typically small: the use case is
        low-impact monitoring).
    chunk_seconds:
        How much simulated time to advance between validator checks.
    max_seconds:
        Hard cap on total probing time.
    validator:
        Stopping policy; defaults to a 25%-relative-error target.
    """

    #: Drain margin before each mid-run estimate so in-flight packets are
    #: not miscounted as lost.
    DRAIN = 2.0

    def __init__(
        self,
        sim: Simulator,
        sender_host: Host,
        receiver_host: Host,
        p: float = 0.1,
        chunk_seconds: float = 30.0,
        max_seconds: float = 3600.0,
        start: float = 0.0,
        probe: Optional[ProbeConfig] = None,
        marking: Optional[MarkingConfig] = None,
        validator: Optional[SequentialValidator] = None,
        improved: bool = False,
    ):
        if chunk_seconds <= 0 or max_seconds < chunk_seconds:
            raise ConfigurationError(
                "need 0 < chunk_seconds <= max_seconds "
                f"(got {chunk_seconds}, {max_seconds})"
            )
        probe_cfg = probe if probe is not None else ProbeConfig()
        n_slots = int(max_seconds / probe_cfg.slot)
        config_kwargs = dict(
            probe=probe_cfg, p=p, n_slots=n_slots, improved=improved
        )
        if marking is not None:
            config_kwargs["marking"] = marking
        self.config = BadabingConfig(**config_kwargs)
        self.sim = sim
        self.start = start
        self.chunk_seconds = chunk_seconds
        self.max_seconds = max_seconds
        self.tool = BadabingTool(
            sim, sender_host, receiver_host, self.config, start=start
        )
        self.validator = (
            validator if validator is not None else SequentialValidator()
        )
        #: (elapsed, transitions, relative error) after each chunk.
        self.progress: List[tuple] = []

    def run(self) -> AdaptiveOutcome:
        """Advance the simulation chunk by chunk until a verdict."""
        seen = 0
        chunks = 0
        elapsed = 0.0
        reason = "exhausted"
        result = None
        while elapsed < self.max_seconds:
            elapsed = min(elapsed + self.chunk_seconds, self.max_seconds)
            chunks += 1
            self.sim.run(until=self.start + elapsed + self.DRAIN)
            result = self.tool.result()
            self.validator.extend(result.outcomes[seen:])
            seen = len(result.outcomes)
            error = self.validator.estimated_relative_error()
            self.progress.append(
                (elapsed, self.validator.report.transition_count, error)
            )
            if self.validator.should_stop():
                reason = "converged"
                break
            if self.validator.should_abort():
                reason = "aborted"
                break
        assert result is not None  # max_seconds >= chunk_seconds
        return AdaptiveOutcome(
            result=result, elapsed=elapsed, chunks=chunks, reason=reason
        )
