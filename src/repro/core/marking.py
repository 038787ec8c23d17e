"""Congestion marking from probe loss and one-way delay (§6.1).

A probe that loses a packet has certainly met congestion, but most packets
pass through a congested queue untouched, so loss alone under-detects.
BADABING therefore also marks a probe as congested when it is *near a loss
in time* and *delayed like a full queue*:

1. Whenever a probe loses a packet, the one-way delay of the most recent
   successfully transmitted packet estimates the maximum queue depth
   (``OWD_max``). A bounded history of such estimates is kept and averaged
   (which also filters end-host/NIC losses whose delays are uncorrelated
   with path congestion).
2. A probe is marked congested iff it lost a packet, **or** it lies within
   ``tau`` seconds of some probe that lost a packet *and* its own maximum
   one-way delay exceeds ``(1 − alpha) × mean(OWD_max)``.

This assumes FIFO queueing at the congestion point, as the paper notes.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Mapping, Optional, Sequence

from repro import profiling as _profiling
from repro.config import MarkingConfig
from repro.core.records import ProbeRecord
from repro.errors import ConfigurationError


@dataclass
class MarkingResult:
    """Per-slot congestion indications plus marking diagnostics."""

    #: probed slot -> congestion indication (the input to y_i assembly); a
    #: dict, or the read-only view :func:`repro.io.reestimate` returns.
    slot_states: Mapping[int, bool]
    #: How many probes were marked because of actual probe packet loss.
    marked_by_loss: int = 0
    #: How many probes were marked by the delay-proximity rule.
    marked_by_delay: int = 0
    #: Lossy probes reclassified as end-host noise (filter enabled only).
    noise_losses: int = 0
    #: The OWD_max estimates accumulated during the pass.
    owd_max_estimates: List[float] = field(default_factory=list)

    @property
    def marked(self) -> int:
        return self.marked_by_loss + self.marked_by_delay


def _aggregate(history: "Deque[float]", statistic: str) -> float:
    """Combine the OWD_max history into one value per the config."""
    if statistic == "mean":
        return sum(history) / len(history)
    if statistic == "max":
        return max(history)
    ordered = sorted(history)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


class CongestionMarker:
    """Applies the §6.1 marking rule to a chronological probe stream."""

    def __init__(self, config: Optional[MarkingConfig] = None):
        self.config = config if config is not None else MarkingConfig()

    def mark(self, probes: Sequence[ProbeRecord]) -> MarkingResult:
        """Mark every probe; returns per-slot states keyed by slot index.

        ``probes`` must be sorted by send time (one probe per slot).
        """
        with _profiling.profile_stage("marking.apply"):
            return self._mark(probes)

    def _mark(self, probes: Sequence[ProbeRecord]) -> MarkingResult:
        cfg = self.config
        for i in range(1, len(probes)):
            if probes[i].send_time < probes[i - 1].send_time:
                raise ConfigurationError("probes must be sorted by send time")

        # Pass 1: collect loss times and the running OWD_max estimates.
        loss_times: List[float] = []
        noise_loss_slots = set()
        history: Deque[float] = deque(maxlen=cfg.owd_history)
        #: Aggregated OWD_max threshold as of each probe, in probe order.
        thresholds: List[Optional[float]] = []
        last_success_owd: Optional[float] = None
        for probe in probes:
            if probe.lost:
                # Optionally classify the loss: a loss whose own delay
                # evidence sits well below the congestion threshold did not
                # come from a full queue — it is end-host/NIC noise and
                # must not anchor the tau rule or feed the threshold
                # history (§6.1's "filters loss at end host operating
                # system buffers", made explicit).
                current = (
                    (1.0 - cfg.alpha) * _aggregate(history, cfg.owd_statistic)
                    if history
                    else None
                )
                evidence = probe.max_owd
                if evidence is None:
                    evidence = probe.owd_before_loss
                is_noise = (
                    cfg.filter_uncorrelated_losses
                    and current is not None
                    and evidence is not None
                    and evidence < current
                )
                if is_noise:
                    noise_loss_slots.add(probe.slot)
                else:
                    loss_times.append(probe.send_time)
                    estimate = probe.owd_before_loss
                    if estimate is None:
                        # Fall back to the newest delivery seen anywhere
                        # before this loss (the sender/receiver join
                        # supplies owd_before_loss when it can be
                        # attributed precisely).
                        estimate = last_success_owd
                    if estimate is not None:
                        history.append(estimate)
            thresholds.append(
                (1.0 - cfg.alpha) * _aggregate(history, cfg.owd_statistic)
                if history
                else None
            )
            if probe.owds:
                last_success_owd = probe.owds[-1]

        # Probes that predate the first OWD_max estimate fall back to the
        # end-of-run mean: the tau rule is symmetric in time ("within tau
        # seconds of an indication of a lost packet" looks both ways), so
        # the delay threshold must be available on both sides too.
        final_threshold: Optional[float] = (
            (1.0 - cfg.alpha) * _aggregate(history, cfg.owd_statistic)
            if history
            else None
        )
        thresholds = [
            threshold if threshold is not None else final_threshold
            for threshold in thresholds
        ]

        # Pass 2: mark.
        result = MarkingResult(slot_states={})
        for probe, threshold in zip(probes, thresholds):
            if probe.lost and probe.slot not in noise_loss_slots:
                result.slot_states[probe.slot] = True
                result.marked_by_loss += 1
                continue
            if probe.slot in noise_loss_slots:
                # Reclassified end-host loss: fall through to the delay
                # rule like any other probe (its surviving packets still
                # carry delay evidence).
                result.noise_losses += 1
            congested = False
            if threshold is not None and loss_times:
                near_loss = _nearest_distance(loss_times, probe.send_time) <= cfg.tau
                max_owd = probe.max_owd
                if near_loss and max_owd is not None and max_owd > threshold:
                    congested = True
            if congested:
                result.marked_by_delay += 1
            result.slot_states[probe.slot] = congested
        result.owd_max_estimates = list(history)
        return result


def _nearest_distance(sorted_times: List[float], time: float) -> float:
    """Distance from ``time`` to the nearest element of ``sorted_times``."""
    index = bisect.bisect_left(sorted_times, time)
    best = float("inf")
    if index < len(sorted_times):
        best = sorted_times[index] - time
    if index > 0:
        best = min(best, time - sorted_times[index - 1])
    return best
