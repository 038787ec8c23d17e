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

:class:`MarkerState` holds the first pass, resumable, and pass 2's delay
test: :class:`CongestionMarker`, the live monitor and the batch marker all
fold through it, so the rule is written once.
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


class MarkerState:
    """Pass 1 of the §6.1 rule, resumable, and pass 2's delay test.

    Holds the bounded OWD_max history, the last delivered OWD, the times of
    the losses that count and the threshold ``(1 − alpha) ×
    aggregate(history)`` (None while the history is empty). OWDs are kept
    as the records carry them and read as ``raw − shift``, the value a
    record rebased by ``shift`` carries, so a new shift (:meth:`rebase`)
    costs one pass over the history.
    """

    def __init__(self, config: MarkingConfig):
        self.config = config
        self.history: Deque[float] = deque(maxlen=config.owd_history)
        self.last_owd: Optional[float] = None
        self.loss_times: List[float] = []
        self.shift = 0.0
        self.threshold: Optional[float] = None
        #: The state this one was forked from; its losses count in pass 2.
        self._origin: Optional[MarkerState] = None

    def rebase(self, shift: float) -> None:
        """Read every OWD as ``raw − shift`` from now on."""
        self.shift = shift
        self._set_threshold()

    def fork(self) -> MarkerState:
        """A copy that starts its own loss times and reads this state's in
        :meth:`delayed`: it costs the history, not the session."""
        fork = MarkerState(self.config)
        fork.history.extend(self.history)
        fork.last_owd = self.last_owd
        fork.shift = self.shift
        fork.threshold = self.threshold
        fork._origin = self
        return fork

    def lose(
        self,
        send_time: float,
        max_owd: Optional[float],
        owd_before_loss: Optional[float],
    ) -> bool:
        """Fold one lossy probe; True when it is judged end-host noise.

        With ``filter_uncorrelated_losses``, a loss whose delay evidence (its
        largest delivered OWD, else the OWD before the loss) sits below the
        threshold is end-host/NIC noise, not a full queue (§6.1's "filters
        loss at end host operating system buffers", made explicit). Any
        other loss anchors the tau rule, and its OWD_max estimate (the OWD
        before the loss, else :attr:`last_owd`) enters the history.
        """
        evidence = max_owd if max_owd is not None else owd_before_loss
        if (
            self.config.filter_uncorrelated_losses
            and self.threshold is not None
            and evidence is not None
            and evidence - self.shift < self.threshold
        ):
            return True
        self.loss_times.append(send_time)
        estimate = owd_before_loss if owd_before_loss is not None else self.last_owd
        if estimate is not None:
            self.history.append(estimate)
            self._set_threshold()
        return False

    def fold(
        self,
        records: Sequence[ProbeRecord],
        thresholds: Optional[List[Optional[float]]] = None,
        noise: Optional[List[bool]] = None,
    ) -> None:
        """Pass 1 over ``records``; appends each record's threshold after it
        and its noise verdict to the lists, when given, for pass 2."""
        for record in records:
            is_noise = record.lost and self.lose(
                record.send_time, record.max_owd, record.owd_before_loss
            )
            if thresholds is not None:
                thresholds.append(self.threshold)
                noise.append(is_noise)
            if record.owds:
                self.last_owd = record.owds[-1]

    def delayed(self, record: ProbeRecord, threshold: Optional[float]) -> bool:
        """Pass 2's delay test: the record's largest OWD exceeds its pass-1
        ``threshold`` and it was sent within tau of a loss, before or after
        it. The rule looks both ways, so a record from before the first
        OWD_max estimate takes the end-of-stream threshold: ask the state
        that folded the whole stream."""
        if threshold is None:
            threshold = self.threshold
        max_owd = record.max_owd
        return (
            threshold is not None
            and max_owd is not None
            and max_owd - self.shift > threshold
            and self._near_loss(record.send_time)
        )

    def _near_loss(self, time: float) -> bool:
        if self.loss_times and (
            _nearest_distance(self.loss_times, time) <= self.config.tau
        ):
            return True
        return self._origin is not None and self._origin._near_loss(time)

    def _set_threshold(self) -> None:
        if self.history:
            shift = self.shift
            self.threshold = (1.0 - self.config.alpha) * _aggregate(
                [owd - shift for owd in self.history], self.config.owd_statistic
            )


class CongestionMarker:
    """Applies the §6.1 marking rule to a chronological probe stream."""

    def __init__(self, config: Optional[MarkingConfig] = None):
        self.config = config if config is not None else MarkingConfig()

    def mark(self, probes: Sequence[ProbeRecord]) -> MarkingResult:
        """Mark every probe; returns per-slot states keyed by slot index.

        ``probes`` must be sorted by send time. A slot probed more than
        once keeps its last probe's state; each probe counts on its own.
        """
        with _profiling.profile_stage("marking.apply", n_probes=len(probes)):
            return self._mark(probes)

    def _mark(self, probes: Sequence[ProbeRecord]) -> MarkingResult:
        for i in range(1, len(probes)):
            if probes[i].send_time < probes[i - 1].send_time:
                raise ConfigurationError("probes must be sorted by send time")

        state = MarkerState(self.config)
        thresholds: List[Optional[float]] = []
        noise: List[bool] = []
        state.fold(probes, thresholds, noise)

        result = MarkingResult(slot_states={}, owd_max_estimates=list(state.history))
        for probe, threshold, is_noise in zip(probes, thresholds, noise):
            if is_noise:
                # A loss judged end-host noise falls through to the delay
                # rule like any other probe (its surviving packets still
                # carry delay evidence).
                result.noise_losses += 1
            elif probe.lost:
                result.slot_states[probe.slot] = True
                result.marked_by_loss += 1
                continue
            congested = state.delayed(probe, threshold)
            if congested:
                result.marked_by_delay += 1
            result.slot_states[probe.slot] = congested
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
