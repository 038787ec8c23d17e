"""What one BADABING measurement produced, and the one path that builds it.

:func:`assemble_result` runs the §6.1 marking, the §5 estimators and the
§5.4 validation over a joined probe stream and returns a
:class:`BadabingResult`. The simulated tool
(:class:`repro.core.badabing.BadabingTool`) and the live runtime
(:mod:`repro.live`) both end here, and offline re-estimation
(:mod:`repro.io`) returns the same result type. This module imports
nothing from :mod:`repro.net` or :mod:`repro.traffic`, so the live and
offline paths load no simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.config import BadabingConfig
from repro.core.estimators import LossEstimate, estimate_from_outcomes
from repro.core.marking import CongestionMarker, MarkingResult
from repro.core.records import CoverageReport, ExperimentOutcome, ProbeRecord
from repro.core.schedule import GeometricSchedule
from repro.core.validation import ValidationReport, validate_outcomes
from repro.obs.tracing import trace_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.audit import RunAudit
    from repro.obs.manifest import RunManifest
    from repro.obs.tracing import Tracer


@dataclass
class BadabingResult:
    """Everything one measurement produced."""

    estimate: LossEstimate
    validation: ValidationReport
    marking: MarkingResult
    probes: List[ProbeRecord]
    outcomes: List[ExperimentOutcome]
    n_probes_sent: int
    probe_load_bps: float
    slot_width: float
    #: Plan-vs-observed accounting (how degraded the measurement was).
    coverage: Optional[CoverageReport] = None
    #: Receiver-side duplicate arrivals discarded during the log join.
    duplicate_arrivals: int = 0
    #: Provenance + timing record (filled in by the experiment runner).
    manifest: Optional["RunManifest"] = None
    #: Accuracy audit against ground truth (filled in by the experiment
    #: runner when the run's metrics registry is enabled).
    audit: Optional["RunAudit"] = None

    @property
    def frequency(self) -> float:
        """Estimated congestion frequency F̂."""
        return self.estimate.frequency

    @property
    def duration_seconds(self) -> float:
        """Estimated mean loss-episode duration D̂ in seconds (may be nan)."""
        return self.estimate.duration_seconds(self.slot_width)

    @property
    def lost_probe_packets(self) -> int:
        return sum(probe.lost_packets for probe in self.probes)


def filter_blackouts(
    probes: List[ProbeRecord],
    blackout_windows: Optional[List[Tuple[float, float]]],
) -> List[ProbeRecord]:
    """Drop probes sent inside known collector-outage windows."""
    if not blackout_windows:
        return probes
    return [
        probe
        for probe in probes
        if not any(
            start <= probe.send_time < end for start, end in blackout_windows
        )
    ]


def assemble_result(
    schedule: GeometricSchedule,
    probes: List[ProbeRecord],
    config: BadabingConfig,
    marker: Optional[CongestionMarker] = None,
    blackout_windows: Optional[List[Tuple[float, float]]] = None,
    duplicate_arrivals: int = 0,
    tracer: Optional["Tracer"] = None,
) -> BadabingResult:
    """Marking + estimation + validation over a joined probe stream.

    This is THE estimator path: both measurement backends — the simulator
    (:class:`~repro.core.badabing.BadabingTool`) and the live asyncio runtime
    (:mod:`repro.live`) — funnel their probe records through this one
    function, so estimator/validator behaviour cannot fork between them.
    ``probes`` must be sorted by send time; ``blackout_windows`` lists
    ``(start, end)`` send-time intervals during which the collector is
    known to have been down — probes inside them are excluded (degrading
    coverage) rather than mistaken for total loss.
    """
    probes = filter_blackouts(probes, blackout_windows)
    if marker is None:
        marker = CongestionMarker(config.marking)
    with trace_span(tracer, "probe.mark", n_probes=len(probes)):
        marked = marker.mark(probes)
    outcomes = schedule.outcomes_from_states(marked.slot_states)
    coverage = schedule.coverage_from_states(marked.slot_states)
    with trace_span(tracer, "probe.estimate"):
        estimate = estimate_from_outcomes(
            outcomes, improved=config.improved, coverage=coverage
        )
    with trace_span(tracer, "probe.validate"):
        validation = validate_outcomes(outcomes, coverage=coverage)
    return BadabingResult(
        estimate=estimate,
        validation=validation,
        marking=marked,
        probes=probes,
        outcomes=outcomes,
        n_probes_sent=schedule.n_probes,
        probe_load_bps=schedule.probe_load_bps(
            config.probe.packets_per_probe, config.probe.probe_size, config.probe.slot
        ),
        slot_width=config.probe.slot,
        coverage=coverage,
        duplicate_arrivals=duplicate_arrivals,
    )
