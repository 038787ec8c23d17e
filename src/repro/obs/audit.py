"""Accuracy audit: join simulator ground truth to probe observations.

The paper's contribution is *accuracy* — how close BADABING's F̂/D̂ land
to the true loss-episode process and when the §5.4 validation says the
estimates are trustworthy. This module observes exactly that quantity:

* **Episode audit** — for every true
  :class:`~repro.analysis.episodes.LossEpisode` at the bottleneck, which
  scheduled probe slots landed inside it and whether the §6.1 marking
  flagged any of them. Each episode is classified ``detected`` (a probed
  slot inside it was marked congested), ``partially_sampled`` (probes
  landed inside it but none was marked — the probes passed through without
  witnessing the congestion), or ``missed`` (no probe landed inside it at
  all), with per-episode sampling coverage and a duration-attribution
  breakdown.
* **Convergence telemetry** — the cumulative F̂(t)/D̂(t) trajectory (via
  :func:`~repro.core.streaming.convergence_points`), its relative error
  against ground truth, and the live
  :class:`~repro.core.validation.SequentialValidator` signals, exported as
  deterministic registry series by :func:`publish_audit`.
* **Scorecard** — :class:`AccuracyScorecard` rows aggregating per-run (and
  per-sweep-cell) audits into the |F̂−F|/F, |D̂−D|/D, recall, and
  validation-verdict table an evaluation reads first.

Everything recorded here is simulation-domain, so two runs with the same
seed export byte-identical audit documents (this is tested). The audit is
built only when the run's registry is enabled; under
:class:`~repro.obs.metrics.NullRegistry` no audit work happens at all.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.episodes import LossEpisode, episode_slot_range
from repro.core.streaming import ConvergencePoint, convergence_points
from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry

#: Schema identifier of exported audit documents.
AUDIT_SCHEMA = "repro.obs.audit/1"

EPISODE_DETECTED = "detected"
EPISODE_PARTIAL = "partially_sampled"
EPISODE_MISSED = "missed"
EPISODE_STATUSES = (EPISODE_DETECTED, EPISODE_PARTIAL, EPISODE_MISSED)

#: Buckets (seconds) for the missed-episode-duration histogram: episodes
#: shorter than a slot up to multi-second outages.
MISSED_DURATION_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0)

#: Buckets for per-episode sampling coverage (a fraction in [0, 1]).
COVERAGE_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0)

#: Exported convergence trajectories are decimated to at most this many
#: points (deterministically: a fixed stride over the outcome sequence).
MAX_CONVERGENCE_POINTS = 512


def _clean(value: Optional[float]) -> Optional[float]:
    """nan/inf → None so audit documents stay strict JSON."""
    if value is None or not math.isfinite(value):
        return None
    return value


def relative_error(estimated: float, true: float) -> Optional[float]:
    """|est − true| / true, or None when undefined (true == 0 or est nan)."""
    if true == 0 or not math.isfinite(estimated) or not math.isfinite(true):
        return None
    return abs(estimated - true) / abs(true)


# ---------------------------------------------------------------------------
# Episode audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpisodeAudit:
    """One true loss episode joined against the probe process.

    Slot indices are relative to the measurement start (clamped to the
    measurement window), matching the probe schedule's slot grid.
    """

    start: float
    end: float
    drops: int
    first_slot: int
    last_slot: int
    #: Slots of this episode the schedule actually probed.
    probed_slots: int
    #: Probed slots the §6.1 marking flagged as congested.
    congested_slots: int
    status: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def n_slots(self) -> int:
        return self.last_slot - self.first_slot + 1

    @property
    def sampling_coverage(self) -> float:
        """Fraction of the episode's slots a probe landed in."""
        return self.probed_slots / self.n_slots

    def to_dict(self) -> Dict[str, Any]:
        return {
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "drops": self.drops,
            "first_slot": self.first_slot,
            "last_slot": self.last_slot,
            "probed_slots": self.probed_slots,
            "congested_slots": self.congested_slots,
            "sampling_coverage": self.sampling_coverage,
            "status": self.status,
        }


def audit_episodes(
    episodes: Sequence[LossEpisode],
    probe_slots: Sequence[int],
    slot_states: Dict[int, bool],
    origin: float,
    slot_width: float,
    n_slots: int,
) -> List[EpisodeAudit]:
    """Classify every true episode by how the probe process saw it.

    Parameters
    ----------
    episodes:
        Ground-truth episodes in absolute simulation time (as found in
        :class:`~repro.experiments.runner.GroundTruth`).
    probe_slots:
        Sorted slot indices the schedule covered with a probe.
    slot_states:
        Marking output: probed slot -> congestion indication.
    origin:
        Absolute time of slot 0 (the measurement start).
    slot_width / n_slots:
        The slot grid (episode slots are clamped to ``[0, n_slots - 1]``).
    """
    ordered = sorted(probe_slots)
    audits: List[EpisodeAudit] = []
    for episode in episodes:
        first, last = episode_slot_range(episode, origin, slot_width)
        first = max(first, 0)
        last = min(last, n_slots - 1)
        if last < first:
            # The episode grazes the window edge without overlapping any
            # in-window slot; nothing could have sampled it.
            first = last = max(0, min(first, n_slots - 1))
        lo = bisect_left(ordered, first)
        hi = bisect_right(ordered, last)
        inside = ordered[lo:hi]
        congested = sum(1 for slot in inside if slot_states.get(slot))
        if not inside:
            status = EPISODE_MISSED
        elif congested:
            status = EPISODE_DETECTED
        else:
            status = EPISODE_PARTIAL
        audits.append(
            EpisodeAudit(
                start=episode.start,
                end=episode.end,
                drops=episode.drops,
                first_slot=first,
                last_slot=last,
                probed_slots=len(inside),
                congested_slots=congested,
                status=status,
            )
        )
    return audits


# ---------------------------------------------------------------------------
# Per-run audit
# ---------------------------------------------------------------------------

@dataclass
class RunAudit:
    """Estimate-vs-truth accounting for one finished measurement."""

    tool: str
    slot_width: float
    window: Tuple[float, float]
    true_frequency: float
    est_frequency: float
    true_duration_seconds: float
    #: nan when the estimator saw no transitions.
    est_duration_seconds: float
    episodes: List[EpisodeAudit] = field(default_factory=list)
    convergence: List[ConvergencePoint] = field(default_factory=list)
    #: §5.4 verdicts (acceptable, violation rate, asymmetries, stop/abort).
    validation: Dict[str, Any] = field(default_factory=dict)
    #: Plan-vs-observed slot accounting of a degraded run (None = complete).
    coverage: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------- derived
    @property
    def frequency_rel_error(self) -> Optional[float]:
        return relative_error(self.est_frequency, self.true_frequency)

    @property
    def duration_rel_error(self) -> Optional[float]:
        return relative_error(self.est_duration_seconds, self.true_duration_seconds)

    @property
    def n_episodes(self) -> int:
        return len(self.episodes)

    @property
    def episode_counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in EPISODE_STATUSES}
        for episode in self.episodes:
            counts[episode.status] += 1
        return counts

    @property
    def episode_recall(self) -> Optional[float]:
        """Detected episodes / true episodes (None when truth had none)."""
        if not self.episodes:
            return None
        return self.episode_counts[EPISODE_DETECTED] / len(self.episodes)

    @property
    def duration_by_status(self) -> Dict[str, float]:
        """True episode seconds attributed to each detection status."""
        totals = {status: 0.0 for status in EPISODE_STATUSES}
        for episode in self.episodes:
            totals[episode.status] += episode.duration
        return totals

    @property
    def mean_sampling_coverage(self) -> Optional[float]:
        if not self.episodes:
            return None
        return sum(e.sampling_coverage for e in self.episodes) / len(self.episodes)

    # -------------------------------------------------------------- export
    def to_dict(self) -> Dict[str, Any]:
        convergence: Dict[str, List[Any]] = {
            "t": [],
            "n_experiments": [],
            "f_hat": [],
            "f_rel_error": [],
            "d_hat_seconds": [],
            "d_rel_error": [],
            "violation_rate": [],
            "transition_asymmetry": [],
            "estimated_relative_error": [],
            "should_stop": [],
            "should_abort": [],
        }
        for point in self.convergence:
            d_hat = (
                None
                if point.duration_slots is None
                else point.duration_slots * self.slot_width
            )
            convergence["t"].append((point.end_slot + 1) * self.slot_width)
            convergence["n_experiments"].append(point.n_experiments)
            convergence["f_hat"].append(_clean(point.frequency))
            convergence["f_rel_error"].append(
                relative_error(point.frequency, self.true_frequency)
            )
            convergence["d_hat_seconds"].append(_clean(d_hat))
            convergence["d_rel_error"].append(
                None
                if d_hat is None
                else relative_error(d_hat, self.true_duration_seconds)
            )
            convergence["violation_rate"].append(point.violation_rate)
            convergence["transition_asymmetry"].append(point.transition_asymmetry)
            convergence["estimated_relative_error"].append(
                _clean(point.estimated_relative_error)
            )
            convergence["should_stop"].append(point.should_stop)
            convergence["should_abort"].append(point.should_abort)
        return {
            "tool": self.tool,
            "slot_width": self.slot_width,
            "window": list(self.window),
            "frequency": {
                "true": self.true_frequency,
                "estimated": self.est_frequency,
                "rel_error": self.frequency_rel_error,
            },
            "duration_seconds": {
                "true": self.true_duration_seconds,
                "estimated": _clean(self.est_duration_seconds),
                "rel_error": self.duration_rel_error,
            },
            "episode_audit": {
                "n_episodes": self.n_episodes,
                "counts": self.episode_counts,
                "recall": self.episode_recall,
                "duration_by_status": self.duration_by_status,
                "mean_sampling_coverage": self.mean_sampling_coverage,
                "episodes": [episode.to_dict() for episode in self.episodes],
            },
            "validation": dict(self.validation),
            "coverage": self.coverage,
            "convergence": convergence,
        }


def audit_run(
    result: Any,
    truth: Any,
    schedule: Any,
    start: float,
    tool: str = "badabing",
) -> RunAudit:
    """Build the full accuracy audit for one finished BADABING run.

    ``result`` is a :class:`~repro.core.result.BadabingResult` (anything
    with the same attributes works), ``truth`` a
    :class:`~repro.experiments.runner.GroundTruth`, and ``schedule`` the
    :class:`~repro.core.schedule.GeometricSchedule` the tool ran.
    """
    slot_width = result.slot_width
    outcomes = result.outcomes
    every = max(1, -(-len(outcomes) // MAX_CONVERGENCE_POINTS))
    convergence = convergence_points(
        outcomes, improved=result.estimate.improved, every=every
    )
    episodes = audit_episodes(
        truth.episodes,
        schedule.probe_slots,
        result.marking.slot_states,
        origin=start,
        slot_width=slot_width,
        n_slots=truth.n_slots,
    )
    report = result.validation
    last = convergence[-1] if convergence else None
    validation = {
        "n_experiments": report.n_experiments,
        "transitions": report.transition_count,
        "violations": report.violations,
        "violation_rate": report.violation_rate,
        "transition_asymmetry": report.transition_asymmetry,
        "extended_pair_asymmetry": report.extended_pair_asymmetry,
        "extended_gap_asymmetry": report.extended_gap_asymmetry,
        "acceptable": report.is_acceptable(),
        "should_stop": bool(last.should_stop) if last else False,
        "should_abort": bool(last.should_abort) if last else False,
    }
    coverage = result.coverage
    coverage_dict = (
        None
        if coverage is None
        else {
            "scheduled_slots": coverage.scheduled_slots,
            "usable_slots": coverage.usable_slots,
            "scheduled_experiments": coverage.scheduled_experiments,
            "usable_experiments": coverage.usable_experiments,
            "slot_fraction": coverage.slot_fraction,
            "complete": coverage.complete,
        }
    )
    return RunAudit(
        tool=tool,
        slot_width=slot_width,
        window=tuple(truth.window),
        true_frequency=truth.frequency,
        est_frequency=result.frequency,
        true_duration_seconds=truth.duration_mean,
        est_duration_seconds=result.duration_seconds,
        episodes=episodes,
        convergence=convergence,
        validation=validation,
        coverage=coverage_dict,
    )


def publish_audit(
    metrics: MetricsRegistry, audit: RunAudit, start: float = 0.0
) -> None:
    """Export an audit's aggregates and convergence series to a registry.

    Series times are absolute simulation seconds (``start`` + the point's
    in-measurement time), so sweep cells sharing one registry stay
    distinguishable by their label. Everything appended here is
    simulation-domain — same-seed runs export identical series.
    """
    if not metrics.enabled:
        return
    tool = audit.tool
    counts = audit.episode_counts
    for status in EPISODE_STATUSES:
        metrics.counter("audit.episodes", tool=tool, status=status).inc(
            counts[status]
        )
    missed_hist = metrics.histogram(
        "audit.missed_episode_duration_seconds",
        buckets=MISSED_DURATION_BUCKETS,
        tool=tool,
    )
    coverage_hist = metrics.histogram(
        "audit.episode_sampling_coverage",
        buckets=COVERAGE_BUCKETS,
        tool=tool,
    )
    for episode in audit.episodes:
        coverage_hist.observe(episode.sampling_coverage)
        if episode.status == EPISODE_MISSED:
            missed_hist.observe(episode.duration)
    recall = audit.episode_recall
    if recall is not None:
        metrics.gauge("audit.episode_recall", tool=tool).set(recall)
    if audit.frequency_rel_error is not None:
        metrics.gauge("audit.frequency_rel_error", tool=tool).set(
            audit.frequency_rel_error
        )
    if audit.duration_rel_error is not None:
        metrics.gauge("audit.duration_rel_error", tool=tool).set(
            audit.duration_rel_error
        )

    f_series = metrics.series("audit.f_hat", tool=tool)
    f_err_series = metrics.series("audit.f_rel_error", tool=tool)
    d_series = metrics.series("audit.d_hat_seconds", tool=tool)
    viol_series = metrics.series("audit.violation_rate", tool=tool)
    asym_series = metrics.series("audit.transition_asymmetry", tool=tool)
    err_series = metrics.series("audit.estimated_relative_error", tool=tool)
    stop_counter = metrics.counter("audit.validator_stop_transitions", tool=tool)
    abort_counter = metrics.counter("audit.validator_abort_transitions", tool=tool)
    was_stop = was_abort = False
    for point in audit.convergence:
        t = start + (point.end_slot + 1) * audit.slot_width
        f_series.append(t, point.frequency)
        f_err = relative_error(point.frequency, audit.true_frequency)
        if f_err is not None:
            f_err_series.append(t, f_err)
        if point.duration_slots is not None:
            d_series.append(t, point.duration_slots * audit.slot_width)
        viol_series.append(t, point.violation_rate)
        asym_series.append(t, point.transition_asymmetry)
        if point.estimated_relative_error is not None:
            err_series.append(t, point.estimated_relative_error)
        if point.should_stop and not was_stop:
            stop_counter.inc()
        if point.should_abort and not was_abort:
            abort_counter.inc()
        was_stop, was_abort = point.should_stop, point.should_abort


# ---------------------------------------------------------------------------
# Scorecard
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScorecardRow:
    """One run (or sweep cell) in the estimator scorecard."""

    label: str
    ok: bool
    seed: Optional[int] = None
    true_frequency: Optional[float] = None
    est_frequency: Optional[float] = None
    frequency_rel_error: Optional[float] = None
    true_duration_seconds: Optional[float] = None
    est_duration_seconds: Optional[float] = None
    duration_rel_error: Optional[float] = None
    n_episodes: int = 0
    detected: int = 0
    partially_sampled: int = 0
    missed: int = 0
    episode_recall: Optional[float] = None
    acceptable: Optional[bool] = None
    should_stop: Optional[bool] = None
    should_abort: Optional[bool] = None
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "ok": self.ok,
            "seed": self.seed,
            "true_frequency": _clean(self.true_frequency),
            "est_frequency": _clean(self.est_frequency),
            "frequency_rel_error": _clean(self.frequency_rel_error),
            "true_duration_seconds": _clean(self.true_duration_seconds),
            "est_duration_seconds": _clean(self.est_duration_seconds),
            "duration_rel_error": _clean(self.duration_rel_error),
            "n_episodes": self.n_episodes,
            "detected": self.detected,
            "partially_sampled": self.partially_sampled,
            "missed": self.missed,
            "episode_recall": _clean(self.episode_recall),
            "acceptable": self.acceptable,
            "should_stop": self.should_stop,
            "should_abort": self.should_abort,
            "error": self.error,
        }


def row_from_audit(
    label: str, audit: RunAudit, seed: Optional[int] = None
) -> ScorecardRow:
    counts = audit.episode_counts
    return ScorecardRow(
        label=label,
        ok=True,
        seed=seed,
        true_frequency=audit.true_frequency,
        est_frequency=audit.est_frequency,
        frequency_rel_error=audit.frequency_rel_error,
        true_duration_seconds=audit.true_duration_seconds,
        est_duration_seconds=_clean(audit.est_duration_seconds),
        duration_rel_error=audit.duration_rel_error,
        n_episodes=audit.n_episodes,
        detected=counts[EPISODE_DETECTED],
        partially_sampled=counts[EPISODE_PARTIAL],
        missed=counts[EPISODE_MISSED],
        episode_recall=audit.episode_recall,
        acceptable=audit.validation.get("acceptable"),
        should_stop=audit.validation.get("should_stop"),
        should_abort=audit.validation.get("should_abort"),
    )


@dataclass
class AccuracyScorecard:
    """Aggregate view over one or many audited runs."""

    rows: List[ScorecardRow] = field(default_factory=list)

    @property
    def n_runs(self) -> int:
        return len(self.rows)

    @property
    def n_ok(self) -> int:
        return sum(1 for row in self.rows if row.ok)

    @property
    def n_acceptable(self) -> int:
        return sum(1 for row in self.rows if row.acceptable)

    def _mean(self, values: Iterable[Optional[float]]) -> Optional[float]:
        present = [value for value in values if value is not None]
        if not present:
            return None
        return sum(present) / len(present)

    @property
    def mean_frequency_rel_error(self) -> Optional[float]:
        return self._mean(row.frequency_rel_error for row in self.rows)

    @property
    def worst_frequency_rel_error(self) -> Optional[float]:
        present = [
            row.frequency_rel_error
            for row in self.rows
            if row.frequency_rel_error is not None
        ]
        return max(present) if present else None

    @property
    def mean_duration_rel_error(self) -> Optional[float]:
        return self._mean(row.duration_rel_error for row in self.rows)

    @property
    def mean_episode_recall(self) -> Optional[float]:
        return self._mean(row.episode_recall for row in self.rows)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_runs": self.n_runs,
            "n_ok": self.n_ok,
            "n_acceptable": self.n_acceptable,
            "mean_frequency_rel_error": _clean(self.mean_frequency_rel_error),
            "worst_frequency_rel_error": _clean(self.worst_frequency_rel_error),
            "mean_duration_rel_error": _clean(self.mean_duration_rel_error),
            "mean_episode_recall": _clean(self.mean_episode_recall),
            "rows": [row.to_dict() for row in self.rows],
        }


def scorecard_from_runs(
    entries: Iterable[Tuple[str, Optional[RunAudit], Optional[str], Optional[int]]],
) -> AccuracyScorecard:
    """Assemble a scorecard from ``(label, audit, error, seed)`` entries.

    ``audit`` is None for failed (or unaudited) runs; ``error`` carries the
    failure text so crashed sweep cells stay visible in the scorecard
    instead of silently shrinking the denominator.
    """
    rows: List[ScorecardRow] = []
    for label, audit, error, seed in entries:
        if audit is not None:
            rows.append(row_from_audit(label, audit, seed=seed))
        else:
            rows.append(ScorecardRow(label=label, ok=False, seed=seed, error=error))
    return AccuracyScorecard(rows=rows)


def scorecard_digest(scorecard: AccuracyScorecard) -> str:
    """Canonical sha256 hex digest of a scorecard's exported dict.

    The sweep engine's determinism contract is stated in terms of this
    digest: a parallel sweep over the same cells and seeds must produce a
    scorecard that digests identically to the serial run. Everything in a
    scorecard row is simulation-domain, so the digest is reproducible
    across processes and hosts.
    """
    import hashlib

    payload = json.dumps(
        scorecard.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def audit_document(
    scorecard: AccuracyScorecard, runs: Sequence[RunAudit] = ()
) -> Dict[str, Any]:
    """Assemble the exportable audit document (scorecard + per-run detail)."""
    return {
        "schema": AUDIT_SCHEMA,
        "scorecard": scorecard.to_dict(),
        "runs": [run.to_dict() for run in runs],
    }


def write_audit_document(path, document: Dict[str, Any]) -> Dict[str, Any]:
    """Write an audit document as JSON (strict: no NaN/Infinity)."""
    from repro.obs.artifacts import open_artifact

    try:
        payload = json.dumps(document, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ObservabilityError(f"audit document is not strict JSON: {exc}")
    with open_artifact(path, "audit document") as handle:
        handle.write(payload + "\n")
    return document
