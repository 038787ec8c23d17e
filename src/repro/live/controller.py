"""Adaptive fleet controller: convergence-driven probe-budget rebalancing.

The §5.4 validator tells one session when its loss estimates are
trustworthy; at fleet scale the interesting question is *where to spend
the next probe* across many paths. :class:`FleetController` owns a
roster of :class:`PathTarget` s (reflector endpoint + per-path config
template), a global probe budget measured in schedule slots, and a
deterministic rebalancing loop:

* :meth:`FleetController.step` is a synchronous, fake-clock-drivable
  decision function. Each call looks at every path's accumulated
  validator signals (F̂ / ΔF̂ / D̂, transition counts, violation rates —
  folded from each completed session's
  :class:`~repro.core.validation.ValidationReport`), weighs unconverged
  paths over converged ones under per-path floor/ceiling shares, and
  returns :class:`LaunchDirective` s telling the driver which sessions
  to start and how many slots each may spend. The asyncio glue lives in
  :mod:`repro.experiments.fleetrun`; the controller itself never touches
  a socket, which is what makes the rebalancing loop testable against a
  fake clock and benchmarkable at 50 paths without I/O.
* BUSY/RETRY_AFTER backpressure from the reflector's admission control
  is honored strictly: :meth:`FleetController.on_session_busy` refunds
  the launch's slots and arms a per-path deadline; :meth:`step` never
  re-launches that path before the advertised delay has fully elapsed.
* Every decision is recorded as a structured controller event
  (:data:`CONTROLLER_SCHEMA` NDJSON, checked by
  :func:`validate_controller_file` / ``obs validate --controller``).
* Each completed session's detached registry shard is retained keyed by
  ``(path, round)``. :meth:`FleetController.merged_registry` merges the
  shards in canonical roster/round order with ``path/session[round]``
  series labels, so the merged registry's digest is independent of the
  order sessions happened to complete — byte-identical to serially
  replaying the same final schedule (:meth:`FleetController.replay_digest`
  proves it against the chronological completion order).

``controller.*`` metrics land on the registry handed to the controller
(the export-facing registry a :class:`~repro.obs.export.TelemetryExporter`
monitors), never on the merged measurement registry, preserving the
determinism contract: measurement snapshots digest identically with and
without a controller attached.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import BadabingConfig
from repro.core.clock import MonotonicClock
from repro.core.validation import (
    DEFAULT_MAX_VIOLATION_RATE,
    ValidationReport,
    report_from_counter,
)
from repro.errors import ConfigurationError, ObservabilityError
from repro.net.simulator import _stable_seed
from repro.obs.artifacts import ensure_parent_dir
from repro.obs.metrics import MetricsRegistry, NullRegistry, snapshot_digest

#: Schema identifier carried by every controller event record.
CONTROLLER_SCHEMA = "repro.live.controller/1"

#: Event kinds a controller emits.
EVENT_KINDS = ("rebalance", "complete", "busy", "failure", "final")

#: Pattern-counter keys folded from each session's ValidationReport.
_PATTERN_KEYS = ("01", "10", "001", "100", "011", "110", "010", "101")


@dataclass(frozen=True)
class PathTarget:
    """One measured path: reflector endpoint + per-path session template.

    ``port == 0`` means "no reflector yet" — the loopback driver in
    :mod:`repro.experiments.fleetrun` spins a local fleet reflector with
    this path's ``faults`` profile and fills the bound port in. ``faults``
    is driver metadata (the deterministic loopback impairment); the
    controller itself never reads it.
    """

    name: str
    config: BadabingConfig
    host: str = "127.0.0.1"
    port: int = 0
    faults: Any = None

    def __post_init__(self) -> None:
        if not self.name or any(ch in self.name for ch in "/,={}"):
            raise ConfigurationError(
                f"path name {self.name!r} must be non-empty and free of '/,={{}}'"
                " (it becomes a shard label prefix)"
            )


@dataclass(frozen=True)
class ControllerPolicy:
    """Budget and convergence knobs for one controller run.

    Attributes
    ----------
    budget_slots:
        Global probe budget: total schedule slots the controller may
        spend across all paths and rounds.
    round_slots:
        Nominal per-path slots per rebalance round; each :meth:`step`
        splits a quantum of ``round_slots × n_paths`` across the
        launchable paths.
    min_session_slots:
        Floor on a launched session's length (a schedule needs enough
        slots to produce experiments at all).
    min_share / max_share:
        Per-path floor/ceiling on the share of each round's quantum.
    converged_weight:
        Relative weight of a converged path vs an unconverged one (1.0);
        converged paths keep a trickle of monitoring probes, unconverged
        paths get the rest.
    epsilon_f:
        ΔF̂ stability threshold: a path whose cumulative F̂ moved at most
        this much over its last completed round (with at least
        ``min_experiments`` experiments) counts as converged even when
        the §5.4 stopping rule cannot fire (e.g. a lossless path never
        observes a transition).
    min_experiments:
        Experiments required before the ΔF̂ rule may declare convergence.
    target_relative_error / max_asymmetry / min_transitions:
        The §5.4 stopping-rule thresholds (mirror
        :class:`~repro.core.validation.SequentialValidator`).
    max_concurrent_per_path:
        In-flight session cap per path.
    retry_fallback:
        RETRY_AFTER to assume when a BUSY carried no usable hint.
    """

    budget_slots: int = 6000
    round_slots: int = 200
    min_session_slots: int = 40
    min_share: float = 0.05
    max_share: float = 0.85
    converged_weight: float = 0.125
    epsilon_f: float = 0.002
    min_experiments: int = 40
    target_relative_error: float = 0.25
    max_asymmetry: float = 0.3
    min_transitions: int = 20
    max_concurrent_per_path: int = 1
    retry_fallback: float = 1.0

    def __post_init__(self) -> None:
        if self.budget_slots < self.min_session_slots:
            raise ConfigurationError(
                f"budget_slots={self.budget_slots} below "
                f"min_session_slots={self.min_session_slots}"
            )
        if self.min_session_slots < 2 or self.round_slots < self.min_session_slots:
            raise ConfigurationError(
                "need min_session_slots >= 2 and round_slots >= min_session_slots"
            )
        if not (0.0 < self.min_share <= self.max_share <= 1.0):
            raise ConfigurationError(
                f"need 0 < min_share <= max_share <= 1, got "
                f"{self.min_share}/{self.max_share}"
            )
        if not (0.0 < self.converged_weight <= 1.0):
            raise ConfigurationError(
                f"converged_weight must be in (0, 1], got {self.converged_weight}"
            )
        if self.epsilon_f < 0 or self.min_experiments < 1:
            raise ConfigurationError(
                "epsilon_f must be >= 0 and min_experiments >= 1"
            )
        if not (0.0 < self.target_relative_error <= 1.0) or self.min_transitions < 1:
            raise ConfigurationError(
                "need 0 < target_relative_error <= 1 and min_transitions >= 1"
            )
        if self.max_concurrent_per_path < 1 or self.retry_fallback <= 0:
            raise ConfigurationError(
                "max_concurrent_per_path must be >= 1 and retry_fallback > 0"
            )


@dataclass(frozen=True)
class LaunchDirective:
    """One session the driver should start on behalf of the controller."""

    path: str
    round_index: int
    n_slots: int
    seed: int
    host: str
    port: int
    config: BadabingConfig


@dataclass
class PathState:
    """Everything the controller knows about one path (mutable)."""

    target: PathTarget
    #: Cumulative §5.4 pattern counter folded from completed sessions.
    counter: Counter = field(default_factory=Counter)
    #: Accumulated Σ z_i (loss indicator sum), so F̂ = z_sum / M.
    z_sum: float = 0.0
    rounds_launched: int = 0
    rounds_completed: int = 0
    active: int = 0
    spent_slots: int = 0
    busy_deferrals: int = 0
    failures: int = 0
    #: Monitoring-probe credit a converged path accrues from global
    #: spend; a converged path launches only by drawing on it.
    monitor_credit: float = 0.0
    #: Earliest ns timestamp a new launch may target this path (BUSY).
    retry_until_ns: Optional[int] = None
    prev_f_hat: Optional[float] = None
    last_f_hat: Optional[float] = None
    #: Most recent session's D̂ (seconds); None before one is available.
    d_hat_seconds: Optional[float] = None
    #: Retained detached shards keyed by round index.
    shards: Dict[int, MetricsRegistry] = field(default_factory=dict)

    @property
    def delta_f(self) -> Optional[float]:
        if self.prev_f_hat is None or self.last_f_hat is None:
            return None
        return self.last_f_hat - self.prev_f_hat

    @property
    def report(self) -> ValidationReport:
        return report_from_counter(self.counter)


def _finite(value: Optional[float]) -> Optional[float]:
    """JSON-safe float: None for NaN/Inf (events must parse strictly)."""
    if value is None:
        return None
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        return None
    return value


def shard_label(path: str, round_index: int) -> str:
    """The standardized ``path/session[round]`` shard label."""
    return f"{path}/session[{round_index}]"


class ControllerEventWriter:
    """Append-only NDJSON event log, flushed per record."""

    def __init__(self, path):
        self.path = os.fspath(path)
        ensure_parent_dir(self.path, "controller events")
        try:
            self._handle = open(self.path, "w", encoding="utf-8")
        except OSError as exc:
            raise ObservabilityError(
                f"cannot write controller events {self.path}: {exc}"
            ) from exc

    def write(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            return
        self._handle.write(
            json.dumps(record, separators=(",", ":"), allow_nan=False) + "\n"
        )
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class FleetController:
    """Deterministic multi-path probe-budget rebalancer.

    Parameters
    ----------
    paths:
        Roster of :class:`PathTarget` s; roster order is decision order,
        so two controllers with the same roster, policy, seed, and fed
        the same completions make identical decisions.
    policy:
        Budget/convergence knobs.
    base_seed:
        Root of the deterministic per-launch seed derivation
        (``_stable_seed(base_seed, "ctl/<path>/<round>")``), so a
        controller run's sessions are byte-replayable.
    registry:
        Export-facing registry receiving ``controller.*`` instruments
        (never the merged measurement registry). Defaults to disabled.
    events_path:
        Optional NDJSON controller-event artifact
        (:data:`CONTROLLER_SCHEMA`).
    clock:
        ``now_ns()`` time source; injectable for fake-clock tests.
    """

    def __init__(
        self,
        paths: Sequence[PathTarget],
        policy: Optional[ControllerPolicy] = None,
        base_seed: int = 1,
        registry: Optional[MetricsRegistry] = None,
        events_path=None,
        clock=None,
    ):
        if not paths:
            raise ConfigurationError("controller needs at least one path")
        names = [target.name for target in paths]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate path names in roster: {names}")
        self.policy = policy if policy is not None else ControllerPolicy()
        self.base_seed = base_seed
        self.registry = registry if registry is not None else NullRegistry()
        self.clock = clock if clock is not None else MonotonicClock()
        self._paths: Dict[str, PathState] = {
            target.name: PathState(target=target) for target in paths
        }
        self.spent_slots = 0
        self.seq = 0
        self.events: List[Dict[str, Any]] = []
        self._start_ns = self.clock.now_ns()
        self._writer = (
            ControllerEventWriter(events_path) if events_path else None
        )
        self._finalized = False
        if self.registry.enabled:
            self.registry.gauge("controller.paths").set(float(len(self._paths)))

    # ----------------------------------------------------------------- helpers
    def _now(self, now_ns: Optional[int]) -> int:
        return self.clock.now_ns() if now_ns is None else now_ns

    def _state(self, path: str) -> PathState:
        state = self._paths.get(path)
        if state is None:
            raise ConfigurationError(f"unknown path {path!r} (roster: {sorted(self._paths)})")
        return state

    @property
    def remaining_slots(self) -> int:
        return max(0, self.policy.budget_slots - self.spent_slots)

    @property
    def paths(self) -> Tuple[str, ...]:
        return tuple(self._paths)

    def state_of(self, path: str) -> PathState:
        """Read-only-by-convention view of one path's state."""
        return self._state(path)

    # ------------------------------------------------------------- convergence
    def converged(self, path: str) -> bool:
        return self._converged(self._state(path))

    def _converged(self, state: PathState) -> bool:
        policy = self.policy
        report = state.report
        transitions = report.transition_count
        if transitions >= policy.min_transitions:
            error = 1.0 / math.sqrt(transitions)
            if error <= policy.target_relative_error and report.is_acceptable(
                max_asymmetry=policy.max_asymmetry,
                max_violation_rate=DEFAULT_MAX_VIOLATION_RATE,
                min_transitions=policy.min_transitions,
            ):
                return True
        delta = state.delta_f
        return (
            report.n_experiments >= policy.min_experiments
            and delta is not None
            and abs(delta) <= policy.epsilon_f
        )

    @property
    def all_converged(self) -> bool:
        return all(self._converged(state) for state in self._paths.values())

    @property
    def active_sessions(self) -> int:
        return sum(state.active for state in self._paths.values())

    @property
    def done(self) -> bool:
        """No further launches will ever be emitted (and none in flight)."""
        if self.active_sessions:
            return False
        return self.all_converged or self.remaining_slots < self.policy.min_session_slots

    def next_retry_in(self, now_ns: Optional[int] = None) -> Optional[float]:
        """Seconds until the soonest BUSY backoff expires (None if none)."""
        now = self._now(now_ns)
        waits = [
            (state.retry_until_ns - now) / 1e9
            for state in self._paths.values()
            if state.retry_until_ns is not None and state.retry_until_ns > now
        ]
        return min(waits) if waits else None

    def signals(self, path: str) -> Dict[str, Any]:
        """One path's validator-signal summary (as recorded in events)."""
        state = self._state(path)
        report = state.report
        transitions = report.transition_count
        return {
            "path": state.target.name,
            "f_hat": _finite(state.last_f_hat),
            "delta_f": _finite(state.delta_f),
            "d_hat_seconds": _finite(state.d_hat_seconds),
            "experiments": report.n_experiments,
            "transitions": transitions,
            "violations": report.violations,
            "violation_rate": _finite(report.violation_rate),
            "asymmetry": _finite(report.transition_asymmetry),
            "relative_error": _finite(
                1.0 / math.sqrt(transitions) if transitions else None
            ),
            "converged": self._converged(state),
            "monitor_credit": round(state.monitor_credit, 3),
            "rounds": state.rounds_completed,
            "active": state.active,
            "spent_slots": state.spent_slots,
            "busy_deferrals": state.busy_deferrals,
            "failures": state.failures,
        }

    # ----------------------------------------------------------------- events
    def _record(self, kind: str, now_ns: int, **fields: Any) -> Dict[str, Any]:
        self.seq += 1
        record = {
            "schema": CONTROLLER_SCHEMA,
            "seq": self.seq,
            "t": max(0.0, (now_ns - self._start_ns) / 1e9),
            "kind": kind,
            "remaining_slots": self.remaining_slots,
        }
        record.update(fields)
        self.events.append(record)
        if self._writer is not None:
            self._writer.write(record)
        if self.registry.enabled:
            self.registry.counter("controller.events", kind=kind).inc()
        return record

    # ------------------------------------------------------------ rebalancing
    def step(self, now_ns: Optional[int] = None) -> List[LaunchDirective]:
        """One deterministic rebalancing pass; returns sessions to launch.

        Reads every path's accumulated signals, allocates a quantum of
        ``round_slots × n_paths`` slots across the currently launchable
        paths (unconverged paths weighted ``1.0``, converged paths
        ``converged_weight``, shares clamped to
        ``[min_share, max_share]`` and renormalized), consumes the
        global budget, and records one ``rebalance`` event carrying the
        allocations plus every path's signal snapshot. Paths in BUSY
        backoff, at their concurrency cap, or starved by the exhausted
        budget are skipped. Returns ``[]`` when there is nothing to do.
        """
        now = self._now(now_ns)
        policy = self.policy
        if self._finalized or self.remaining_slots < policy.min_session_slots:
            return []
        if self.all_converged:
            return []
        # Shares are computed over the WHOLE roster — an unconverged path
        # mid-flight keeps its claim on the budget; an idle converged
        # path does not inherit it just because it happens to be the
        # only launchable one this pass.
        states = list(self._paths.values())
        converged = [self._converged(state) for state in states]
        weights = [
            policy.converged_weight if done else 1.0 for done in converged
        ]
        total = sum(weights)
        shares = [
            min(policy.max_share, max(policy.min_share, weight / total))
            for weight in weights
        ]
        norm = sum(shares)
        shares = [share / norm for share in shares]
        quantum = min(
            policy.round_slots * len(states), self.remaining_slots
        )
        launches: List[LaunchDirective] = []
        allocations: List[Dict[str, Any]] = []
        for state, share, done in zip(states, shares, converged):
            if state.active >= policy.max_concurrent_per_path:
                continue
            if state.retry_until_ns is not None:
                if now < state.retry_until_ns:
                    continue
                state.retry_until_ns = None
            if done:
                # Converged: a fixed-size monitoring check, paid from the
                # credit this path accrued out of everyone else's spend —
                # keeps drift detection alive without letting converged
                # paths soak up the budget between unconverged launches.
                if state.monitor_credit < policy.min_session_slots:
                    continue
                n_slots = policy.min_session_slots
            else:
                n_slots = max(
                    policy.min_session_slots, int(round(quantum * share))
                )
            n_slots = min(n_slots, self.remaining_slots)
            if n_slots < policy.min_session_slots:
                continue
            if done:
                state.monitor_credit -= n_slots
            round_index = state.rounds_launched
            seed = _stable_seed(
                self.base_seed, f"ctl/{state.target.name}/{round_index}"
            )
            directive = LaunchDirective(
                path=state.target.name,
                round_index=round_index,
                n_slots=n_slots,
                seed=seed,
                host=state.target.host,
                port=state.target.port,
                config=replace(state.target.config, n_slots=n_slots),
            )
            state.rounds_launched += 1
            state.active += 1
            state.spent_slots += n_slots
            self.spent_slots += n_slots
            launches.append(directive)
            allocations.append(
                {
                    "path": directive.path,
                    "round": round_index,
                    "slots": n_slots,
                    "seed": seed,
                    "share": round(share, 6),
                }
            )
        spent_this_step = sum(d.n_slots for d in launches)
        if spent_this_step:
            for state, share, done in zip(states, shares, converged):
                if done:
                    state.monitor_credit += share * spent_this_step
        if launches:
            self._record(
                "rebalance",
                now,
                allocations=allocations,
                quantum=quantum,
                signals=[self.signals(name) for name in self._paths],
            )
            if self.registry.enabled:
                self.registry.counter("controller.launches").value += len(launches)
                self.registry.counter("controller.slots_allocated").value += sum(
                    a["slots"] for a in allocations
                )
                self._sample_gauges()
        return launches

    def _sample_gauges(self) -> None:
        registry = self.registry
        registry.gauge("controller.remaining_slots").sample(
            float(self.remaining_slots)
        )
        registry.gauge("controller.paths_converged").sample(
            float(sum(1 for s in self._paths.values() if self._converged(s)))
        )
        registry.gauge("controller.active_sessions").sample(
            float(self.active_sessions)
        )

    # --------------------------------------------------------------- feedback
    def on_session_complete(
        self,
        path: str,
        round_index: int,
        frequency: Optional[float],
        validation: ValidationReport,
        duration_seconds: Optional[float] = None,
        shard: Optional[MetricsRegistry] = None,
        now_ns: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Fold one finished session's outcome into its path's state.

        ``frequency`` is the session's F̂ (NaN tolerated — skipped),
        ``validation`` its §5.4 report; both come straight off a
        :class:`~repro.core.result.BadabingResult`. ``shard`` is the
        session's detached metrics registry, retained for the canonical
        ``(path, round)``-ordered merge.
        """
        now = self._now(now_ns)
        state = self._state(path)
        state.active = max(0, state.active - 1)
        state.rounds_completed += 1
        m = validation.n_experiments
        state.counter["M"] += m
        for key, count in zip(
            _PATTERN_KEYS,
            (
                validation.n01, validation.n10, validation.n001,
                validation.n100, validation.n011, validation.n110,
                validation.n010, validation.n101,
            ),
        ):
            if count:
                state.counter[key] += count
        freq = _finite(frequency)
        if freq is not None and m:
            state.z_sum += freq * m
        total_m = state.counter.get("M", 0)
        state.prev_f_hat = state.last_f_hat
        state.last_f_hat = (state.z_sum / total_m) if total_m else None
        if _finite(duration_seconds) is not None:
            state.d_hat_seconds = float(duration_seconds)
        if shard is not None:
            state.shards[round_index] = shard
        if self.registry.enabled:
            self.registry.counter("controller.completions").inc()
            series_t = (now - self._start_ns) / 1e9
            if state.last_f_hat is not None:
                self.registry.series("controller.f_hat", path=path).append(
                    series_t, state.last_f_hat
                )
            self._sample_gauges()
        return self._record(
            "complete",
            now,
            path=path,
            round=round_index,
            signals=[self.signals(path)],
        )

    def on_session_busy(
        self,
        path: str,
        round_index: int,
        retry_after: Optional[float] = None,
        now_ns: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Reflector answered BUSY: refund the launch, arm the backoff.

        The path will not be offered another launch before
        ``now + retry_after`` — never sooner, exactly as the admission
        control advertised (a missing/absurd hint falls back to
        ``policy.retry_fallback``).
        """
        now = self._now(now_ns)
        state = self._state(path)
        state.active = max(0, state.active - 1)
        state.busy_deferrals += 1
        if retry_after is None or retry_after <= 0.0:
            retry_after = self.policy.retry_fallback
        deadline = now + int(retry_after * 1e9)
        if state.retry_until_ns is None or deadline > state.retry_until_ns:
            state.retry_until_ns = deadline
        # Refund: the rejected session spent no probes.
        refund = self._refund_slots(state, round_index)
        if refund and self._converged(state):
            state.monitor_credit += refund
        if self.registry.enabled:
            self.registry.counter("controller.busy_deferred").inc()
            self._sample_gauges()
        return self._record(
            "busy",
            now,
            path=path,
            round=round_index,
            retry_after=float(retry_after),
            refunded_slots=refund,
        )

    def on_session_failure(
        self,
        path: str,
        round_index: int,
        error: str,
        now_ns: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Session failed outright (no BUSY): record it, keep the spend."""
        now = self._now(now_ns)
        state = self._state(path)
        state.active = max(0, state.active - 1)
        state.failures += 1
        if self.registry.enabled:
            self.registry.counter("controller.failures").inc()
            self._sample_gauges()
        return self._record(
            "failure", now, path=path, round=round_index, error=str(error)[:300]
        )

    def _refund_slots(self, state: PathState, round_index: int) -> int:
        """Give a rejected launch's slots back to the global budget."""
        for event in reversed(self.events):
            if event["kind"] != "rebalance":
                continue
            for allocation in event.get("allocations", ()):
                if (
                    allocation["path"] == state.target.name
                    and allocation["round"] == round_index
                ):
                    slots = int(allocation["slots"])
                    state.spent_slots = max(0, state.spent_slots - slots)
                    self.spent_slots = max(0, self.spent_slots - slots)
                    return slots
        return 0

    # ------------------------------------------------------------------ final
    def finalize(self, now_ns: Optional[int] = None) -> Dict[str, Any]:
        """Write the closing event and close the artifact. Idempotent."""
        if self._finalized:
            return self.events[-1]
        now = self._now(now_ns)
        self._finalized = True
        if self.registry.enabled:
            self._sample_gauges()
        record = self._record(
            "final",
            now,
            spent_slots=self.spent_slots,
            signals=[self.signals(name) for name in self._paths],
        )
        if self._writer is not None:
            self._writer.close()
        return record

    # ------------------------------------------------------------------ merge
    def _shard_schedule(self) -> List[Tuple[str, int]]:
        """Canonical merge order: roster order, then round index."""
        schedule: List[Tuple[str, int]] = []
        for name, state in self._paths.items():
            for round_index in sorted(state.shards):
                schedule.append((name, round_index))
        return schedule

    def merged_registry(
        self, order: Optional[Sequence[Tuple[str, int]]] = None
    ) -> MetricsRegistry:
        """Merge every retained shard into one fresh registry.

        Default order is the canonical roster/round schedule; ``order``
        lets callers replay an arbitrary (e.g. chronological-completion)
        order. Series are labeled ``session=<path>/session[<round>]``, so
        shards from different paths can never collide and
        ``obs summary --by-label`` groups a controller run by path.
        """
        merged = MetricsRegistry()
        for path, round_index in (
            self._shard_schedule() if order is None else order
        ):
            shard = self._paths[path].shards.get(round_index)
            if shard is None:
                raise ObservabilityError(
                    f"no retained shard for {shard_label(path, round_index)}"
                )
            merged.merge(
                shard, series_labels={"session": shard_label(path, round_index)}
            )
        return merged

    def merged_digest(self) -> str:
        return snapshot_digest(self.merged_registry().snapshot())

    def replay_digest(self, order: Sequence[Tuple[str, int]]) -> str:
        """Digest of serially re-merging the same shards in ``order``."""
        return snapshot_digest(self.merged_registry(order=order).snapshot())


# ------------------------------------------------------------------ validation
def read_controller_events(path, tolerate_truncation: bool = True) -> List[Dict[str, Any]]:
    """Read a controller NDJSON event log into records.

    A truncated *final* line (process killed mid-write) is dropped when
    ``tolerate_truncation``; truncation anywhere else is an error.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ObservabilityError(f"cannot read controller events {path}: {exc}")
    records: List[Dict[str, Any]] = []
    for number, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            records.append(json.loads(raw))
        except json.JSONDecodeError as exc:
            if tolerate_truncation and number == len(lines):
                break
            raise ObservabilityError(
                f"{path}: line {number} is invalid JSON ({exc.msg})"
            )
    return records


def validate_controller_record(record: Any, where: str = "record") -> List[str]:
    """Structural validation of one controller event (list of problems)."""
    if not isinstance(record, dict):
        return [f"{where}: expected an object, got {type(record).__name__}"]
    problems: List[str] = []
    if record.get("schema") != CONTROLLER_SCHEMA:
        problems.append(
            f"{where}.schema: expected {CONTROLLER_SCHEMA!r}, "
            f"got {record.get('schema')!r}"
        )
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        problems.append(f"{where}.seq: expected a positive integer, got {seq!r}")
    t = record.get("t")
    if not isinstance(t, (int, float)) or isinstance(t, bool) or t < 0:
        problems.append(f"{where}.t: expected a non-negative number, got {t!r}")
    kind = record.get("kind")
    if kind not in EVENT_KINDS:
        problems.append(
            f"{where}.kind: expected one of {EVENT_KINDS}, got {kind!r}"
        )
    remaining = record.get("remaining_slots")
    if not isinstance(remaining, int) or isinstance(remaining, bool) or remaining < 0:
        problems.append(
            f"{where}.remaining_slots: expected a non-negative integer"
        )
    if kind == "rebalance":
        allocations = record.get("allocations")
        if not isinstance(allocations, list) or not allocations:
            problems.append(f"{where}.allocations: expected a non-empty list")
        else:
            for index, allocation in enumerate(allocations):
                if not isinstance(allocation, dict) or not (
                    isinstance(allocation.get("path"), str)
                    and isinstance(allocation.get("slots"), int)
                    and allocation.get("slots", 0) > 0
                    and isinstance(allocation.get("round"), int)
                    and isinstance(allocation.get("seed"), int)
                ):
                    problems.append(
                        f"{where}.allocations[{index}]: expected "
                        "{path: str, slots: int > 0, round: int, seed: int}"
                    )
    elif kind in ("complete", "busy", "failure"):
        if not isinstance(record.get("path"), str):
            problems.append(f"{where}.path: expected a string")
        if not isinstance(record.get("round"), int):
            problems.append(f"{where}.round: expected an integer")
        if kind == "busy":
            retry_after = record.get("retry_after")
            if (
                not isinstance(retry_after, (int, float))
                or isinstance(retry_after, bool)
                or retry_after <= 0
            ):
                problems.append(
                    f"{where}.retry_after: expected a positive number"
                )
    return problems


def validate_controller_file(path) -> List[str]:
    """Validate a controller event log: per-record schema, strictly
    increasing sequence numbers, at most one (trailing) ``final``
    record. Returns a problem list (empty = valid)."""
    try:
        records = read_controller_events(path)
    except ObservabilityError as exc:
        return [str(exc)]
    if not records:
        return [f"{path}: no controller events"]
    problems: List[str] = []
    previous_seq = 0
    final_at: Optional[int] = None
    for index, record in enumerate(records):
        where = f"events[{index}]"
        problems.extend(validate_controller_record(record, where))
        seq = record.get("seq")
        if isinstance(seq, int) and not isinstance(seq, bool):
            if seq <= previous_seq:
                problems.append(
                    f"{where}.seq: {seq} not greater than previous {previous_seq}"
                )
            previous_seq = seq
        if record.get("kind") == "final":
            if final_at is not None:
                problems.append(f"{where}: duplicate 'final' event")
            final_at = index
    if final_at is not None and final_at != len(records) - 1:
        problems.append(
            f"events[{final_at}]: 'final' event is not the last record"
        )
    return problems
