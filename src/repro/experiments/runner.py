"""Experiment runner: wire testbed + scenario + tool, extract ground truth.

Every table/figure reproduction boils down to the same loop:

1. build the dumbbell testbed on a fresh seeded simulator,
2. start one of the §4/§6 traffic scenarios,
3. start a measurement tool (BADABING / ZING / PING-like),
4. run for warmup + measurement + drain,
5. extract ground truth from the bottleneck monitor over the measurement
   window and compare with what the tool reported.

The helpers here implement steps 1-5 once, so the table/figure modules and
user code stay declarative.
"""

from __future__ import annotations

import inspect
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from math import sqrt
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.episodes import LossEpisode, episodes_from_monitor
from repro.analysis.slots import true_frequency
from repro.analysis.stats import mean_std
from repro.config import BadabingConfig, MarkingConfig, ProbeConfig, TestbedConfig
from repro.core.badabing import BadabingTool
from repro.core.clock import AffineClock
from repro.core.jitter import JitterModel
from repro.core.result import BadabingResult
from repro.core.zing import ZingResult, ZingTool
from repro.errors import BudgetExhaustedError, ConfigurationError
from repro.experiments import scenarios as _scenarios
# Defined in a leaf module that the live path imports without the
# simulator; callers keep importing them from here.
from repro.experiments.budget import RunBudget, RunOutcome, check_max_events
from repro.net.faults import FaultInjector, FaultProfile, resolve_fault_profile
from repro.net.simulator import Simulator, _stable_seed
from repro.net.topology import DumbbellTestbed
from repro.obs.audit import (
    AccuracyScorecard,
    audit_run,
    publish_audit,
    scorecard_from_runs,
)
from repro.obs.manifest import RunManifest, config_digest, summarize_snapshot
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.profile import StageProfiler
from repro.obs.tracing import Tracer, trace_span
from repro.profiling import active_profiler, profiling

#: Extra simulated time after the measurement window so in-flight packets
#: drain and the tools' logs are complete.
DRAIN_TIME = 2.0

#: A traced run's simulation runs in this many legs, each followed by one
#: ``sim.heartbeat`` trace event.
HEARTBEAT_BEATS = 8

#: Registry of named scenarios usable by tables, benches, and the CLI.
SCENARIOS: Dict[str, Callable[..., Any]] = {
    "infinite_tcp": _scenarios.infinite_tcp,
    "episodic_cbr": _scenarios.episodic_cbr,
    "harpoon_web": _scenarios.harpoon_web,
}


def build_testbed(
    seed: int = 1,
    config: Optional[TestbedConfig] = None,
    sample_interval: Optional[float] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[Simulator, DumbbellTestbed]:
    """Fresh simulator + dumbbell testbed."""
    sim = Simulator(seed=seed, metrics=metrics)
    testbed = DumbbellTestbed(sim, config=config, sample_interval=sample_interval)
    return sim, testbed


def apply_scenario(
    sim: Simulator, testbed: DumbbellTestbed, scenario: str, **kwargs: Any
) -> Any:
    """Start a named background-traffic scenario."""
    factory = SCENARIOS.get(scenario)
    if factory is None:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
        )
    return factory(sim, testbed, **kwargs)


@dataclass
class GroundTruth:
    """What actually happened at the bottleneck during the window."""

    episodes: List[LossEpisode]
    frequency: float
    duration_mean: float
    duration_std: float
    loss_rate: float
    n_slots: int
    slot: float
    window: Tuple[float, float]

    @property
    def n_episodes(self) -> int:
        return len(self.episodes)

    @property
    def loss_event_rate_per_slot(self) -> float:
        """§7's L: mean number of loss events (episodes) per slot."""
        if self.n_slots == 0:
            return 0.0
        return self.n_episodes / self.n_slots


def compute_ground_truth(
    testbed: DumbbellTestbed,
    slot: float,
    start: float,
    duration: float,
    max_gap: float = 0.5,
) -> GroundTruth:
    """Extract router-centric truth over ``[start, start + duration]``."""
    episodes = episodes_from_monitor(testbed.monitor, max_gap=max_gap)
    return ground_truth_from_episodes(
        episodes, testbed.monitor.loss_rate, slot, start, duration
    )


def ground_truth_from_episodes(
    episodes: List[LossEpisode],
    loss_rate: float,
    slot: float,
    start: float,
    duration: float,
) -> GroundTruth:
    """Windowed truth from an already-extracted episode list.

    Used directly by multi-hop experiments, where the episode list is the
    union of per-hop extractions.
    """
    if duration <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    end = start + duration
    window_episodes = [
        episode for episode in episodes if episode.end >= start and episode.start <= end
    ]
    # Re-express episode times relative to the measurement start so slot
    # indices line up with the probe process's slots.
    shifted = [
        LossEpisode(
            max(episode.start, start) - start,
            min(episode.end, end) - start,
            episode.drops,
        )
        for episode in window_episodes
    ]
    n_slots = int(round(duration / slot))
    frequency = true_frequency(shifted, slot, n_slots) if shifted else 0.0
    durations = [episode.duration for episode in window_episodes]
    duration_mean, duration_std = mean_std(durations)
    return GroundTruth(
        episodes=window_episodes,
        frequency=frequency,
        duration_mean=duration_mean,
        duration_std=duration_std,
        loss_rate=loss_rate,
        n_slots=n_slots,
        slot=slot,
        window=(start, end),
    )


def default_marking_for(p: float, slot: float) -> MarkingConfig:
    """§6.2's parameter recipe.

    tau: "the expected time between probes plus one standard deviation" —
    for the geometric design the gap between probed slots is geometric with
    per-slot coverage probability ``1 - (1-p)^2``.

    alpha: 0.2 at p = 0.1, 0.1 at p in {0.3, 0.5}, 0.05 at p in {0.7, 0.9}
    (the paper's text prints "0.5" for the last group, which contradicts
    its own Figure 9 range of 0.025-0.2; we read it as 0.05).
    """
    coverage = 1.0 - (1.0 - p) ** 2
    mean_gap = slot / coverage
    std_gap = slot * sqrt(1.0 - coverage) / coverage
    tau = mean_gap + std_gap
    if p <= 0.15:
        alpha = 0.2
    elif p <= 0.55:
        alpha = 0.1
    else:
        alpha = 0.05
    return MarkingConfig(alpha=alpha, tau=tau)


def install_faults(
    sim: Simulator,
    testbed: DumbbellTestbed,
    faults: Union[str, FaultProfile, None],
    anchor: float = 0.0,
    label: str = "path",
) -> Optional[FaultInjector]:
    """Attach a fault profile to a dumbbell testbed's measured path.

    The injector sits on the *forward bottleneck link* (post-queue, so its
    drops/reorderings/duplications are uncorrelated with congestion — the
    noise the paper's estimators must tolerate) and on the probe receiver
    host (collector outage windows). Times in the profile are authored
    relative to the measurement start; ``anchor`` (normally the warmup
    length) shifts them to absolute simulation time. Returns None when the
    profile resolves to a no-op — the clean path stays byte-identical.
    """
    profile = resolve_fault_profile(faults)
    if profile is None:
        return None
    injector = FaultInjector(sim, profile.shifted(anchor), label=label)
    injector.attach_to_link(testbed.forward_link)
    injector.attach_to_host(testbed.probe_receiver)
    return injector


def _finish_run(
    name: str,
    sim: Simulator,
    testbed: Any,
    tool: Any,
    traffic: Any,
    injector: Optional[FaultInjector],
    until: float,
    extract_truth: Callable[[], GroundTruth],
    configs: Tuple[Any, ...],
    max_events: Optional[int],
    tracer: Optional[Tracer],
    keep: Optional[Dict[str, Any]],
) -> Tuple[Any, GroundTruth]:
    """Run a wired experiment to ``until``; return (tool result, truth).

    The finishing path of every runner: run under the ``max_events``
    budget (below one it is refused with
    :class:`~repro.errors.ConfigurationError`, as :class:`RunBudget` does;
    a starved run raises a structured, retryable
    :class:`~repro.errors.BudgetExhaustedError`), extract truth, build the
    result, audit a BADABING result while the registry is enabled, attach
    the manifest (its tool is ``name``) and fill ``keep``.

    Untraced, the simulation is one ``sim.run(until, max_events)`` call.
    Traced, it runs in :data:`HEARTBEAT_BEATS` legs sharing the budget,
    each followed by a ``sim.heartbeat`` event (simulated time, events so
    far), so the trace tells a stalled run from a slow one while the run
    dispatches exactly the events an untraced one does.
    """
    check_max_events(max_events)
    legs = [until]
    if tracer is not None:
        legs = [until * beat / HEARTBEAT_BEATS for beat in range(1, HEARTBEAT_BEATS)] + legs
    left = max_events
    dispatched = 0
    with trace_span(tracer, "sim.run", until=until):
        for leg_end in legs:
            ran = sim.run(until=leg_end, max_events=left)
            dispatched += ran
            if sim.budget_exhausted or (ran == left and sim.has_runnable(until)):
                raise BudgetExhaustedError(
                    f"event budget exhausted after {dispatched} events at "
                    f"t={sim.now:.3f}s (budget {max_events}, needed to reach "
                    f"t={until:.3f}s)",
                    events_processed=dispatched,
                    sim_time=sim.now,
                    budget=max_events,
                )
            if left is not None:
                # Spent exactly with nothing runnable by ``until``: the
                # remaining legs run unbudgeted and only advance the clock.
                left = left - ran or None
            if tracer is not None:
                tracer.event(
                    "sim.heartbeat",
                    sim_time=round(sim.now, 9),
                    events_processed=dispatched,
                )
    with trace_span(tracer, "truth.extract"):
        truth = extract_truth()
    # A real collector knows when it was down (its own restart log); feed
    # the known outage windows back so those slots degrade coverage instead
    # of masquerading as loss episodes.
    outages = injector.profile.outage_windows if injector is not None else ()
    with trace_span(tracer, "tool.result"):
        result = tool.result(blackout_windows=list(outages)) if outages else tool.result()
    if isinstance(result, BadabingResult) and sim.metrics.enabled:
        with trace_span(tracer, "audit.build"):
            result.audit = audit_run(
                result, truth, tool.schedule, start=tool.start, tool=name
            )
            publish_audit(sim.metrics, result.audit, start=tool.start)
    from repro import __version__

    result.manifest = RunManifest(
        tool=name,
        seed=sim.seed,
        config_digest=config_digest(*configs),
        package_version=__version__,
        sim_seconds=sim.now,
        wall_seconds=sim.wall_seconds,
        events_processed=sim.events_processed,
        metrics=summarize_snapshot(sim.metrics.snapshot()),
    )
    if keep is not None:
        keep.update(
            sim=sim,
            testbed=testbed,
            tool=tool,
            traffic=traffic,
            fault_injector=injector,
        )
    return result, truth


def run_badabing(
    scenario: str,
    p: float,
    n_slots: int,
    seed: int = 1,
    improved: bool = False,
    probe: Optional[ProbeConfig] = None,
    marking: Optional[MarkingConfig] = None,
    testbed_config: Optional[TestbedConfig] = None,
    scenario_kwargs: Optional[Dict[str, Any]] = None,
    warmup: float = 10.0,
    jitter: Optional[JitterModel] = None,
    sender_clock: Optional[AffineClock] = None,
    receiver_clock: Optional[AffineClock] = None,
    faults: Union[str, FaultProfile, None] = None,
    max_events: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    keep: Optional[Dict[str, Any]] = None,
) -> Tuple[BadabingResult, GroundTruth]:
    """Full BADABING experiment: returns (tool result, ground truth).

    ``keep`` (if provided) is filled with the live objects (sim, testbed,
    tool, traffic, fault_injector) so callers can do further analysis —
    e.g. re-mark the same probe logs under different (alpha, tau) settings
    for Figure 9.

    ``faults`` (a profile name from :data:`repro.net.faults.FAULT_PROFILES`
    or a :class:`~repro.net.faults.FaultProfile`) injects path impairments;
    ``max_events`` caps the simulation's event budget, raising
    :class:`~repro.errors.BudgetExhaustedError` if the run does not complete
    within it (so runaway cells are caught instead of hanging a sweep).

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) collects
    the run's telemetry — on by default, pass a
    :class:`~repro.obs.metrics.NullRegistry` to disable; ``tracer``
    records wall-clock spans around each phase. The returned result
    carries a :class:`~repro.obs.manifest.RunManifest`.
    """
    probe_cfg = probe if probe is not None else ProbeConfig()
    marking_cfg = marking if marking is not None else default_marking_for(p, probe_cfg.slot)
    config = BadabingConfig(
        probe=probe_cfg, marking=marking_cfg, p=p, n_slots=n_slots, improved=improved
    )
    with trace_span(tracer, "testbed.build", seed=seed):
        sim, testbed = build_testbed(seed=seed, config=testbed_config, metrics=metrics)
    with trace_span(tracer, "traffic.start", scenario=scenario):
        traffic = apply_scenario(sim, testbed, scenario, **(scenario_kwargs or {}))
    tool = BadabingTool(
        sim,
        testbed.probe_sender,
        testbed.probe_receiver,
        config,
        start=warmup,
        jitter=jitter,
        sender_clock=sender_clock,
        receiver_clock=receiver_clock,
        tracer=tracer,
    )
    injector = install_faults(sim, testbed, faults, anchor=warmup)
    return _finish_run(
        "badabing",
        sim,
        testbed,
        tool,
        traffic,
        injector,
        until=tool.end_time + DRAIN_TIME,
        extract_truth=lambda: compute_ground_truth(
            testbed, probe_cfg.slot, warmup, config.duration
        ),
        configs=(config, testbed.config),
        max_events=max_events,
        tracer=tracer,
        keep=keep,
    )


def run_badabing_multihop(
    n_hops: int,
    p: float,
    n_slots: int,
    seed: int = 1,
    mean_spacings: Optional[List[float]] = None,
    episode_durations: Tuple[float, ...] = (0.068,),
    testbed_config: Optional[TestbedConfig] = None,
    probe: Optional[ProbeConfig] = None,
    marking: Optional[MarkingConfig] = None,
    warmup: float = 10.0,
    max_events: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    keep: Optional[Dict[str, Any]] = None,
) -> Tuple[BadabingResult, GroundTruth]:
    """BADABING across a chain of independently congested bottlenecks.

    Each hop carries its own engineered episodic CBR cross traffic
    (spacing given per hop via ``mean_spacings``, default 10 s each);
    truth is the *union* of per-hop loss episodes — the path-level
    congestion state the probes actually traverse. ``max_events`` caps
    the simulation's event budget exactly as in :func:`run_badabing`,
    raising :class:`~repro.errors.BudgetExhaustedError` on exhaustion.
    """
    from repro.net.multihop import MultiHopTestbed
    from repro.traffic.cbr import EpisodicCbrTraffic

    probe_cfg = probe if probe is not None else ProbeConfig()
    marking_cfg = marking if marking is not None else default_marking_for(p, probe_cfg.slot)
    config = BadabingConfig(
        probe=probe_cfg, marking=marking_cfg, p=p, n_slots=n_slots
    )
    sim = Simulator(seed=seed, metrics=metrics)
    testbed = MultiHopTestbed(sim, n_hops=n_hops, config=testbed_config)
    cfg = testbed.config
    if mean_spacings is None:
        mean_spacings = [10.0] * n_hops
    if len(mean_spacings) != n_hops:
        raise ConfigurationError(
            f"need one spacing per hop ({n_hops}), got {len(mean_spacings)}"
        )
    traffic = [
        EpisodicCbrTraffic(
            sim,
            testbed.cross_senders[hop],
            testbed.cross_receivers[hop],
            bottleneck_bps=cfg.bottleneck_bps,
            buffer_bytes=cfg.buffer_bytes,
            episode_durations=episode_durations,
            mean_spacing=mean_spacings[hop],
            packet_size=cfg.mtu,
            rng_label=f"episodic-cbr-hop{hop}",
        )
        for hop in range(n_hops)
    ]
    tool = BadabingTool(
        sim, testbed.probe_sender, testbed.probe_receiver, config, start=warmup
    )

    def extract_truth() -> GroundTruth:
        arrivals = sum(monitor.arrivals for monitor in testbed.hop_monitors)
        drops = testbed.total_drops
        loss_rate = drops / (arrivals + drops) if arrivals + drops else 0.0
        return ground_truth_from_episodes(
            testbed.path_episodes(), loss_rate, probe_cfg.slot, warmup, config.duration
        )

    return _finish_run(
        "badabing-multihop",
        sim,
        testbed,
        tool,
        traffic,
        None,
        until=tool.end_time + DRAIN_TIME,
        extract_truth=extract_truth,
        configs=(config, testbed.config),
        max_events=max_events,
        tracer=None,
        keep=keep,
    )


def run_zing(
    scenario: str,
    mean_interval: float,
    packet_size: int,
    duration: float,
    seed: int = 1,
    slot: float = 0.005,
    testbed_config: Optional[TestbedConfig] = None,
    scenario_kwargs: Optional[Dict[str, Any]] = None,
    warmup: float = 10.0,
    max_events: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    keep: Optional[Dict[str, Any]] = None,
) -> Tuple[ZingResult, GroundTruth]:
    """Full ZING experiment: returns (tool result, ground truth).

    ``slot`` only affects how the *truth* frequency is discretized; ZING
    itself is slot-free. ``max_events`` caps the simulation's event
    budget exactly as in :func:`run_badabing`, raising
    :class:`~repro.errors.BudgetExhaustedError` on exhaustion — so the
    Poisson baseline can run under the same :class:`RunBudget` protection
    as the tool it is compared against.
    """
    with trace_span(tracer, "testbed.build", seed=seed):
        sim, testbed = build_testbed(seed=seed, config=testbed_config, metrics=metrics)
    with trace_span(tracer, "traffic.start", scenario=scenario):
        traffic = apply_scenario(sim, testbed, scenario, **(scenario_kwargs or {}))
    tool = ZingTool(
        sim,
        testbed.probe_sender,
        testbed.probe_receiver,
        mean_interval=mean_interval,
        packet_size=packet_size,
        duration=duration,
        start=warmup,
    )
    return _finish_run(
        "zing",
        sim,
        testbed,
        tool,
        traffic,
        None,
        until=warmup + duration + DRAIN_TIME,
        extract_truth=lambda: compute_ground_truth(testbed, slot, warmup, duration),
        configs=(testbed.config,),
        max_events=max_events,
        tracer=tracer,
        keep=keep,
    )


# ---------------------------------------------------------------------------
# Protected runs: budgets, retries, and structured outcomes
# ---------------------------------------------------------------------------

def derive_retry_seed(seed: int, attempt: int) -> int:
    """Deterministic fresh seed for retry ``attempt`` (1-based) of ``seed``."""
    return _stable_seed(seed, f"retry-{attempt}") % (1 << 31)


def accepts_kwarg(fn: Callable[..., Any], name: str) -> bool:
    """Whether ``fn(name=...)`` is a valid call (directly or via ``**kwargs``).

    Used to forward optional budget/observability kwargs only to runners
    that can take them: ``run_protected(run_zing, budget=...)`` must not
    die with a ``TypeError`` because ZING predates some kwarg. Callables
    whose signature cannot be introspected are assumed to accept it.
    """
    try:
        parameters = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return True
    parameter = parameters.get(name)
    if parameter is not None:
        return parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
    return any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


def run_protected(
    fn: Callable[..., Tuple[Any, GroundTruth]],
    label: str = "run",
    seed: int = 1,
    budget: Optional[RunBudget] = None,
    **kwargs: Any,
) -> RunOutcome:
    """Run one experiment cell under a budget, capturing failure as data.

    ``fn`` is any runner entry point taking ``seed=`` and returning a
    ``(result, truth)`` pair — :func:`run_badabing`, :func:`run_zing`,
    :func:`run_badabing_multihop`, or user code with the same shape. The
    budget's ``max_events`` is forwarded automatically when ``fn`` accepts
    that kwarg (all built-in runners do); a runner without it simply runs
    unbudgeted rather than crashing the cell with a ``TypeError``.

    Any :class:`Exception` the runner raises — a structured
    :class:`~repro.errors.ReproError` or a plain bug such as a
    ``TypeError`` from a bad cell kwarg — becomes a failed outcome with
    its type, message and traceback; only ``budget.retry_on`` types are
    retried.
    """
    budget = budget if budget is not None else RunBudget()
    if (
        budget.max_events is not None
        and "max_events" not in kwargs
        and accepts_kwarg(fn, "max_events")
    ):
        kwargs = dict(kwargs, max_events=budget.max_events)
    seeds: List[int] = []
    started = time.monotonic()
    last_error: Optional[BaseException] = None
    budget_exhausted = False
    for attempt in range(budget.max_attempts):
        attempt_seed = seed if attempt == 0 else derive_retry_seed(seed, attempt)
        seeds.append(attempt_seed)
        try:
            result, truth = fn(seed=attempt_seed, **kwargs)
            return RunOutcome(
                label=label,
                ok=True,
                result=result,
                truth=truth,
                attempts=attempt + 1,
                seeds=tuple(seeds),
                elapsed_seconds=time.monotonic() - started,
            )
        except Exception as exc:  # noqa: BLE001 — a crashing cell becomes data
            last_error = exc
            if isinstance(exc, BudgetExhaustedError):
                budget_exhausted = True
            if not isinstance(exc, budget.retry_on):
                break
            if (
                budget.max_wall_seconds is not None
                and time.monotonic() - started >= budget.max_wall_seconds
            ):
                break
    return failed_outcome(
        label,
        last_error,
        seeds,
        time.monotonic() - started,
        budget_exhausted=budget_exhausted,
    )


def failed_outcome(
    label: str,
    exc: BaseException,
    seeds: Sequence[int],
    elapsed_seconds: float,
    budget_exhausted: bool = False,
) -> RunOutcome:
    """A failed :class:`RunOutcome` carrying ``exc``'s type, message and
    traceback, one attempt per seed tried."""
    return RunOutcome(
        label=label,
        ok=False,
        error=str(exc) or type(exc).__name__,
        error_type=type(exc).__name__,
        error_traceback="".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
        attempts=len(seeds),
        seeds=tuple(seeds),
        budget_exhausted=budget_exhausted,
        elapsed_seconds=elapsed_seconds,
    )


def deadline_outcome(label: str, max_wall_seconds: float) -> RunOutcome:
    """A budget-exhausted RunOutcome for a cell skipped at the deadline."""
    return RunOutcome(
        label=label,
        ok=False,
        error=(
            f"sweep wall-clock deadline ({max_wall_seconds}s) reached "
            "before this cell started"
        ),
        error_type="BudgetExhaustedError",
        budget_exhausted=True,
        attempts=0,
        seeds=(),
    )


# ---------------------------------------------------------------------------
# Sweeps: one cell path, in-process or in a pool worker
# ---------------------------------------------------------------------------

#: Cell-registry modes, chosen from the sweep registry's state: a fresh
#: registry merged back under ``cell=<label>``, a disabled one, or none.
METRICS_FRESH = "fresh"
METRICS_NULL = "null"
METRICS_NONE = "none"


@dataclass(frozen=True)
class CellPayload:
    """Everything one sweep cell needs; picklable when ``kwargs`` is.

    ``runner`` is an importable top-level callable; ``None`` means
    :func:`run_badabing`, looked up when the cell runs. ``with_tracer``
    and ``with_profiler`` ask a pool worker to record a trace shard and a
    stage profile and send them back as data; a cell run in-process needs
    neither, because it records straight into the sweep's tracer and the
    active profiler. Only in-process cells may carry live objects
    (``keep``/``metrics``/``tracer``) in ``kwargs``.
    """

    index: int
    label: str
    seed: int
    kwargs: Dict[str, Any]
    budget: Optional[RunBudget] = None
    metrics_mode: str = METRICS_NONE
    with_tracer: bool = False
    with_profiler: bool = False
    runner: Optional[Callable[..., Any]] = None


@dataclass
class CellResult:
    """One finished cell: its outcome plus the shards the sweep folds in."""

    outcome: RunOutcome
    registry: Optional[MetricsRegistry] = None
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: The worker's :meth:`~repro.obs.profile.StageProfiler.snapshot`.
    profile: Optional[Dict[str, Any]] = None


def run_cell(payload: CellPayload, tracer: Optional[Tracer] = None) -> CellResult:
    """Run one protected sweep cell — in-process, or as the pool worker.

    Builds the cell's private registry, opens the ``sweep.cell`` span on
    ``tracer`` (the sweep's own, in-process) or on a shard tracer (in a
    worker), runs :func:`run_protected`, and bakes the registry's
    collectors in: they close over the finished simulator, which can
    neither be pickled nor kept alive after the cell.
    """
    fn = payload.runner if payload.runner is not None else run_badabing
    registry: Optional[MetricsRegistry] = None
    if payload.metrics_mode == METRICS_FRESH:
        registry = MetricsRegistry()
    elif payload.metrics_mode == METRICS_NULL:
        registry = NullRegistry()
    kwargs = payload.kwargs
    if registry is not None and accepts_kwarg(fn, "metrics"):
        kwargs = dict(kwargs, metrics=registry)
    shard = (
        Tracer(shard="sweep-worker", cell=payload.label)
        if payload.with_tracer
        else None
    )
    profiler = StageProfiler() if payload.with_profiler else None
    with trace_span(
        tracer if tracer is not None else shard,
        "sweep.cell",
        label=payload.label,
        seed=payload.seed,
    ):
        with profiling(profiler) if profiler is not None else nullcontext():
            outcome = run_protected(
                fn,
                label=payload.label,
                seed=payload.seed,
                budget=payload.budget,
                **kwargs,
            )
    if registry is not None:
        registry.detach_collectors()
    return CellResult(
        outcome=outcome,
        registry=registry,
        spans=list(shard.spans) if shard is not None else [],
        profile=profiler.snapshot() if profiler is not None else None,
    )


def _prepare_cells(
    cells: Sequence[Dict[str, Any]],
    common: Dict[str, Any],
    budget: Optional[RunBudget],
    metrics: Optional[MetricsRegistry],
    tracer: Optional[Tracer],
    pooled: bool,
) -> List[CellPayload]:
    """Resolve every cell to a :class:`CellPayload`.

    ``common`` supplies shared kwargs (cells win on conflict). A ``label``
    given per cell is used verbatim; a label inherited from ``common`` is
    suffixed with the cell index — otherwise every row of the sweep's
    outcome list and scorecard would collide on one name. A cell that
    brings its own ``metrics`` registry records into it, not into a cell
    registry of the sweep's. ``pooled`` cells must be picklable, and ask
    for the trace and profile shards their worker has to send back.
    """
    with_tracer = pooled and tracer is not None
    with_profiler = pooled and active_profiler() is not None
    payloads: List[CellPayload] = []
    for index, cell in enumerate(cells):
        merged = dict(common, **cell)
        merged.pop("label", None)
        if cell.get("label"):
            label = cell["label"]
        elif common.get("label"):
            label = f"{common['label']}[{index}]"
        else:
            label = _cell_label(index, merged)
        seed = merged.pop("seed", 1)
        live = sorted(k for k in ("metrics", "tracer", "keep") if k in merged)
        if pooled and live:
            raise ConfigurationError(
                f"cell {label!r}: per-cell {'/'.join(live)} objects cannot "
                "cross a process boundary; drop them or run with workers=1"
            )
        if metrics is None or "metrics" in merged:
            mode = METRICS_NONE
        elif metrics.enabled:
            mode = METRICS_FRESH
        else:
            mode = METRICS_NULL
        payloads.append(
            CellPayload(
                index=index,
                label=label,
                seed=seed,
                kwargs=merged,
                budget=budget,
                metrics_mode=mode,
                with_tracer=with_tracer,
                with_profiler=with_profiler,
            )
        )
    return payloads


def _finish_cell(
    payload: CellPayload,
    cell: CellResult,
    metrics: Optional[MetricsRegistry],
    tracer: Optional[Tracer],
    exporter,
) -> RunOutcome:
    """Fold one finished cell into the sweep; called in cell order.

    Merges the cell registry under ``cell=<label>``, absorbs the trace
    shard and the worker's stage profile, counts the cell, then emits the
    progress record — so a progress record is a pure function of the
    cells finished so far, in either mode.
    """
    outcome = cell.outcome
    if metrics is not None and cell.registry is not None:
        metrics.merge(cell.registry, series_labels={"cell": payload.label})
    if tracer is not None and cell.spans:
        tracer.absorb(cell.spans)
    profiler = active_profiler()
    if profiler is not None and cell.profile is not None:
        profiler.absorb(cell.profile)
    if outcome.ok:
        status = "ok"
    elif outcome.budget_exhausted:
        status = "budget_exhausted"
    else:
        status = "failed"
    if metrics is not None and metrics.enabled:
        metrics.counter("sweep.cells", status=status).inc()
        metrics.counter("sweep.retries").inc(max(0, outcome.attempts - 1))
        if not outcome.ok:
            metrics.counter("sweep.degraded_cells").inc()
    if exporter is not None:
        exporter.export_now(kind="progress", cell=payload.label, status=status)
    return outcome


def sweep_badabing(
    cells: Sequence[Dict[str, Any]],
    budget: Optional[RunBudget] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    workers: Optional[int] = None,
    max_wall_seconds: Optional[float] = None,
    exporter=None,
    **common: Any,
) -> List[RunOutcome]:
    """Run a whole grid of BADABING cells, never dying on one of them.

    Each cell is a kwargs dict for :func:`run_badabing` (plus an optional
    ``"label"``); ``common`` supplies shared kwargs (cells win on
    conflict). Every cell yields a :class:`RunOutcome` — crashed or
    budget-exhausted cells come back as structured failures, so a table
    sweep always produces its full shape.

    Serial and ``workers`` > 1 sweeps run each cell through the same
    :func:`run_cell` and fold it in through the same finish step, in
    cell order. ``workers`` > 1 runs the cells in a spawn-based process
    pool (see :mod:`repro.experiments.parallel`), so the parallel sweep's
    outcome list, merged metrics snapshot, scorecard and progress records
    are byte-identical to the serial run on the same seeds. A worker that
    dies hard (segfault, OOM-kill, unpicklable result) becomes a
    structured failed outcome for its cell instead of killing the sweep.
    Only a serial sweep may pass live per-cell objects (``keep``,
    ``metrics``, ``tracer``) through to its cells.

    ``max_wall_seconds`` is a sweep-level deadline: cells that have not
    started when it expires are skipped and reported as budget-exhausted
    outcomes (in-flight cells always finish). It bounds the whole grid the
    way :attr:`RunBudget.max_wall_seconds` bounds one cell's retries.

    When ``metrics`` is given the sweep also records per-status cell
    counts and retry totals (``sweep.cells{status=...}``,
    ``sweep.retries``); ``tracer`` gains one ``sweep.cell`` span per cell.

    ``exporter`` (a :class:`~repro.obs.export.TelemetryExporter` over the
    same ``metrics`` registry) gets one ``kind="progress"`` snapshot per
    finalized cell, so a long grid streams per-cell progress instead of
    going dark until it returns.

    The cells are profiled exactly when a profiler is active at the call:
    in-process cells run under it, and each pool worker profiles its cell
    and sends the stage stats back for the active profiler to absorb.
    Profiling never touches a metrics registry.
    """
    pooled = workers is not None and workers > 1
    payloads = _prepare_cells(cells, common, budget, metrics, tracer, pooled)

    def finish(payload: CellPayload, cell: CellResult) -> RunOutcome:
        return _finish_cell(payload, cell, metrics, tracer, exporter)

    if pooled:
        from repro.experiments.parallel import execute_parallel_sweep

        return execute_parallel_sweep(
            payloads, workers, max_wall_seconds=max_wall_seconds, finish=finish
        )

    outcomes: List[RunOutcome] = []
    started = time.monotonic()
    for payload in payloads:
        if (
            max_wall_seconds is not None
            and time.monotonic() - started >= max_wall_seconds
        ):
            cell = CellResult(deadline_outcome(payload.label, max_wall_seconds))
        else:
            cell = run_cell(payload, tracer)
        outcomes.append(finish(payload, cell))
    return outcomes


def scorecard_from_outcomes(outcomes: Sequence[RunOutcome]) -> AccuracyScorecard:
    """Aggregate a sweep's :class:`RunOutcome` list into a scorecard.

    Cells audited during their run (registry enabled) contribute full
    accuracy rows; cells that failed — or ran unaudited under a
    :class:`~repro.obs.metrics.NullRegistry` — appear as not-ok rows so
    the scorecard's denominator always matches the sweep's shape.
    """
    entries = []
    for outcome in outcomes:
        seed = outcome.seeds[-1] if outcome.seeds else None
        audit = getattr(outcome.result, "audit", None) if outcome.ok else None
        error = outcome.error
        if outcome.ok and audit is None:
            error = "run was not audited (metrics registry disabled)"
        entries.append((outcome.label, audit, error, seed))
    return scorecard_from_runs(entries)


def _cell_label(index: int, kwargs: Dict[str, Any]) -> str:
    parts = [f"cell{index}"]
    for key in ("scenario", "p", "n_slots", "faults"):
        if key in kwargs and not isinstance(kwargs[key], FaultProfile):
            parts.append(f"{key}={kwargs[key]}")
    return " ".join(parts)
