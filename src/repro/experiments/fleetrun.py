"""Asyncio glue for the adaptive fleet controller.

:class:`~repro.live.controller.FleetController` is a pure decision
function; this module is the driver that turns its
:class:`~repro.live.controller.LaunchDirective` s into real asyncio
sender sessions:

* Paths declared with ``port == 0`` get an in-process loopback fleet
  reflector each, carrying that path's deterministic fault profile (the
  3-path "one deliberately lossy path" recipe from EXPERIMENTS.md).
  Paths with a concrete port are probed as-is — a mixed roster works.
* Each launched session runs against a **fresh registry shard**; on
  completion the detached shard is handed to the controller (retained
  for the canonical merge) and merged into the caller's export-facing
  registry under the standardized ``path/session[round]`` label.
* BUSY/RETRY_AFTER rejections route to
  :meth:`~repro.live.controller.FleetController.on_session_busy` (budget
  refunded, path deferred) rather than becoming failed outcomes.
* At the end the run proves the ordered-merge invariant: the canonical
  roster/round-ordered merged registry digest must equal the digest of
  serially replaying the shards in actual chronological completion
  order (:attr:`FleetRunResult.digest_match`).

``max_wall_seconds`` degrades gracefully: the shared stop event asks
in-flight senders to finalize early, launches cease, and whatever
completed still merges and digests cleanly.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import EstimationError, LiveSessionError
from repro.experiments.budget import RunOutcome
from repro.live import loop as live_loop
from repro.live.controller import (
    ControllerPolicy,
    FleetController,
    LaunchDirective,
    PathTarget,
    shard_label,
)
from repro.live.fleet import FleetPolicy, start_fleet_reflector
from repro.live.impair import build_impairment
from repro.live.runtime import run_live_send
from repro.live.session import make_session_id
from repro.net.simulator import _stable_seed
from repro.obs.metrics import MetricsRegistry

#: Smallest idle sleep while waiting out BUSY backoffs (seconds).
_MIN_IDLE_SLEEP = 0.02


@dataclass
class FleetRunResult:
    """Everything one controller-driven fleet run produced."""

    controller: FleetController
    outcomes: List[RunOutcome]
    #: Chronological (path, round) completion order actually observed.
    completion_order: List[Tuple[str, int]] = field(default_factory=list)
    #: Canonical roster/round-ordered merged-registry digest.
    merged_digest: str = ""
    #: Digest of serially replaying the shards in completion order.
    replay_digest: str = ""
    #: Per-path closing signal summaries (keyed by path name).
    path_summary: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    remaining_slots: int = 0
    wall_seconds: float = 0.0
    deadline_hit: bool = False

    @property
    def events(self) -> List[Dict[str, Any]]:
        return self.controller.events

    @property
    def digest_match(self) -> bool:
        return bool(self.merged_digest) and self.merged_digest == self.replay_digest

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes) and self.digest_match

    @property
    def failures(self) -> List[RunOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]


async def run_fleet(
    paths: Sequence[PathTarget],
    policy: Optional[ControllerPolicy] = None,
    base_seed: int = 1,
    registry: Optional[MetricsRegistry] = None,
    exporter=None,
    events_path=None,
    rebalance_interval: float = 0.25,
    max_wall_seconds: Optional[float] = None,
    fleet_policy: Optional[FleetPolicy] = None,
    controller: Optional[FleetController] = None,
) -> FleetRunResult:
    """Drive a :class:`FleetController` against live reflectors.

    ``registry`` is the export-facing registry: it receives the
    ``controller.*`` instruments, reflector-side counters from any
    locally spun loopback reflectors, and every completed session's
    shard merged under its ``path/session[round]`` label — the registry
    a :class:`~repro.obs.export.TelemetryExporter` (``exporter``) would
    monitor. The *measurement* registry of record is the controller's
    canonical merge, recomputed from retained shards, so attaching or
    detaching telemetry never changes the measurement digests.
    """
    if controller is None:
        controller = FleetController(
            paths,
            policy=policy,
            base_seed=base_seed,
            registry=registry,
            events_path=events_path,
        )
    loop = asyncio.get_running_loop()
    stop_event = asyncio.Event()
    merged = registry if registry is not None and registry.enabled else None

    # --- loopback reflectors for port-0 paths (one per path, so each
    # carries its own deterministic impairment profile).
    seed_maps: Dict[str, Dict[int, int]] = {}
    endpoints: Dict[str, Tuple[str, int]] = {}
    reflectors = []

    def _impairment_for(name: str, faults):
        seeds = seed_maps[name]

        def impairment_for(session_id: int):
            seed = seeds.get(session_id)
            if seed is None or faults is None:
                return None
            return build_impairment(faults, _stable_seed(seed, "live-impair"))

        return impairment_for

    started_wall = loop.time()
    outcomes: List[RunOutcome] = []
    completion_order: List[Tuple[str, int]] = []
    deadline_hit = False
    try:
        for target in paths:
            if target.port != 0:
                endpoints[target.name] = (target.host, target.port)
                continue
            seed_maps[target.name] = {}
            transport, protocol, watchdog_task = await start_fleet_reflector(
                target.host,
                0,
                policy=fleet_policy,
                registry=registry,
                impairment_for=_impairment_for(target.name, target.faults),
                mode="echo",
            )
            reflectors.append((transport, watchdog_task))
            endpoints[target.name] = (
                target.host,
                transport.get_extra_info("sockname")[1],
            )

        if exporter is not None:
            await exporter.start()

        async def _run_one(directive: LaunchDirective):
            label = shard_label(directive.path, directive.round_index)
            host, port = endpoints[directive.path]
            shard = MetricsRegistry()
            session_started = loop.time()
            try:
                run = await run_live_send(
                    host,
                    port,
                    config=directive.config,
                    seed=directive.seed,
                    registry=shard,
                    stop_event=stop_event,
                )
            except LiveSessionError as exc:
                if getattr(exc, "busy", False):
                    controller.on_session_busy(
                        directive.path,
                        directive.round_index,
                        retry_after=getattr(exc, "retry_after", None),
                    )
                    return None
                controller.on_session_failure(
                    directive.path, directive.round_index, str(exc)
                )
                return RunOutcome(
                    label=label,
                    ok=False,
                    error=str(exc),
                    error_type=type(exc).__name__,
                    attempts=1,
                    seeds=(directive.seed,),
                    elapsed_seconds=loop.time() - session_started,
                )
            except EstimationError as exc:
                controller.on_session_failure(
                    directive.path, directive.round_index, str(exc)
                )
                return RunOutcome(
                    label=label,
                    ok=False,
                    error=str(exc),
                    error_type=type(exc).__name__,
                    attempts=1,
                    seeds=(directive.seed,),
                    elapsed_seconds=loop.time() - session_started,
                )
            shard.detach_collectors()
            controller.on_session_complete(
                directive.path,
                directive.round_index,
                frequency=run.result.frequency,
                validation=run.result.validation,
                duration_seconds=run.result.duration_seconds,
                shard=shard,
            )
            completion_order.append((directive.path, directive.round_index))
            if merged is not None:
                merged.merge(shard, series_labels={"session": label})
            return RunOutcome(
                label=label,
                ok=True,
                result=run,
                attempts=1,
                seeds=(directive.seed,),
                elapsed_seconds=loop.time() - session_started,
            )

        pending = set()
        while True:
            if (
                max_wall_seconds is not None
                and loop.time() - started_wall >= max_wall_seconds
                and not deadline_hit
            ):
                deadline_hit = True
                stop_event.set()
            if not deadline_hit:
                for directive in controller.step():
                    seeds = seed_maps.get(directive.path)
                    if seeds is not None:
                        seeds[make_session_id(directive.seed)] = directive.seed
                    pending.add(loop.create_task(_run_one(directive)))
            if not pending:
                if controller.done or deadline_hit:
                    break
                wait = controller.next_retry_in()
                await asyncio.sleep(
                    max(
                        _MIN_IDLE_SLEEP,
                        min(rebalance_interval, wait)
                        if wait is not None
                        else rebalance_interval,
                    )
                )
                continue
            done, pending = await asyncio.wait(
                pending,
                timeout=None if deadline_hit else rebalance_interval,
                return_when=asyncio.ALL_COMPLETED
                if deadline_hit
                else asyncio.FIRST_COMPLETED,
            )
            for task in done:
                outcome = task.result()
                if outcome is not None:
                    outcomes.append(outcome)
    finally:
        for transport, watchdog_task in reflectors:
            watchdog_task.cancel()
            try:
                await watchdog_task
            except asyncio.CancelledError:
                pass
            transport.close()
        if exporter is not None:
            await exporter.stop()
        controller.finalize()

    merged_digest = controller.merged_digest() if completion_order else ""
    replay_digest = (
        controller.replay_digest(completion_order) if completion_order else ""
    )
    return FleetRunResult(
        controller=controller,
        outcomes=sorted(outcomes, key=lambda o: o.label),
        completion_order=completion_order,
        merged_digest=merged_digest,
        replay_digest=replay_digest,
        path_summary={name: controller.signals(name) for name in controller.paths},
        remaining_slots=controller.remaining_slots,
        wall_seconds=loop.time() - started_wall,
        deadline_hit=deadline_hit,
    )


def fleet_run(*args, **kwargs) -> FleetRunResult:
    """Run :func:`run_fleet` through :func:`repro.live.loop.run`."""
    return live_loop.run(run_fleet(*args, **kwargs))
