"""Pinned benchmark suites behind ``repro bench``.

Each suite is a fixed list of scenarios — single cell, multihop chain,
process-parallel sweep, live loopback — with sizes pinned *in the suite
definition* (independent of ``REPRO_PROFILE``), so successive
``BENCH_<suite>.json`` documents are comparable points on one perf
trajectory. Every scenario runs under a fresh
:class:`~repro.obs.profile.StageProfiler`; in the parallel-sweep
scenario each worker profiles its cell and the sweep absorbs the stage
stats into that profiler, so worker stages and call edges land in the
same document.

Wall-clock numbers here are measurement artifacts, not simulation state:
nothing this module records ever enters a monitored registry's snapshot,
keeping the DESIGN.md §14 determinism contract intact.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.config import BadabingConfig, MarkingConfig, ProbeConfig
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    run_badabing,
    run_badabing_multihop,
    sweep_badabing,
)
from repro.obs.bench import make_bench_document
from repro.obs.manifest import config_digest
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import StageProfiler
from repro.profiling import profiling


@dataclass(frozen=True)
class BenchScenario:
    """One pinned suite entry: a named scenario kind plus its kwargs."""

    name: str
    kind: str
    kwargs: Dict[str, Any] = field(default_factory=dict)


#: The pinned suites. ``fast`` is the CI trajectory point (tens of
#: seconds end to end); ``smoke`` is the tiny variant integration tests
#: run. Sizes are deliberately literal — do not derive them from
#: REPRO_PROFILE, or the trajectory stops being comparable run to run.
SUITES: Dict[str, Tuple[BenchScenario, ...]] = {
    "fast": (
        BenchScenario(
            "single_cell",
            "single_cell",
            {
                "scenario": "episodic_cbr",
                "p": 0.3,
                "n_slots": 4000,
                "seed": 3,
                "warmup": 2.0,
                "scenario_kwargs": {"mean_spacing": 2.0},
            },
        ),
        BenchScenario(
            "multihop",
            "multihop",
            {"n_hops": 2, "p": 0.3, "n_slots": 2500, "seed": 1, "warmup": 2.0},
        ),
        BenchScenario(
            "parallel_sweep",
            "parallel_sweep",
            {
                "cells": [
                    {"p": p, "seed": seed}
                    for p in (0.1, 0.3) for seed in (1, 2)
                ],
                "workers": 2,
                "scenario": "episodic_cbr",
                "n_slots": 1500,
                "warmup": 2.0,
                "scenario_kwargs": {"mean_spacing": 2.0},
            },
        ),
        BenchScenario(
            "live_loopback",
            "live_loopback",
            {"p": 0.3, "n_slots": 500, "slot": 0.005, "seed": 1},
        ),
    ),
    "smoke": (
        BenchScenario(
            "single_cell",
            "single_cell",
            {
                "scenario": "episodic_cbr",
                "p": 0.3,
                "n_slots": 800,
                "seed": 3,
                "warmup": 2.0,
                "scenario_kwargs": {"mean_spacing": 2.0},
            },
        ),
        BenchScenario(
            "parallel_sweep",
            "parallel_sweep",
            {
                "cells": [{"p": 0.3, "seed": 1}, {"p": 0.5, "seed": 2}],
                "workers": 2,
                "scenario": "episodic_cbr",
                "n_slots": 600,
                "warmup": 2.0,
                "scenario_kwargs": {"mean_spacing": 2.0},
            },
        ),
        BenchScenario(
            "live_loopback",
            "live_loopback",
            {"p": 0.3, "n_slots": 200, "slot": 0.005, "seed": 1},
        ),
    ),
}


def _run_cell(run: Callable[..., Any], **kwargs) -> Dict[str, Any]:
    """One simulated cell (``run_badabing`` or its multihop twin)."""
    registry = MetricsRegistry()
    result, _truth = run(metrics=registry, **kwargs)
    return {
        "events_processed": int(registry.counter("sim.events_processed").value),
        "probes_sent": int(result.n_probes_sent),
    }


def _run_parallel_sweep(cells, workers=2, **common) -> Dict[str, Any]:
    registry = MetricsRegistry()
    outcomes = sweep_badabing(cells, metrics=registry, workers=workers, **common)
    failed = [o.label for o in outcomes if not o.ok]
    if failed:
        raise ConfigurationError(
            f"bench sweep cells failed: {', '.join(failed)}"
        )
    snapshot = registry.snapshot()
    return {
        "events_processed": int(
            snapshot.get("counters", {}).get("sim.events_processed", 0)
        ),
        "probes_sent": sum(
            o.result.n_probes_sent for o in outcomes if o.ok
        ),
    }


def _run_live_loopback(p=0.3, n_slots=500, slot=0.005, seed=1) -> Dict[str, Any]:
    from repro.live.runtime import live_loopback

    config = BadabingConfig(
        probe=ProbeConfig(slot=slot, probe_size=64, packets_per_probe=3),
        marking=MarkingConfig(tau=0.0),
        p=p,
        n_slots=n_slots,
    )
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        run = live_loopback(
            config=config,
            seed=seed,
            registry=registry,
            trace_path=str(Path(tmp) / "loopback.jsonl"),
        )
    probes = int(run.result.n_probes_sent)
    return {
        "events_processed": int(run.stats.packets_sent),
        "probes_sent": probes,
    }


#: Scenario kinds the suite runner knows how to execute.
_RUNNERS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "single_cell": partial(_run_cell, run_badabing),
    "multihop": partial(_run_cell, run_badabing_multihop),
    "parallel_sweep": _run_parallel_sweep,
    "live_loopback": _run_live_loopback,
}


def run_scenario(scenario: BenchScenario) -> Dict[str, Any]:
    """Execute one scenario under a fresh profiler; returns its entry."""
    runner = _RUNNERS.get(scenario.kind)
    if runner is None:
        raise ConfigurationError(f"unknown bench scenario kind {scenario.kind!r}")
    profiler = StageProfiler()
    started = time.perf_counter()
    with profiling(profiler):
        extra = runner(**scenario.kwargs)
    wall = time.perf_counter() - started
    entry: Dict[str, Any] = {
        "wall_seconds": wall,
        "config_digest": config_digest(
            {"name": scenario.name, "kind": scenario.kind, **scenario.kwargs}
        ),
        "stages": profiler.stages(),
        "edges": profiler.edges(),
    }
    entry.update(extra)
    events = entry.get("events_processed")
    if isinstance(events, int) and wall > 0:
        entry["events_per_second"] = events / wall
    probes = entry.get("probes_sent")
    if isinstance(probes, int) and wall > 0:
        entry["probes_per_second"] = probes / wall
    return entry


def run_bench_suite(
    suite: str = "fast",
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run a pinned suite and return its (unwritten) bench document."""
    scenarios = SUITES.get(suite)
    if scenarios is None:
        raise ConfigurationError(
            f"unknown bench suite {suite!r} (have: {', '.join(sorted(SUITES))})"
        )
    entries: Dict[str, Dict[str, Any]] = {}
    for scenario in scenarios:
        if progress is not None:
            progress(f"running {scenario.name} ...")
        entries[scenario.name] = run_scenario(scenario)
    return make_bench_document(suite, entries)
