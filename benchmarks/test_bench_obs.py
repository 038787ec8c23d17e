"""Observability overhead guard: enabled registry vs NullRegistry.

The instrumentation layer promises to be cheap enough to leave on by
default. This benchmark runs the same short BADABING experiment under a
:class:`~repro.obs.metrics.NullRegistry` (hot paths skip all
instrumentation) and a live :class:`~repro.obs.metrics.MetricsRegistry`,
and fails if the enabled registry costs more than 10% extra wall time. It
also cross-checks that both modes produce identical estimates —
instrumentation must never perturb the simulation.

One run takes about 0.1 s, so a shared host's noise is the size of the
budget: on a 2-vCPU VM the minimum of five runs per mode read registry
ratios from 0.75 to 1.58 over ten runs of unchanged code. Like the
stage-profiler gate, both gates here time many pairs, alternating which
mode goes first, and compare the median of the per-pair ratios with the
budget; drift lands on both halves of a pair, and a few disturbed pairs
cannot move the median. On the same host the registry gate read 0.99 to
1.11 and the exporter gate 0.96 to 1.11 over ten runs, and 1.26 to 1.32
and 1.16 to 1.21 over five runs each with a 1.2x slowdown put into the
instrumented or exported path.

The enabled path now includes the full accuracy audit (episode join,
convergence telemetry, registry publication), so the same 10% budget
also guards the audit layer; under ``NullRegistry`` the audit must not
be built at all.
"""

from __future__ import annotations

import itertools
import statistics
import time
from typing import Any, NamedTuple

from repro.experiments.runner import run_badabing
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.summary import render_scorecard

RUN_KWARGS = dict(
    scenario="episodic_cbr",
    p=0.3,
    n_slots=2000,
    seed=3,
    warmup=2.0,
    scenario_kwargs={"mean_spacing": 2.0},
)

PAIRS = 21
MAX_OVERHEAD = 1.10


def _timed(registry_factory):
    registry = registry_factory()
    started = time.perf_counter()
    result, _truth = run_badabing(metrics=registry, **RUN_KWARGS)
    return time.perf_counter() - started, result


class Paired(NamedTuple):
    """Alternating-pair timings of a base mode and a changed mode."""

    ratio: float  # median of the per-pair changed/base ratios
    low: float  # smallest pair ratio
    high: float  # largest pair ratio
    base_s: float  # median seconds per mode
    changed_s: float
    base_result: Any  # the last pair's results
    changed_result: Any


def _paired(base, changed):
    """Time ``PAIRS`` pairs of ``base()`` and ``changed()``, each returning
    ``(seconds, result)``; odd pairs run ``changed`` first so neither mode
    always pays for the other's garbage."""
    ratios, base_times, changed_times = [], [], []
    for index in range(PAIRS):
        if index % 2:
            changed_s, changed_result = changed()
            base_s, base_result = base()
        else:
            base_s, base_result = base()
            changed_s, changed_result = changed()
        base_times.append(base_s)
        changed_times.append(changed_s)
        ratios.append(changed_s / base_s)
    return Paired(
        statistics.median(ratios),
        min(ratios),
        max(ratios),
        statistics.median(base_times),
        statistics.median(changed_times),
        base_result,
        changed_result,
    )


def test_enabled_registry_overhead_within_budget(archive, bench_record):
    # Warm caches/allocator once untimed, then time interleaved pairs.
    _timed(NullRegistry)
    timing = _paired(lambda: _timed(NullRegistry), lambda: _timed(MetricsRegistry))
    ratio = timing.ratio
    report = (
        f"observability overhead ({RUN_KWARGS['n_slots']} slots, "
        f"median of {PAIRS} alternating pairs):\n"
        f"  NullRegistry:    {timing.base_s * 1e3:8.1f} ms\n"
        f"  MetricsRegistry: {timing.changed_s * 1e3:8.1f} ms\n"
        f"  pair ratios:     {timing.low:8.3f}x .. {timing.high:.3f}x\n"
        f"  ratio:           {ratio:8.3f}x (budget {MAX_OVERHEAD:.2f}x)"
    )
    archive("bench_obs_overhead", report)
    bench_record(
        "obs_overhead",
        timing.changed_s,
        null_seconds=timing.base_s,
        overhead_ratio=ratio,
    )
    null_result, live_result = timing.base_result, timing.changed_result
    # Instrumentation must not perturb the measurement itself.
    assert live_result.frequency == null_result.frequency
    assert live_result.n_probes_sent == null_result.n_probes_sent
    # The audit layer rides inside the same overhead budget: built on the
    # live path, skipped entirely under NullRegistry.
    assert live_result.audit is not None
    assert null_result.audit is None
    assert ratio <= MAX_OVERHEAD, report


def _timed_with_exporter(registry_factory, tmp_path, tag):
    registry = registry_factory()
    from repro.obs.export import TelemetryExporter

    exporter = TelemetryExporter(
        registry, interval=1.0, path=tmp_path / f"bench-{tag}.ndjson"
    )
    exporter.start_thread()
    try:
        started = time.perf_counter()
        result, _truth = run_badabing(metrics=registry, **RUN_KWARGS)
        return time.perf_counter() - started, result, exporter
    finally:
        exporter.close()


def test_exporter_overhead_within_budget(archive, bench_record, tmp_path):
    """Tentpole budget: attaching a live exporter at a 1s interval must
    add at most 10% over the already-instrumented run, and under
    ``NullRegistry`` the exporter is a strict no-op (no file, no thread,
    no records)."""
    _timed(MetricsRegistry)
    tags = itertools.count()

    def exported():
        elapsed, result, _exporter = _timed_with_exporter(
            MetricsRegistry, tmp_path, f"live-{next(tags)}"
        )
        return elapsed, result

    timing = _paired(lambda: _timed(MetricsRegistry), exported)
    ratio = timing.ratio
    report = (
        f"telemetry-export overhead ({RUN_KWARGS['n_slots']} slots, "
        f"1s interval, median of {PAIRS} alternating pairs):\n"
        f"  registry only:       {timing.base_s * 1e3:8.1f} ms\n"
        f"  registry + exporter: {timing.changed_s * 1e3:8.1f} ms\n"
        f"  pair ratios:         {timing.low:8.3f}x .. {timing.high:.3f}x\n"
        f"  ratio:               {ratio:8.3f}x (budget {MAX_OVERHEAD:.2f}x)"
    )
    archive("bench_export_overhead", report)
    bench_record(
        "export_overhead",
        timing.changed_s,
        bare_seconds=timing.base_s,
        overhead_ratio=ratio,
    )
    bare_result, exported_result = timing.base_result, timing.changed_result
    # The exporter must never perturb the simulation it watches.
    assert exported_result.frequency == bare_result.frequency
    assert exported_result.n_probes_sent == bare_result.n_probes_sent
    # NullRegistry gate: zero work — no records, no snapshot file.
    _, null_result, null_exporter = _timed_with_exporter(
        NullRegistry, tmp_path, "null"
    )
    assert null_result.frequency == bare_result.frequency
    assert null_exporter.seq == 0
    assert not (tmp_path / "bench-null.ndjson").exists()
    assert ratio <= MAX_OVERHEAD, report


def test_exporter_does_not_change_registry_digest(tmp_path):
    """Same seed, with and without export: the monitored registry's
    snapshot digest must be byte-identical (seq/wall live only in the
    record envelope, alert state only on the exporter's side registry)."""
    from repro.obs.export import TelemetryExporter
    from repro.obs.metrics import snapshot_digest

    bare = MetricsRegistry()
    run_badabing(metrics=bare, **RUN_KWARGS)

    watched = MetricsRegistry()
    exporter = TelemetryExporter(
        watched, interval=0.01, path=tmp_path / "digest.ndjson"
    )
    exporter.start_thread()
    try:
        run_badabing(metrics=watched, **RUN_KWARGS)
    finally:
        exporter.close()
    assert snapshot_digest(watched.snapshot()) == snapshot_digest(bare.snapshot())


def test_audit_scorecard_archived(archive):
    """Archive the accuracy scorecard of the benchmark run for the report."""
    from repro.obs import scorecard_from_runs

    result, truth = run_badabing(metrics=MetricsRegistry(), **RUN_KWARGS)
    audit = result.audit
    assert audit is not None
    label = (
        f"{RUN_KWARGS['scenario']} p={RUN_KWARGS['p']} "
        f"N={RUN_KWARGS['n_slots']}"
    )
    scorecard = scorecard_from_runs([(label, audit, None, RUN_KWARGS["seed"])])
    lines = render_scorecard(scorecard.to_dict())
    counts = audit.episode_counts
    lines.append(
        f"  episodes: {audit.n_episodes} true — "
        f"{counts['detected']} detected, "
        f"{counts['partially_sampled']} partially sampled, "
        f"{counts['missed']} missed"
    )
    archive("audit_scorecard", "\n".join(lines))
