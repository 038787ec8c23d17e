"""Command-line front end: ``badabing-sim`` / ``python -m repro``.

Subcommands:

* ``measure`` — run one BADABING measurement against a chosen traffic
  scenario and print the estimate vs ground truth;
* ``zing`` — run the Poisson baseline the same way;
* ``sweep`` — run a grid of BADABING cells over ``p`` × seeds, optionally
  across worker processes, and print the per-cell outcomes + scorecard;
* ``table`` — reproduce one of the paper's tables (1-8);
* ``figure`` — reproduce one of the paper's figures (4-9b);
* ``live`` — run the probe process over real UDP sockets (``send`` to a
  remote reflector, ``reflect`` to serve one, ``loopback`` for both ends
  in one process, ``fleet`` for a many-session loopback soak against one
  multi-tenant reflector);
* ``fleet run`` — drive the adaptive fleet controller: a roster of
  paths (``--paths``/``--roster``), one global probe budget, and a
  convergence-driven rebalancing loop recorded as a controller-event
  NDJSON artifact;
* ``dash`` — live terminal dashboard over a running exporter's HTTP
  endpoint (``--url``) or an offline replay of a recorded snapshot
  stream (``--replay``);
* ``obs`` — summarize or validate exported metrics/trace/audit/export
  files (``summary --by-label`` splits merged fleet/sweep shards,
  ``--by-path`` folds a controller run's shards per path,
  ``validate --controller`` checks a controller event log);
* ``list`` — show available scenarios, tables, and figures.

Long-running commands (``sweep``, ``live reflect``, ``live fleet``)
accept ``--export-out``/``--export-interval`` (and, for the live ones,
``--export-port``/``--alert-rules``) to stream NDJSON registry
snapshots and serve ``/metrics``, ``/healthz``, ``/sessions`` while
they run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from typing import List, Optional

from repro.errors import ReproError
from repro.experiments.catalog import SCENARIO_NAMES
from repro.experiments.profiles import PROFILES, active_profile
from repro.net.faults import FAULT_PROFILES as _FAULT_PROFILES
from repro.obs import MetricsRegistry, StageProfiler, Tracer, profiling


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default=None,
        help="run-length profile (default: REPRO_PROFILE env or 'fast')",
    )


def _resolve_profile(name: Optional[str]):
    return PROFILES[name] if name else active_profile()


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        default="",
        help="write the run's metrics + manifest as JSON to this path",
    )
    parser.add_argument(
        "--trace-out",
        default="",
        help="write wall-clock phase spans as JSONL to this path",
    )


def _add_export_arguments(
    parser: argparse.ArgumentParser, with_http: bool = True
) -> None:
    parser.add_argument(
        "--export-out",
        default="",
        help="stream NDJSON registry snapshots (repro.obs.export/1) to this path",
    )
    parser.add_argument(
        "--export-interval",
        type=float,
        default=1.0,
        help="seconds between periodic export snapshots (default 1)",
    )
    if with_http:
        parser.add_argument(
            "--export-port",
            type=int,
            default=None,
            help="serve /metrics, /healthz and /sessions over HTTP on this "
            "port (0 = ephemeral; omit to disable the endpoint)",
        )
    parser.add_argument(
        "--alert-rules",
        default="",
        help="JSON alert-rule file evaluated each export "
        "(default: the built-in fleet rules)",
    )


def _add_faults_argument(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument(
        "--faults", choices=sorted(_FAULT_PROFILES), default="none", help=help
    )


def _add_probe_arguments(parser: argparse.ArgumentParser) -> None:
    """Probe-train and marking flags of the live and fleet commands."""
    parser.add_argument("--p", type=float, default=0.3, help="per-slot probe probability")
    parser.add_argument("--slot", type=float, default=0.005, help="slot width in seconds")
    parser.add_argument("--packets", type=int, default=3, help="packets per probe train")
    parser.add_argument("--size", type=int, default=600, help="probe size in bytes")
    parser.add_argument("--alpha", type=float, default=0.1, help="§6.1 delay fraction")
    parser.add_argument(
        "--tau", type=float, default=0.080, help="§6.1 loss proximity window (s)"
    )
    parser.add_argument(
        "--improved", action="store_true", help="use the §5.3 improved algorithm"
    )
    parser.add_argument("--seed", type=int, default=1)


def _export_requested(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "export_out", "")) or (
        getattr(args, "export_port", None) is not None
    )


@contextmanager
def _long_run(
    args: argparse.Namespace,
    meta,
    header: str = "",
    registry=None,
    default_rules=None,
):
    """Registry and exporter of a long-running command, as ``(registry, exporter)``.

    The registry is ``registry``, else a fresh one when --metrics-out or an
    exporter needs it, else None. The exporter comes from the --export-*
    flags (None when unused); it is announced after ``header`` and closed
    on every exit path, so a run killed by its deadline still leaves a
    valid snapshot stream. On a normal exit --metrics-out is written,
    before any summary line: a reader closing the pipe (`| head`) must not
    cost the file.
    """
    if registry is None and (args.metrics_out or _export_requested(args)):
        registry = MetricsRegistry()
    exporter = None
    if registry is not None and _export_requested(args):
        from repro.obs import TelemetryExporter, default_fleet_rules, load_alert_rules

        if args.alert_rules:
            rules = load_alert_rules(args.alert_rules)
        else:
            rules = default_rules if default_rules is not None else default_fleet_rules()
        exporter = TelemetryExporter(
            registry,
            interval=args.export_interval,
            path=args.export_out or None,
            http_port=getattr(args, "export_port", None),
            rules=rules,
            meta=meta,
        )
    if header:
        print(header)
    if exporter is not None:
        port = getattr(args, "export_port", None)
        if port is not None:
            where = f"127.0.0.1:{port}" if port else "127.0.0.1 (ephemeral port)"
            print(f"telemetry: /metrics /healthz /sessions on http://{where}")
        if args.export_out:
            print(f"telemetry: streaming snapshots to {args.export_out}")
    try:
        yield registry, exporter
    finally:
        if exporter is not None:
            exporter.close()
    if args.metrics_out:
        from repro.obs import write_metrics_document

        write_metrics_document(args.metrics_out, registry, None)


#: The artifact lines a long-running command ends with, in this order.
_WRITTEN = (
    ("controller_out", "controller events written to"),
    ("metrics_out", "metrics written to"),
    ("audit_out", "audit written to"),
    ("trace_out", "trace written to"),
    ("export_out", "export snapshots written to"),
)


def _print_written(args: argparse.Namespace) -> None:
    for flag, text in _WRITTEN:
        if getattr(args, flag, ""):
            print(f"{text} {getattr(args, flag)}")


def _run_obs(args: argparse.Namespace, **meta):
    """Registry and tracer of one run's --metrics-out / --trace-out."""
    metrics = MetricsRegistry() if args.metrics_out else None
    tracer = Tracer(**meta) if args.trace_out else None
    return metrics, tracer


def _tracing(tracer):
    """Scope a stage profiler that records into ``tracer`` (if any)."""
    if tracer is None:
        return nullcontext()
    return profiling(StageProfiler(tracer=tracer))


def _write_run_obs(args: argparse.Namespace, metrics, tracer, manifest) -> None:
    """Write one run's --metrics-out / --trace-out, each before its line."""
    if args.metrics_out:
        from repro.obs import write_metrics_document

        write_metrics_document(args.metrics_out, metrics, manifest)
        print(f"metrics written to {args.metrics_out}")
    if tracer is not None:
        tracer.write_jsonl(args.trace_out)
        print(f"trace written to {args.trace_out}")


def _duration_text(seconds: float) -> str:
    return "n/a (no transitions observed)" if math.isnan(seconds) else f"{seconds:.3f}s"


def _print_estimate(result) -> None:
    """The estimate lines of ``analyze`` and the live commands."""
    print(f"estimated loss frequency: {result.frequency:.4f}")
    print(f"estimated loss duration:  {_duration_text(result.duration_seconds)}")
    _print_checks(result, None)


def _print_checks(result, injector) -> None:
    """Validation, coverage and injected-fault accounting of one estimate."""
    validation = result.validation
    print(
        f"validation: transitions={validation.transition_count} "
        f"asymmetry={validation.transition_asymmetry:.3f} "
        f"violations={validation.violations}"
    )
    coverage = result.coverage
    if coverage is not None and not coverage.complete:
        print(f"degraded: {coverage.describe()}")
    if result.duplicate_arrivals:
        print(f"degraded: {result.duplicate_arrivals} duplicate arrivals discarded")
    if injector is not None:
        stats = injector.stats
        print(
            f"faults injected: dropped={stats.dropped} "
            f"(random={stats.dropped_random} burst={stats.dropped_burst} "
            f"flap={stats.dropped_flap} outage={stats.dropped_outage}) "
            f"duplicated={stats.duplicated} reordered={stats.reordered}"
        )


def _cmd_measure(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_badabing

    profile = _resolve_profile(args.profile)
    n_slots = args.slots if args.slots else profile.n_slots
    keep = {}
    metrics, tracer = _run_obs(
        args, tool="badabing", scenario=args.scenario, seed=args.seed
    )
    with _tracing(tracer):
        result, truth = run_badabing(
            args.scenario,
            p=args.p,
            n_slots=n_slots,
            seed=args.seed,
            improved=args.improved,
            warmup=profile.warmup,
            faults=args.faults if args.faults != "none" else None,
            metrics=metrics,
            keep=keep,
        )
    _write_run_obs(args, metrics, tracer, result.manifest)
    if args.audit_out:
        from repro.obs import (
            audit_document,
            scorecard_from_runs,
            write_audit_document,
        )

        if result.audit is None:
            print("audit unavailable: run executed without metrics", file=sys.stderr)
        else:
            label = f"{args.scenario} p={args.p} N={n_slots}"
            scorecard = scorecard_from_runs(
                [(label, result.audit, None, args.seed)]
            )
            write_audit_document(
                args.audit_out, audit_document(scorecard, runs=[result.audit])
            )
            print(f"audit written to {args.audit_out}")
    if args.save:
        from repro.io import save_measurement

        save_measurement(
            args.save,
            keep["tool"],
            metadata={"scenario": args.scenario, "seed": args.seed},
        )
        print(f"trace saved to {args.save}")
    print(f"scenario={args.scenario} p={args.p} N={n_slots} (seed {args.seed})")
    print(f"probes sent: {result.n_probes_sent}  load: {result.probe_load_bps / 1e3:.0f} kb/s")
    print(f"loss frequency: true={truth.frequency:.4f}  estimated={result.frequency:.4f}")
    print(
        f"loss duration:  true={truth.duration_mean:.3f}s "
        f"(σ {truth.duration_std:.3f})  "
        f"estimated={_duration_text(result.duration_seconds)}"
    )
    _print_checks(result, keep["fault_injector"])
    return 0


def _cmd_zing(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_zing

    profile = _resolve_profile(args.profile)
    metrics, tracer = _run_obs(args, tool="zing", scenario=args.scenario, seed=args.seed)
    with _tracing(tracer):
        result, truth = run_zing(
            args.scenario,
            mean_interval=1.0 / args.rate,
            packet_size=args.size,
            duration=args.duration if args.duration else profile.tool_duration,
            seed=args.seed,
            warmup=profile.warmup,
            metrics=metrics,
        )
    _write_run_obs(args, metrics, tracer, result.manifest)
    print(f"scenario={args.scenario} rate={args.rate}Hz size={args.size}B")
    print(f"probes sent: {result.n_sent}  lost: {result.n_lost}")
    print(f"loss frequency: true={truth.frequency:.4f}  reported={result.frequency:.4f}")
    print(
        f"loss duration:  true={truth.duration_mean:.3f}s "
        f"(σ {truth.duration_std:.3f})  reported={result.duration_mean:.3f}s"
    )
    return 0


def _parse_csv(text: str, convert, what: str):
    from repro.errors import ConfigurationError

    try:
        values = [convert(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(f"invalid {what} list: {text!r}")
    if not values:
        raise ConfigurationError(f"need at least one {what}, got {text!r}")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.runner import (
        RunBudget,
        scorecard_from_outcomes,
        sweep_badabing,
    )
    from repro.obs import render_scorecard, scorecard_digest, snapshot_digest

    profile = _resolve_profile(args.profile)
    n_slots = args.slots if args.slots else profile.n_slots
    ps = _parse_csv(args.p, float, "probe probability")
    seeds = _parse_csv(args.seeds, int, "seed")
    cells = [{"p": p, "seed": seed} for p in ps for seed in seeds]
    budget = (
        RunBudget(max_events=args.max_events) if args.max_events else None
    )
    metrics = MetricsRegistry()
    tracer = Tracer(tool="badabing-sweep") if args.trace_out else None
    with _tracing(tracer), _long_run(
        args, {"tool": "badabing-sweep"}, registry=metrics
    ) as (_, exporter):
        outcomes = sweep_badabing(
            cells,
            budget=budget,
            metrics=metrics,
            workers=args.workers if args.workers > 1 else None,
            max_wall_seconds=args.max_wall_seconds if args.max_wall_seconds else None,
            exporter=exporter,
            scenario=args.scenario,
            n_slots=n_slots,
            warmup=profile.warmup,
            improved=args.improved,
        )
    scorecard = scorecard_from_outcomes(outcomes)
    # Write requested artifacts before any stdout: a downstream reader
    # closing the pipe (`| head`) must not cost the exported files.
    if args.audit_out:
        from repro.obs import audit_document, write_audit_document

        audits = [
            outcome.result.audit
            for outcome in outcomes
            if outcome.ok and getattr(outcome.result, "audit", None) is not None
        ]
        write_audit_document(args.audit_out, audit_document(scorecard, runs=audits))
    if tracer is not None:
        tracer.write_jsonl(args.trace_out)
    mode = f"{args.workers} workers" if args.workers > 1 else "serial"
    print(
        f"sweep: scenario={args.scenario} cells={len(cells)} "
        f"(p in {ps}, seeds {seeds}, N={n_slots}) [{mode}]"
    )
    for outcome in outcomes:
        print(f"  {outcome.describe()}")
    for line in render_scorecard(scorecard.to_dict()):
        print(line)
    print(f"scorecard digest: {scorecard_digest(scorecard)}")
    print(f"metrics digest:   {snapshot_digest(metrics.snapshot())}")
    _print_written(args)
    return 0 if any(outcome.ok for outcome in outcomes) else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.config import MarkingConfig
    from repro.io import load_measurement, reestimate

    measurement = load_measurement(args.trace, recover=args.recover)
    for diagnostic in measurement.diagnostics:
        print(
            f"recovered: skipped corrupt line {diagnostic.line_number}: "
            f"{diagnostic.reason}",
            file=sys.stderr,
        )
    result = reestimate(
        measurement, marking=MarkingConfig(alpha=args.alpha, tau=args.tau)
    )
    print(
        f"trace: {args.trace} (N={measurement.n_slots}, p={measurement.p}, "
        f"{len(measurement.probes)} probes)"
    )
    if measurement.metadata:
        print(f"metadata: {measurement.metadata}")
    print(f"marking: alpha={args.alpha} tau={args.tau * 1000:.0f}ms")
    _print_estimate(result)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments.render import render_table
    from repro.experiments.tables import ALL_TABLES

    key = f"table{args.number}"
    builder = ALL_TABLES.get(key)
    if builder is None:
        print(f"unknown table {args.number}; choose 1-8", file=sys.stderr)
        return 2
    profile = _resolve_profile(args.profile)
    kwargs = {"profile": profile}
    if args.seed:
        kwargs["seed"] = args.seed
    print(render_table(builder(**kwargs)))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import render
    from repro.experiments.figures import ALL_FIGURES

    key = args.name if args.name.startswith("fig") else f"fig{args.name}"
    builder = ALL_FIGURES.get(key)
    if builder is None:
        print(
            f"unknown figure {args.name}; choose from {sorted(ALL_FIGURES)}",
            file=sys.stderr,
        )
        return 2
    profile = _resolve_profile(args.profile)
    result = builder(profile=profile)
    if key in ("fig4", "fig5", "fig6"):
        print(render.render_queue_series(result))
    elif key == "fig7":
        print(render.render_train_sensitivity(result))
    elif key == "fig8":
        print(render.render_probe_impact(result))
    else:
        print(render.render_sensitivity(result))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from repro.experiments.report import write_report

    profile = _resolve_profile(args.profile)
    output = pathlib.Path(args.out) if args.out else None
    path = write_report(pathlib.Path(args.results_dir), profile.name, output)
    print(f"report written to {path}")
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    import time as _time

    from repro.errors import ConfigurationError
    from repro.obs.dash import (
        CLEAR,
        fetch_sessions,
        render_frame,
        replay_documents,
    )

    if bool(args.url) == bool(args.replay):
        raise ConfigurationError("dash needs exactly one of --url or --replay")

    def show(document, first: bool) -> None:
        if not args.no_clear and not args.once:
            print(CLEAR, end="")
        elif not first:
            print()
        print(render_frame(document), end="")

    frames = 0
    try:
        if args.replay:
            documents = list(replay_documents(args.replay))
            if args.once:
                documents = documents[-1:]
            if args.frames:
                documents = documents[: args.frames]
            for index, document in enumerate(documents):
                show(document, first=index == 0)
                frames += 1
                if args.interval and index + 1 < len(documents):
                    _time.sleep(args.interval)
        else:
            while True:
                show(fetch_sessions(args.url), first=frames == 0)
                frames += 1
                if args.once or (args.frames and frames >= args.frames):
                    break
                _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    if not args.no_clear and not args.once:
        print(f"({frames} frame{'s' if frames != 1 else ''} rendered)")
    return 0


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    import json

    from repro.obs import load_metrics_document, render_summary, summary_document
    from repro.obs.schema import validate_trace_file

    document = load_metrics_document(args.metrics)
    trace_lines = None
    if args.trace:
        from repro.errors import ObservabilityError

        try:
            with open(args.trace, "r", encoding="utf-8") as handle:
                trace_lines = [json.loads(line) for line in handle if line.strip()]
        except OSError as exc:
            raise ObservabilityError(f"cannot read trace {args.trace}: {exc}")
        except json.JSONDecodeError as exc:
            raise ObservabilityError(f"{args.trace}: invalid JSON ({exc.msg})")
        problems = validate_trace_file(args.trace)
        if problems:
            print(f"warning: trace has {len(problems)} schema problem(s)", file=sys.stderr)
    if args.slow:
        from repro.errors import ObservabilityError
        from repro.obs.summary import render_slowest_spans

        if trace_lines is None:
            raise ObservabilityError("--slow needs a trace file (--trace)")
        print("\n".join(render_slowest_spans(trace_lines, top=args.slow)))
        return 0
    if args.json:
        print(json.dumps(summary_document(document, trace_lines), indent=2))
    elif args.by_label or args.by_path:
        from repro.obs import render_grouped_summary

        print(render_grouped_summary(document, trace_lines, by_path=args.by_path))
    else:
        print(render_summary(document, trace_lines))
    return 0


def _cmd_obs_audit(args: argparse.Namespace) -> int:
    import json

    from repro.obs import render_audit
    from repro.obs.schema import load_audit_document

    document = load_audit_document(args.audit)
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        print(render_audit(document))
    return 0


def _cmd_obs_validate(args: argparse.Namespace) -> int:
    import json

    from repro.live.controller import validate_controller_file
    from repro.obs.bench import validate_bench_document
    from repro.obs.export import validate_export_file
    from repro.obs.schema import (
        validate_audit_document,
        validate_metrics_document,
        validate_trace_file,
    )

    # (path, validator, whether the validator takes the parsed JSON document
    # rather than the path), in the order the files are checked.
    inputs = (
        (args.metrics, validate_metrics_document, True),
        (args.trace, validate_trace_file, False),
        (args.audit, validate_audit_document, True),
        (args.export, validate_export_file, False),
        (args.bench, validate_bench_document, True),
        (args.controller, validate_controller_file, False),
    )
    if not any(path for path, _, _ in inputs):
        print(
            "error: nothing to validate — give a metrics file and/or "
            "--trace/--audit/--export/--bench/--controller",
            file=sys.stderr,
        )
        return 2
    failures = 0
    for path, validate, parsed in inputs:
        if not path:
            continue
        subject = path
        if parsed:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    subject = json.load(handle)
            except OSError as exc:
                print(f"error: cannot read {path}: {exc}", file=sys.stderr)
                return 2
            except json.JSONDecodeError as exc:
                print(f"error: {path}: invalid JSON ({exc.msg})", file=sys.stderr)
                return 2
        problems = validate(subject)
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        failures += len(problems)
    if failures:
        print(f"validation FAILED: {failures} problem(s)", file=sys.stderr)
        return 1
    print("validation OK")
    return 0


def _cmd_obs_profile(args: argparse.Namespace) -> int:
    from repro.obs.bench import load_bench_document, render_profile_document

    document = load_bench_document(args.bench)
    print(
        "\n".join(
            render_profile_document(
                document, scenario=args.scenario or None, top=args.top
            )
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import (
        compare_bench_documents,
        load_bench_document,
        render_bench_document,
        write_bench_document,
    )

    if args.compare:
        old = load_bench_document(args.compare[0])
        new = load_bench_document(args.compare[1])
        lines, regressions = compare_bench_documents(
            old, new, threshold=args.threshold
        )
        print("\n".join(lines))
        if regressions:
            print(
                f"{len(regressions)} perf regression(s) above "
                f"{args.threshold:g}x",
                file=sys.stderr,
            )
            return 1
        return 0
    from repro.experiments.bench import run_bench_suite

    document = run_bench_suite(
        args.suite, progress=lambda message: print(message, file=sys.stderr)
    )
    out = args.out or f"BENCH_{args.suite}.json"
    write_bench_document(out, document)
    print("\n".join(render_bench_document(document)))
    print(f"wrote {out}")
    return 0


def _live_config(args: argparse.Namespace):
    """Build the live run's BadabingConfig from CLI arguments."""
    from repro.config import BadabingConfig, MarkingConfig, ProbeConfig
    from repro.errors import ConfigurationError

    # ProbeConfig checks the slot (positive, finite) before it divides.
    probe = ProbeConfig(
        slot=args.slot,
        probe_size=args.size,
        packets_per_probe=args.packets,
    )
    if not (args.slots or math.isfinite(args.duration)):
        raise ConfigurationError(f"--duration must be finite, got {args.duration}")
    n_slots = args.slots if args.slots else int(round(args.duration / probe.slot))
    if n_slots < 2:
        raise ConfigurationError(
            f"live run needs at least 2 slots (duration {args.duration}s "
            f"at {args.slot}s slots gives {n_slots})"
        )
    return BadabingConfig(
        probe=probe,
        marking=MarkingConfig(alpha=args.alpha, tau=args.tau),
        p=args.p,
        n_slots=n_slots,
        improved=args.improved,
    )


def _live_budget(args: argparse.Namespace):
    """Optional RunBudget from --max-packets / --max-seconds."""
    from repro.experiments.budget import RunBudget

    if not args.max_packets and not args.max_seconds:
        return None
    return RunBudget(
        max_events=args.max_packets if args.max_packets else None,
        max_wall_seconds=args.max_seconds if args.max_seconds else None,
    )


def _print_live_result(run, args: argparse.Namespace, metrics, tracer) -> int:
    """Shared output path for ``live send`` and ``live loopback``: the
    result, then the artifacts."""
    stats = run.stats
    spec = run.spec
    print(
        f"live session {run.session_id:#x}: p={spec.p:.6f} N={spec.n_slots} "
        f"slot={spec.slot_seconds * 1000:.1f}ms k={spec.packets_per_probe} "
        f"(seed {args.seed})"
    )
    print(
        f"packets sent: {stats.packets_sent} ({stats.trains_sent} trains)  "
        f"echoes: {stats.echoes_received}  elapsed: {stats.elapsed_seconds:.3f}s"
    )
    if stats.stopped:
        print(f"degraded: stopped early ({stats.stopped}); partial estimate")
    _print_estimate(run.result)
    if run.reflector is not None:
        summary = run.reflector
        print(
            f"reflector: received={summary.probes_received} "
            f"echoed={summary.probes_echoed} "
            f"impaired_drops={summary.impaired_drops} "
            f"wire_errors={summary.wire_errors}"
        )
    if run.receiver_result is not None:
        print(
            "receiver cross-check: estimated loss frequency: "
            f"{run.receiver_result.frequency:.4f}"
        )
    _write_run_obs(args, metrics, tracer, run.manifest)
    if args.save:
        print(f"trace saved to {args.save}")
    return 0


def _cmd_live_send(args: argparse.Namespace) -> int:
    from repro.live import live_send

    metrics, tracer = _run_obs(
        args, tool="badabing-live", scenario="live-send", seed=args.seed
    )
    with _tracing(tracer):
        run = live_send(
            args.host,
            args.port,
            config=_live_config(args),
            seed=args.seed,
            registry=metrics,
            budget=_live_budget(args),
            trace_path=args.save or None,
            handle_sigint=True,
        )
    return _print_live_result(run, args, metrics, tracer)


def _fleet_policy(args: argparse.Namespace):
    """Optional FleetPolicy from the admission/eviction/rate flags."""
    from repro.live import FleetPolicy

    if not (
        args.max_sessions or args.max_pps or args.rate_cap or args.idle_timeout
    ):
        return None
    return FleetPolicy(
        max_sessions=args.max_sessions if args.max_sessions else None,
        max_aggregate_pps=args.max_pps if args.max_pps else None,
        rate_cap_pps=args.rate_cap if args.rate_cap else None,
        idle_timeout=args.idle_timeout if args.idle_timeout > 0 else None,
    )


def _add_fleet_policy_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--max-sessions",
        type=int,
        default=0,
        help="admission cap on concurrent sessions (extra HELLOs get BUSY)",
    )
    sub.add_argument(
        "--max-pps",
        type=float,
        default=0.0,
        help="admission cap on aggregate nominal probe packets/second",
    )
    sub.add_argument(
        "--rate-cap",
        type=float,
        default=0.0,
        help="per-session token-bucket rate (packets/second); default sizes "
        "each bucket from the session's own declared schedule",
    )
    sub.add_argument(
        "--idle-timeout",
        type=float,
        default=0.0,
        help="evict sessions idle this many seconds (default: derive the "
        "deadline from each session's own spec)",
    )


def _cmd_live_reflect(args: argparse.Namespace) -> int:
    from repro.live import live_reflect

    with _long_run(
        args,
        {"tool": "badabing-reflector", "mode": args.mode},
        header=f"reflecting on {args.host}:{args.port} (mode={args.mode}) "
        "— Ctrl-C to stop",
    ) as (metrics, exporter):
        protocol = live_reflect(
            host=args.host,
            port=args.port,
            faults=args.faults if args.faults != "none" else None,
            seed=args.seed,
            registry=metrics,
            mode=args.mode,
            policy=_fleet_policy(args),
            serve_sessions=args.serve_sessions if args.serve_sessions else None,
            exit_idle=args.exit_idle if args.exit_idle > 0 else None,
            handle_sigint=True,
            exporter=exporter,
        )
    print(
        f"served {protocol.sessions_admitted} session(s): "
        f"received={protocol.probes_received_total} "
        f"echoed={protocol.probes_echoed_total} "
        f"wire_errors={protocol.wire_errors} "
        f"unknown_session={protocol.unknown_session}"
    )
    if protocol.admission_rejected or protocol.evicted or protocol.rate_limited_total:
        print(
            f"fleet: rejected={protocol.admission_rejected} "
            f"evicted={protocol.evicted} "
            f"rate_limited={protocol.rate_limited_total}"
        )
    _print_written(args)
    return 0


def _cmd_live_loopback(args: argparse.Namespace) -> int:
    from repro.live import live_loopback

    metrics, tracer = _run_obs(
        args, tool="badabing-live", scenario="live-loopback", seed=args.seed
    )
    with _tracing(tracer):
        run = live_loopback(
            config=_live_config(args),
            seed=args.seed,
            faults=args.faults if args.faults != "none" else None,
            registry=metrics,
            budget=_live_budget(args),
            trace_path=args.save or None,
            handle_sigint=True,
        )
    return _print_live_result(run, args, metrics, tracer)


def _cmd_live_fleet(args: argparse.Namespace) -> int:
    from repro.live import fleet_loopback

    with _long_run(
        args, {"tool": "badabing-fleet", "sessions": args.sessions}
    ) as (metrics, exporter):
        soak = fleet_loopback(
            _live_config(args),
            n_sessions=args.sessions,
            base_seed=args.seed,
            policy=_fleet_policy(args),
            faults=args.faults if args.faults != "none" else None,
            registry=metrics,
            budget=_live_budget(args),
            stagger_seconds=args.stagger,
            exporter=exporter,
        )
    failed = [outcome for outcome in soak.outcomes if not outcome.ok]
    print(
        f"fleet soak: {len(soak.outcomes)} session(s), "
        f"{len(soak.outcomes) - len(failed)} ok, {len(failed)} failed, "
        f"{len(soak.degraded)} degraded"
    )
    print(
        f"reflector: admitted={soak.sessions_admitted} "
        f"active={soak.sessions_active} rejected={soak.admission_rejected} "
        f"evicted={soak.evicted} rate_limited={soak.rate_limited} "
        f"wire_errors={soak.wire_errors} unknown_session={soak.unknown_session}"
    )
    frequencies = [
        outcome.result.frequency
        for outcome in soak.outcomes
        if outcome.ok and outcome.result is not None
    ]
    if frequencies:
        print(
            f"loss frequency: mean={sum(frequencies) / len(frequencies):.4f} "
            f"min={min(frequencies):.4f} max={max(frequencies):.4f}"
        )
    for outcome in failed:
        print(f"  {outcome.describe()}", file=sys.stderr)
    _print_written(args)
    if failed or soak.wire_errors:
        print("fleet soak FAILED", file=sys.stderr)
        return 1
    return 0


def _fleet_template_config(args: argparse.Namespace, overrides=None):
    """Per-path BadabingConfig: CLI template + roster-entry overrides.

    ``n_slots`` is a placeholder — the controller sizes every launched
    session itself (``dataclasses.replace(config, n_slots=...)``).
    """
    from repro.config import BadabingConfig, MarkingConfig, ProbeConfig

    entry = overrides or {}
    return BadabingConfig(
        probe=ProbeConfig(
            slot=float(entry.get("slot", args.slot)),
            probe_size=int(entry.get("size", args.size)),
            packets_per_probe=int(entry.get("packets", args.packets)),
        ),
        marking=MarkingConfig(
            alpha=float(entry.get("alpha", args.alpha)),
            tau=float(entry.get("tau", args.tau)),
        ),
        p=float(entry.get("p", args.p)),
        n_slots=max(2, args.min_session_slots),
        improved=bool(entry.get("improved", args.improved)),
    )


def _fleet_paths(args: argparse.Namespace):
    """PathTarget roster from --roster JSON or --paths name[:faults] list."""
    import json

    from repro.errors import ConfigurationError
    from repro.live import PathTarget

    def resolve_faults(name):
        if not name or name == "none":
            return None
        if name not in _FAULT_PROFILES:
            raise ConfigurationError(
                f"unknown fault profile {name!r} "
                f"(choose from {', '.join(sorted(_FAULT_PROFILES))})"
            )
        return name

    targets = []
    if args.roster:
        try:
            with open(args.roster, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError as exc:
            raise ConfigurationError(f"cannot read roster {args.roster}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{args.roster}: invalid JSON ({exc.msg})"
            )
        entries = document.get("paths") if isinstance(document, dict) else None
        if not isinstance(entries, list) or not entries:
            raise ConfigurationError(
                f'{args.roster}: expected {{"paths": [{{...}}, ...]}}'
            )
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict) or "name" not in entry:
                raise ConfigurationError(
                    f"{args.roster}: paths[{index}] needs at least a 'name'"
                )
            targets.append(
                PathTarget(
                    name=str(entry["name"]),
                    config=_fleet_template_config(args, entry),
                    host=str(entry.get("host", "127.0.0.1")),
                    port=int(entry.get("port", 0)),
                    faults=resolve_faults(entry.get("faults")),
                )
            )
    elif args.paths:
        for token in _parse_csv(args.paths, str, "path"):
            name, _, faults = token.partition(":")
            targets.append(
                PathTarget(
                    name=name.strip(),
                    config=_fleet_template_config(args),
                    faults=resolve_faults(faults.strip()),
                )
            )
    else:
        raise ConfigurationError("fleet run needs --paths or --roster")
    return targets


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from repro.experiments.fleetrun import fleet_run
    from repro.live import ControllerPolicy
    from repro.obs import controller_alert_rules, default_fleet_rules

    targets = _fleet_paths(args)
    policy = ControllerPolicy(
        budget_slots=args.budget,
        round_slots=args.round_slots,
        min_session_slots=args.min_session_slots,
    )
    with _long_run(
        args,
        {"tool": "badabing-fleet-controller", "paths": len(targets)},
        header=f"fleet controller: {len(targets)} path(s), budget {args.budget} "
        f"slots, rebalance every {args.rebalance_interval}s (seed {args.seed})",
        default_rules=default_fleet_rules() + controller_alert_rules(),
    ) as (metrics, exporter):
        result = fleet_run(
            targets,
            policy=policy,
            base_seed=args.seed,
            registry=metrics,
            exporter=exporter,
            events_path=args.controller_out or None,
            rebalance_interval=args.rebalance_interval,
            max_wall_seconds=args.max_wall_seconds or None,
            fleet_policy=_fleet_policy(args),
        )
    print(
        f"{'path':<16} {'F_hat':>8} {'dF':>9} {'D_hat':>8} "
        f"{'rounds':>6} {'slots':>6} {'busy':>4} conv"
    )
    for name, signals in result.path_summary.items():
        f_hat = signals["f_hat"]
        delta = signals["delta_f"]
        d_hat = signals["d_hat_seconds"]
        print(
            f"{name:<16} "
            + (f"{f_hat:>8.4f}" if f_hat is not None else f"{'—':>8}")
            + " "
            + (f"{delta:>+9.4f}" if delta is not None else f"{'—':>9}")
            + " "
            + (f"{d_hat:>7.3f}s" if d_hat is not None else f"{'—':>8}")
            + f" {signals['rounds']:>6} {signals['spent_slots']:>6}"
            + f" {signals['busy_deferrals']:>4} "
            + ("yes" if signals["converged"] else "no")
        )
    completed = len(result.completion_order)
    failed = result.failures
    print(
        f"sessions: {completed} completed, {len(failed)} failed; "
        f"budget remaining: {result.remaining_slots} slots; "
        f"wall: {result.wall_seconds:.1f}s"
        + (" (deadline hit)" if result.deadline_hit else "")
    )
    if result.merged_digest:
        print(f"merged registry digest: {result.merged_digest}")
        print(f"serial replay digest:   {result.replay_digest}")
        print(f"digest match: {'yes' if result.digest_match else 'NO'}")
    for outcome in failed:
        print(f"  {outcome.describe()}", file=sys.stderr)
    _print_written(args)
    if failed or (result.merged_digest and not result.digest_match):
        print("fleet run FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.experiments.figures import ALL_FIGURES
    from repro.experiments.tables import ALL_TABLES

    print("scenarios:", ", ".join(sorted(SCENARIO_NAMES)))
    print("tables:   ", ", ".join(sorted(ALL_TABLES)))
    print("figures:  ", ", ".join(sorted(ALL_FIGURES)))
    print("profiles: ", ", ".join(sorted(PROFILES)))
    print("faults:   ", ", ".join(sorted(_FAULT_PROFILES)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="badabing-sim",
        description="Reproduction of SIGCOMM'05 'Improving Accuracy in "
        "End-to-end Packet Loss Measurement' (BADABING).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser("measure", help="run one BADABING measurement")
    measure.add_argument("scenario", choices=sorted(SCENARIO_NAMES))
    measure.add_argument("--p", type=float, default=0.3, help="per-slot probe probability")
    measure.add_argument("--slots", type=int, default=0, help="number of 5ms slots (N)")
    measure.add_argument("--seed", type=int, default=1)
    measure.add_argument("--improved", action="store_true", help="use the §5.3 improved algorithm")
    measure.add_argument("--save", default="", help="save the measurement trace (JSONL)")
    _add_faults_argument(measure, "inject a named fault profile on the measured path")
    measure.add_argument(
        "--audit-out",
        default="",
        help="write the estimate-vs-truth accuracy audit as JSON to this path",
    )
    _add_obs_arguments(measure)
    _add_profile_argument(measure)
    measure.set_defaults(handler=_cmd_measure)

    analyze = commands.add_parser(
        "analyze", help="re-analyze a saved measurement trace offline"
    )
    analyze.add_argument("trace", help="path to a badabing-trace JSONL file")
    analyze.add_argument("--alpha", type=float, default=0.1, help="§6.1 delay fraction")
    analyze.add_argument("--tau", type=float, default=0.080, help="§6.1 loss proximity window (s)")
    analyze.add_argument(
        "--recover",
        action="store_true",
        help="skip corrupt trace lines (with diagnostics) instead of aborting",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    sweep = commands.add_parser(
        "sweep", help="run a grid of BADABING cells, optionally in parallel"
    )
    sweep.add_argument("scenario", choices=sorted(SCENARIO_NAMES))
    sweep.add_argument(
        "--p",
        default="0.1,0.3,0.5",
        help="comma-separated per-slot probe probabilities (default 0.1,0.3,0.5)",
    )
    sweep.add_argument(
        "--seeds",
        default="1",
        help="comma-separated seeds; the grid is the p × seeds cross product",
    )
    sweep.add_argument("--slots", type=int, default=0, help="number of 5ms slots (N)")
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial; >1 dispatches cells to a process pool)",
    )
    sweep.add_argument(
        "--max-events",
        type=int,
        default=0,
        help="per-cell simulator event budget (0 = unlimited)",
    )
    sweep.add_argument(
        "--max-wall-seconds",
        type=float,
        default=0.0,
        help="sweep-level deadline: skip cells not started by then (0 = none)",
    )
    sweep.add_argument(
        "--improved", action="store_true", help="use the §5.3 improved algorithm"
    )
    sweep.add_argument(
        "--audit-out",
        default="",
        help="write the sweep scorecard + per-cell audits as JSON to this path",
    )
    _add_obs_arguments(sweep)
    _add_export_arguments(sweep, with_http=False)
    _add_profile_argument(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    zing = commands.add_parser("zing", help="run the Poisson (ZING) baseline")
    zing.add_argument("scenario", choices=sorted(SCENARIO_NAMES))
    zing.add_argument("--rate", type=float, default=10.0, help="mean probe rate in Hz")
    zing.add_argument("--size", type=int, default=256, help="probe size in bytes")
    zing.add_argument("--duration", type=float, default=0.0, help="seconds of probing")
    zing.add_argument("--seed", type=int, default=1)
    _add_obs_arguments(zing)
    _add_profile_argument(zing)
    zing.set_defaults(handler=_cmd_zing)

    live = commands.add_parser(
        "live", help="run the probe process over real UDP sockets"
    )
    live_commands = live.add_subparsers(dest="live_command", required=True)

    def _add_live_probe_arguments(sub: argparse.ArgumentParser) -> None:
        _add_probe_arguments(sub)
        sub.add_argument(
            "--duration", type=float, default=30.0, help="measurement seconds (sets N)"
        )
        sub.add_argument(
            "--slots", type=int, default=0, help="number of slots (overrides --duration)"
        )
        sub.add_argument(
            "--max-packets", type=int, default=0, help="stop after this many probe packets"
        )
        sub.add_argument(
            "--max-seconds", type=float, default=0.0, help="stop after this much wall time"
        )
        sub.add_argument("--save", default="", help="stream the probe trace (JSONL) here")
        _add_obs_arguments(sub)

    live_send = live_commands.add_parser(
        "send", help="probe a reflector at HOST:PORT"
    )
    live_send.add_argument("host", help="reflector address")
    live_send.add_argument("port", type=int, help="reflector UDP port")
    _add_live_probe_arguments(live_send)
    live_send.set_defaults(handler=_cmd_live_send)

    live_reflect = live_commands.add_parser(
        "reflect", help="serve probe sessions (echo or sink)"
    )
    live_reflect.add_argument("--host", default="0.0.0.0", help="bind address")
    live_reflect.add_argument("--port", type=int, default=5005, help="bind UDP port")
    live_reflect.add_argument(
        "--mode", choices=("echo", "sink"), default="echo", help="echo probes or only record"
    )
    _add_faults_argument(
        live_reflect, "emulate forward-path loss with a named fault profile"
    )
    live_reflect.add_argument("--seed", type=int, default=1, help="impairment seed")
    _add_fleet_policy_arguments(live_reflect)
    live_reflect.add_argument(
        "--serve-sessions",
        type=int,
        default=0,
        help="exit after this many finished sessions",
    )
    live_reflect.add_argument(
        "--exit-idle",
        type=float,
        default=0.0,
        help="exit after a finished session plus this many idle seconds",
    )
    live_reflect.add_argument(
        "--metrics-out", default="", help="write reflector metrics as JSON to this path"
    )
    _add_export_arguments(live_reflect)
    live_reflect.set_defaults(handler=_cmd_live_reflect)

    live_loopback = live_commands.add_parser(
        "loopback", help="run sender and reflector in-process over 127.0.0.1"
    )
    _add_live_probe_arguments(live_loopback)
    _add_faults_argument(
        live_loopback, "emulate forward-path loss at the in-process reflector"
    )
    live_loopback.set_defaults(handler=_cmd_live_loopback)

    live_fleet = live_commands.add_parser(
        "fleet",
        help="many-session loopback soak against one fleet reflector",
    )
    _add_live_probe_arguments(live_fleet)
    live_fleet.add_argument(
        "--sessions", type=int, default=50, help="concurrent sender sessions"
    )
    live_fleet.add_argument(
        "--stagger",
        type=float,
        default=0.0,
        help="stagger session starts by this many seconds each",
    )
    _add_faults_argument(
        live_fleet, "emulate forward-path loss at the in-process reflector"
    )
    _add_fleet_policy_arguments(live_fleet)
    _add_export_arguments(live_fleet)
    live_fleet.set_defaults(handler=_cmd_live_fleet)

    fleet = commands.add_parser(
        "fleet",
        help="multi-path probe orchestration (adaptive fleet controller)",
    )
    fleet_commands = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_commands.add_parser(
        "run",
        help="spend one probe budget across a roster of paths, rebalancing "
        "toward unconverged ones",
    )
    fleet_run.add_argument(
        "--paths",
        default="",
        help="comma-separated roster: name or name:fault-profile "
        "(loopback reflectors are spun per path, e.g. "
        "'clean-a,clean-b,lossy:bursty')",
    )
    fleet_run.add_argument(
        "--roster",
        default="",
        help="JSON roster file {'paths': [{name, faults, host, port, "
        "p, slot, packets, size, alpha, tau, improved}, ...]} "
        "(overrides --paths)",
    )
    fleet_run.add_argument(
        "--budget", type=int, default=6000, help="global probe budget in slots"
    )
    fleet_run.add_argument(
        "--round-slots",
        type=int,
        default=200,
        help="nominal per-path slots per rebalance round",
    )
    fleet_run.add_argument(
        "--min-session-slots",
        type=int,
        default=40,
        help="floor on a launched session's slot count",
    )
    fleet_run.add_argument(
        "--rebalance-interval",
        type=float,
        default=0.25,
        help="seconds between controller decision passes",
    )
    fleet_run.add_argument(
        "--max-wall-seconds",
        type=float,
        default=0.0,
        help="stop launching and drain after this much wall time (0 = none)",
    )
    fleet_run.add_argument(
        "--controller-out",
        default="",
        help="write controller events (repro.live.controller/1 NDJSON) here",
    )
    _add_probe_arguments(fleet_run)
    fleet_run.add_argument(
        "--metrics-out",
        default="",
        help="write the merged export-facing registry as JSON to this path",
    )
    _add_fleet_policy_arguments(fleet_run)
    _add_export_arguments(fleet_run)
    fleet_run.set_defaults(handler=_cmd_fleet_run)

    obs = commands.add_parser(
        "obs", help="inspect exported observability artifacts"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    obs_summary = obs_commands.add_parser(
        "summary", help="human-readable report from a metrics JSON document"
    )
    obs_summary.add_argument("metrics", help="path written by --metrics-out")
    obs_summary.add_argument(
        "--trace", default="", help="optional trace JSONL written by --trace-out"
    )
    obs_summary.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON summary"
    )
    obs_summary.add_argument(
        "--by-label",
        action="store_true",
        help="group merged fleet/sweep shards by session/cell label "
        "instead of one flat table",
    )
    obs_summary.add_argument(
        "--by-path",
        action="store_true",
        help="group shards by their path/ label prefix (controller runs)",
    )
    obs_summary.add_argument(
        "--slow",
        type=int,
        default=0,
        metavar="N",
        help="show only the N individually slowest spans from --trace",
    )
    obs_summary.set_defaults(handler=_cmd_obs_summary)
    obs_audit = obs_commands.add_parser(
        "audit", help="render an accuracy-audit document written by --audit-out"
    )
    obs_audit.add_argument("audit", help="path written by --audit-out")
    obs_audit.add_argument(
        "--json", action="store_true", help="emit the validated document as JSON"
    )
    obs_audit.set_defaults(handler=_cmd_obs_audit)
    obs_validate = obs_commands.add_parser(
        "validate", help="check metrics/trace/audit/export files against the obs schemas"
    )
    obs_validate.add_argument(
        "metrics", nargs="?", default="", help="path written by --metrics-out"
    )
    obs_validate.add_argument(
        "--trace", default="", help="optional trace JSONL written by --trace-out"
    )
    obs_validate.add_argument(
        "--audit", default="", help="optional audit JSON written by --audit-out"
    )
    obs_validate.add_argument(
        "--export",
        default="",
        help="optional NDJSON snapshot stream written by --export-out",
    )
    obs_validate.add_argument(
        "--bench",
        default="",
        help="optional BENCH_*.json document written by `repro bench`",
    )
    obs_validate.add_argument(
        "--controller",
        default="",
        help="optional controller-event NDJSON written by "
        "`repro fleet run --controller-out`",
    )
    obs_validate.set_defaults(handler=_cmd_obs_validate)
    obs_profile = obs_commands.add_parser(
        "profile",
        help="render per-stage self-time table and call tree from a "
        "BENCH_*.json document",
    )
    obs_profile.add_argument("bench", help="path written by `repro bench --out`")
    obs_profile.add_argument(
        "--scenario",
        default="",
        help="render only this scenario (default: all in the document)",
    )
    obs_profile.add_argument(
        "--top", type=int, default=20, help="stage-table rows per scenario"
    )
    obs_profile.set_defaults(handler=_cmd_obs_profile)

    bench = commands.add_parser(
        "bench",
        help="run a pinned perf suite and emit a machine-readable "
        "BENCH_<suite>.json trajectory point",
    )
    bench.add_argument(
        "--suite",
        default="fast",
        help="pinned scenario suite to run (fast, smoke)",
    )
    bench.add_argument(
        "--out",
        default="",
        help="output path (default: BENCH_<suite>.json)",
    )
    bench.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        help="instead of running, compare two bench documents and exit 1 "
        "on regressions",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="slowdown ratio treated as a regression under --compare "
        "(default 2.0)",
    )
    bench.set_defaults(handler=_cmd_bench)

    dash = commands.add_parser(
        "dash",
        help="live terminal dashboard from an exporter endpoint or a "
        "recorded snapshot stream",
    )
    dash.add_argument(
        "--url",
        default="",
        help="base URL of a running exporter (e.g. http://127.0.0.1:9477)",
    )
    dash.add_argument(
        "--replay",
        default="",
        help="replay a recorded --export-out NDJSON file offline",
    )
    dash.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between frames (default 1)",
    )
    dash.add_argument(
        "--frames", type=int, default=0, help="stop after this many frames (0 = run on)"
    )
    dash.add_argument(
        "--once",
        action="store_true",
        help="render a single frame (the final recorded one under --replay)",
    )
    dash.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen between them",
    )
    dash.set_defaults(handler=_cmd_dash)

    table = commands.add_parser("table", help="reproduce a paper table (1-8)")
    table.add_argument("number", type=int)
    table.add_argument("--seed", type=int, default=0)
    _add_profile_argument(table)
    table.set_defaults(handler=_cmd_table)

    figure = commands.add_parser("figure", help="reproduce a paper figure (4..9b)")
    figure.add_argument("name", help="4, 5, 6, 7, 8, 9a or 9b")
    _add_profile_argument(figure)
    figure.set_defaults(handler=_cmd_figure)

    report = commands.add_parser(
        "report", help="collate archived benchmark results into one markdown report"
    )
    report.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="directory of archived results (default: benchmarks/results)",
    )
    report.add_argument("--out", default="", help="output path (default: <results>/REPORT.<profile>.md)")
    _add_profile_argument(report)
    report.set_defaults(handler=_cmd_report)

    lister = commands.add_parser("list", help="list scenarios/tables/figures")
    lister.set_defaults(handler=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream reader (e.g. `| head`) closed the pipe mid-run; point
        # stdout at devnull so the interpreter's exit-time flush does not
        # traceback, and exit with the conventional SIGPIPE status.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + 13


if __name__ == "__main__":
    sys.exit(main())
