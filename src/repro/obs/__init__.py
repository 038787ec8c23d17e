"""repro.obs — zero-dependency observability for the measurement pipeline.

Four pieces, usable separately or together:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labeled
  counters/gauges/histograms plus bounded time-series samplers. On by
  default throughout the substrate; pass :class:`NullRegistry` to run at
  pre-instrumentation speed. Snapshots are deterministic for a fixed seed.
* :mod:`repro.obs.tracing` — wall-clock :func:`trace_span` spans around
  the expensive phases of a run, exported as JSONL.
* :mod:`repro.obs.manifest` — :class:`RunManifest` provenance records
  (seed, config digest, version, timings, headline metrics) attached to
  runner results.
* :mod:`repro.obs.schema` — structural validators for the exported
  artifacts (used by CI and ``badabing-sim obs validate``).

See DESIGN.md §8 for the span taxonomy and document schemas.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.obs.alerts import (
    ALERT_RULES_SCHEMA,
    AlertEvent,
    AlertRule,
    AlertRules,
    controller_alert_rules,
    default_fleet_rules,
    load_alert_rules,
    write_alert_rules,
)
from repro.obs.artifacts import ensure_parent_dir, open_artifact
from repro.obs.bench import (
    BENCH_SCHEMA,
    BenchRecorder,
    compare_bench_documents,
    environment_fingerprint,
    load_bench_document,
    make_bench_document,
    peak_rss_bytes,
    render_bench_document,
    render_call_tree,
    render_profile_document,
    render_stage_table,
    validate_bench_document,
    write_bench_document,
)
from repro.obs.audit import (
    AUDIT_SCHEMA,
    AccuracyScorecard,
    EpisodeAudit,
    RunAudit,
    ScorecardRow,
    audit_document,
    audit_episodes,
    audit_run,
    publish_audit,
    row_from_audit,
    scorecard_digest,
    scorecard_from_runs,
    write_audit_document,
)
from repro.obs.dash import (
    dashboard_lines,
    document_from_export_record,
    fetch_sessions,
    render_frame,
    replay_documents,
)
from repro.obs.export import (
    EXPORT_SCHEMA,
    SESSIONS_SCHEMA,
    SnapshotWriter,
    TelemetryExporter,
    parse_key,
    read_export_records,
    render_exposition,
    rollup_sessions,
    sessions_document,
    validate_export_file,
    validate_export_record,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    config_digest,
    summarize_snapshot,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    RUN_LENGTH_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Series,
    merge_snapshots,
    snapshot_digest,
)
from repro.obs.profile import (
    PIPELINE_STAGES,
    PROFILE_SCHEMA,
    STAGE_BUCKETS,
    NullProfiler,
    StageProfiler,
    active_profiler,
    profile_stage,
    profiling,
    set_active_profiler,
)
from repro.obs.schema import (
    METRICS_SCHEMA,
    load_audit_document,
    load_metrics_document,
    validate_audit_document,
    validate_metrics_document,
    validate_trace_file,
    validate_trace_lines,
)
from repro.obs.summary import (
    group_label_path,
    render_audit,
    render_grouped_summary,
    render_scorecard,
    render_slowest_spans,
    render_summary,
    slowest_spans,
    split_snapshot_by_label,
    split_snapshot_by_path,
    summary_document,
)
from repro.obs.tracing import TRACE_SCHEMA, Tracer, trace_span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "NullRegistry",
    "Tracer",
    "trace_span",
    "RunManifest",
    "config_digest",
    "summarize_snapshot",
    "merge_snapshots",
    "snapshot_digest",
    "scorecard_digest",
    "render_summary",
    "summary_document",
    "validate_metrics_document",
    "validate_trace_file",
    "validate_trace_lines",
    "load_metrics_document",
    "write_metrics_document",
    "metrics_document",
    "EpisodeAudit",
    "RunAudit",
    "ScorecardRow",
    "AccuracyScorecard",
    "audit_episodes",
    "audit_run",
    "publish_audit",
    "row_from_audit",
    "scorecard_from_runs",
    "audit_document",
    "write_audit_document",
    "load_audit_document",
    "validate_audit_document",
    "render_audit",
    "render_scorecard",
    "DEFAULT_BUCKETS",
    "RUN_LENGTH_BUCKETS",
    "METRICS_SCHEMA",
    "MANIFEST_SCHEMA",
    "TRACE_SCHEMA",
    "AUDIT_SCHEMA",
    "EXPORT_SCHEMA",
    "SESSIONS_SCHEMA",
    "ALERT_RULES_SCHEMA",
    "TelemetryExporter",
    "SnapshotWriter",
    "AlertRule",
    "AlertRules",
    "AlertEvent",
    "controller_alert_rules",
    "default_fleet_rules",
    "group_label_path",
    "load_alert_rules",
    "write_alert_rules",
    "render_exposition",
    "parse_key",
    "rollup_sessions",
    "sessions_document",
    "read_export_records",
    "validate_export_record",
    "validate_export_file",
    "dashboard_lines",
    "render_frame",
    "replay_documents",
    "fetch_sessions",
    "document_from_export_record",
    "render_grouped_summary",
    "split_snapshot_by_label",
    "split_snapshot_by_path",
    "ensure_parent_dir",
    "open_artifact",
    # profiling + perf trajectory (DESIGN.md §14)
    "PROFILE_SCHEMA",
    "BENCH_SCHEMA",
    "PIPELINE_STAGES",
    "STAGE_BUCKETS",
    "StageProfiler",
    "NullProfiler",
    "active_profiler",
    "set_active_profiler",
    "profiling",
    "profile_stage",
    "BenchRecorder",
    "environment_fingerprint",
    "peak_rss_bytes",
    "make_bench_document",
    "validate_bench_document",
    "load_bench_document",
    "write_bench_document",
    "compare_bench_documents",
    "render_bench_document",
    "render_profile_document",
    "render_stage_table",
    "render_call_tree",
    "slowest_spans",
    "render_slowest_spans",
]


def metrics_document(
    registry: MetricsRegistry, manifest: Optional[RunManifest] = None
) -> Dict[str, Any]:
    """Assemble the exportable ``{"schema", "manifest", "metrics"}`` doc."""
    return {
        "schema": METRICS_SCHEMA,
        "manifest": manifest.to_dict() if manifest is not None else None,
        "metrics": registry.snapshot(),
    }


def write_metrics_document(
    path,
    registry: MetricsRegistry,
    manifest: Optional[RunManifest] = None,
) -> Dict[str, Any]:
    """Write the combined manifest + snapshot JSON document to ``path``,
    creating missing parent directories."""
    document = metrics_document(registry, manifest)
    with open_artifact(path, "metrics document") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return document
