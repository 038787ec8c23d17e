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
* :mod:`repro.obs.schema` — the exported metrics document and structural
  validators for every artifact (used by CI and
  ``badabing-sim obs validate``).

Names resolve from here but load their submodule on first access
(:mod:`repro._lazy`): the simulator imports :mod:`repro.obs.metrics`
without loading the exporter, dashboard, alerts, bench or summary
modules. See DESIGN.md §8 for the span taxonomy and document schemas.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "Counter": "metrics",
        "Gauge": "metrics",
        "Histogram": "metrics",
        "Series": "metrics",
        "MetricsRegistry": "metrics",
        "NullRegistry": "metrics",
        "Tracer": "tracing",
        "trace_span": "tracing",
        "RunManifest": "manifest",
        "config_digest": "manifest",
        "summarize_snapshot": "manifest",
        "merge_snapshots": "metrics",
        "snapshot_digest": "metrics",
        "scorecard_digest": "audit",
        "render_summary": "summary",
        "summary_document": "summary",
        "validate_metrics_document": "schema",
        "validate_trace_file": "schema",
        "validate_trace_lines": "schema",
        "load_metrics_document": "schema",
        "write_metrics_document": "schema",
        "metrics_document": "schema",
        "EpisodeAudit": "audit",
        "RunAudit": "audit",
        "ScorecardRow": "audit",
        "AccuracyScorecard": "audit",
        "audit_episodes": "audit",
        "audit_run": "audit",
        "publish_audit": "audit",
        "row_from_audit": "audit",
        "scorecard_from_runs": "audit",
        "audit_document": "audit",
        "write_audit_document": "audit",
        "load_audit_document": "schema",
        "validate_audit_document": "schema",
        "render_audit": "summary",
        "render_scorecard": "summary",
        "DEFAULT_BUCKETS": "metrics",
        "RUN_LENGTH_BUCKETS": "metrics",
        "METRICS_SCHEMA": "schema",
        "MANIFEST_SCHEMA": "manifest",
        "TRACE_SCHEMA": "tracing",
        "AUDIT_SCHEMA": "audit",
        "EXPORT_SCHEMA": "export",
        "SESSIONS_SCHEMA": "export",
        "ALERT_RULES_SCHEMA": "alerts",
        "TelemetryExporter": "export",
        "SnapshotWriter": "export",
        "AlertRule": "alerts",
        "AlertRules": "alerts",
        "AlertEvent": "alerts",
        "controller_alert_rules": "alerts",
        "default_fleet_rules": "alerts",
        "group_label_path": "summary",
        "load_alert_rules": "alerts",
        "write_alert_rules": "alerts",
        "render_exposition": "export",
        "parse_key": "export",
        "rollup_sessions": "export",
        "sessions_document": "export",
        "read_export_records": "export",
        "validate_export_record": "export",
        "validate_export_file": "export",
        "dashboard_lines": "dash",
        "render_frame": "dash",
        "replay_documents": "dash",
        "fetch_sessions": "dash",
        "document_from_export_record": "dash",
        "render_grouped_summary": "summary",
        "split_snapshot_by_label": "summary",
        "split_snapshot_by_path": "summary",
        "ensure_parent_dir": "artifacts",
        "open_artifact": "artifacts",
        # profiling + perf trajectory (DESIGN.md §14)
        "PROFILE_SCHEMA": "profile",
        "BENCH_SCHEMA": "bench",
        "PIPELINE_STAGES": "profile",
        "STAGE_BUCKETS": "profile",
        "StageProfiler": "profile",
        "NullProfiler": "profile",
        "active_profiler": "profile",
        "set_active_profiler": "profile",
        "profiling": "profile",
        "profile_stage": "profile",
        "BenchRecorder": "bench",
        "environment_fingerprint": "bench",
        "peak_rss_bytes": "bench",
        "make_bench_document": "bench",
        "validate_bench_document": "bench",
        "load_bench_document": "bench",
        "write_bench_document": "bench",
        "compare_bench_documents": "bench",
        "render_bench_document": "bench",
        "render_profile_document": "bench",
        "render_stage_table": "bench",
        "render_call_tree": "bench",
        "slowest_spans": "summary",
        "render_slowest_spans": "summary",
    },
)
