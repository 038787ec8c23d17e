"""Schema validation for exported metrics documents and trace files.

Zero-dependency structural validation (no jsonschema): each validator
returns a list of human-readable problems (empty == valid), and the
``check_*`` wrappers raise :class:`~repro.errors.ObservabilityError`
instead. CI runs these over the artifacts of an instrumented measure so
a malformed emitter fails the build, not a downstream dashboard.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ObservabilityError
from repro.obs.artifacts import open_artifact, read_json_document
from repro.obs.audit import AUDIT_SCHEMA, EPISODE_STATUSES
from repro.obs.manifest import MANIFEST_SCHEMA, RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TRACE_SCHEMA

#: Schema identifier of the combined manifest+metrics document.
METRICS_SCHEMA = "repro.obs.metrics/1"

_MANIFEST_FIELDS = {
    "schema": str,
    "tool": str,
    "seed": int,
    "config_digest": str,
    "package_version": str,
    "sim_seconds": (int, float),
    "wall_seconds": (int, float),
    "events_processed": int,
    "metrics": dict,
}


def is_finite_number(value: Any) -> bool:
    """An int or float that is neither NaN nor infinite (bools are not numbers).

    NaN compares false with everything, so a NaN time would pass every
    bound and gate downstream; validators refuse it here instead.
    """
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def validate_manifest(manifest: Any, where: str = "manifest") -> List[str]:
    problems: List[str] = []
    if not isinstance(manifest, dict):
        return [f"{where}: expected an object, got {type(manifest).__name__}"]
    for name, types in _MANIFEST_FIELDS.items():
        if name not in manifest:
            problems.append(f"{where}: missing field {name!r}")
        elif not isinstance(manifest[name], types):
            problems.append(
                f"{where}.{name}: expected {types}, got {type(manifest[name]).__name__}"
            )
    if manifest.get("schema") not in (None, MANIFEST_SCHEMA):
        problems.append(
            f"{where}.schema: expected {MANIFEST_SCHEMA!r}, got {manifest.get('schema')!r}"
        )
    for key, value in manifest.get("metrics", {}).items() if isinstance(manifest.get("metrics"), dict) else ():
        if not is_finite_number(value):
            problems.append(f"{where}.metrics[{key!r}]: expected a number")
    return problems


def validate_snapshot(snapshot: Any, where: str = "metrics") -> List[str]:
    problems: List[str] = []
    if not isinstance(snapshot, dict):
        return [f"{where}: expected an object, got {type(snapshot).__name__}"]
    for section in ("counters", "gauges", "histograms", "series"):
        if section not in snapshot:
            problems.append(f"{where}: missing section {section!r}")
        elif not isinstance(snapshot[section], dict):
            problems.append(f"{where}.{section}: expected an object")
    for key, value in snapshot.get("counters", {}).items():
        if not is_finite_number(value):
            problems.append(f"{where}.counters[{key!r}]: expected a number")
    for key, gauge in snapshot.get("gauges", {}).items():
        if not isinstance(gauge, dict) or not {"value", "peak"} <= set(gauge):
            problems.append(f"{where}.gauges[{key!r}]: expected {{value, peak}}")
    for key, hist in snapshot.get("histograms", {}).items():
        if not isinstance(hist, dict):
            problems.append(f"{where}.histograms[{key!r}]: expected an object")
            continue
        buckets, counts = hist.get("buckets"), hist.get("counts")
        if not isinstance(buckets, list) or not isinstance(counts, list):
            problems.append(f"{where}.histograms[{key!r}]: need buckets + counts lists")
            continue
        if len(counts) != len(buckets) + 1:
            problems.append(
                f"{where}.histograms[{key!r}]: counts must have len(buckets)+1 slots"
            )
        if any(later <= earlier for later, earlier in zip(buckets[1:], buckets)):
            problems.append(f"{where}.histograms[{key!r}]: buckets not increasing")
        if hist.get("count") != sum(counts):
            problems.append(
                f"{where}.histograms[{key!r}]: count != sum(counts)"
            )
    for key, series in snapshot.get("series", {}).items():
        if not isinstance(series, dict):
            problems.append(f"{where}.series[{key!r}]: expected an object")
            continue
        times, values = series.get("times"), series.get("values")
        if not isinstance(times, list) or not isinstance(values, list):
            problems.append(f"{where}.series[{key!r}]: need times + values lists")
        elif len(times) != len(values):
            problems.append(f"{where}.series[{key!r}]: times/values length mismatch")
        elif any(b < a for a, b in zip(times, times[1:])):
            problems.append(f"{where}.series[{key!r}]: times not monotonic")
    return problems


def validate_metrics_document(document: Any) -> List[str]:
    """Validate a combined ``{"schema", "manifest", "metrics"}`` document."""
    if not isinstance(document, dict):
        return [f"document: expected an object, got {type(document).__name__}"]
    problems: List[str] = []
    if document.get("schema") != METRICS_SCHEMA:
        problems.append(
            f"document.schema: expected {METRICS_SCHEMA!r}, got {document.get('schema')!r}"
        )
    if "manifest" in document and document["manifest"] is not None:
        problems.extend(validate_manifest(document["manifest"]))
    if "metrics" not in document:
        problems.append("document: missing 'metrics' snapshot")
    else:
        problems.extend(validate_snapshot(document["metrics"]))
    return problems


_SCORECARD_ROW_FIELDS = ("label", "ok", "n_episodes", "detected", "partially_sampled", "missed")

#: Parallel arrays every exported convergence block must carry.
_CONVERGENCE_ARRAYS = (
    "t",
    "n_experiments",
    "f_hat",
    "f_rel_error",
    "d_hat_seconds",
    "d_rel_error",
    "violation_rate",
    "transition_asymmetry",
    "estimated_relative_error",
    "should_stop",
    "should_abort",
)


def _validate_run_audit(run: Any, where: str) -> List[str]:
    problems: List[str] = []
    if not isinstance(run, dict):
        return [f"{where}: expected an object, got {type(run).__name__}"]
    for name in ("tool", "slot_width", "frequency", "duration_seconds",
                 "episode_audit", "validation", "convergence"):
        if name not in run:
            problems.append(f"{where}: missing field {name!r}")
    episode_audit = run.get("episode_audit")
    if isinstance(episode_audit, dict):
        counts = episode_audit.get("counts")
        if not isinstance(counts, dict) or set(counts) != set(EPISODE_STATUSES):
            problems.append(
                f"{where}.episode_audit.counts: expected exactly {sorted(EPISODE_STATUSES)}"
            )
        episodes = episode_audit.get("episodes")
        if not isinstance(episodes, list):
            problems.append(f"{where}.episode_audit.episodes: expected a list")
        else:
            if isinstance(counts, dict) and len(episodes) != sum(
                v for v in counts.values() if isinstance(v, int)
            ):
                problems.append(
                    f"{where}.episode_audit: counts do not add up to the episode list"
                )
            for index, episode in enumerate(episodes):
                if not isinstance(episode, dict):
                    problems.append(f"{where}.episode_audit.episodes[{index}]: expected an object")
                elif episode.get("status") not in EPISODE_STATUSES:
                    problems.append(
                        f"{where}.episode_audit.episodes[{index}].status: "
                        f"got {episode.get('status')!r}"
                    )
    convergence = run.get("convergence")
    if isinstance(convergence, dict):
        lengths = set()
        for name in _CONVERGENCE_ARRAYS:
            array = convergence.get(name)
            if not isinstance(array, list):
                problems.append(f"{where}.convergence.{name}: expected a list")
            else:
                lengths.add(len(array))
        if len(lengths) > 1:
            problems.append(f"{where}.convergence: arrays have mismatched lengths")
        times = convergence.get("t")
        if isinstance(times, list) and any(b < a for a, b in zip(times, times[1:])):
            problems.append(f"{where}.convergence.t: times not monotonic")
    return problems


def validate_audit_document(document: Any) -> List[str]:
    """Validate a ``{"schema", "scorecard", "runs"}`` accuracy-audit doc."""
    if not isinstance(document, dict):
        return [f"document: expected an object, got {type(document).__name__}"]
    problems: List[str] = []
    if document.get("schema") != AUDIT_SCHEMA:
        problems.append(
            f"document.schema: expected {AUDIT_SCHEMA!r}, got {document.get('schema')!r}"
        )
    scorecard = document.get("scorecard")
    if not isinstance(scorecard, dict):
        problems.append("document: missing 'scorecard' object")
    else:
        rows = scorecard.get("rows")
        if not isinstance(rows, list):
            problems.append("scorecard.rows: expected a list")
        else:
            if scorecard.get("n_runs") != len(rows):
                problems.append("scorecard.n_runs: does not match len(rows)")
            for index, row in enumerate(rows):
                if not isinstance(row, dict):
                    problems.append(f"scorecard.rows[{index}]: expected an object")
                    continue
                for name in _SCORECARD_ROW_FIELDS:
                    if name not in row:
                        problems.append(f"scorecard.rows[{index}]: missing field {name!r}")
    runs = document.get("runs")
    if not isinstance(runs, list):
        problems.append("document: missing 'runs' list")
    else:
        for index, run in enumerate(runs):
            problems.extend(_validate_run_audit(run, f"runs[{index}]"))
    return problems


def load_audit_document(path) -> Dict[str, Any]:
    """Read + validate an audit document, raising on schema problems."""
    document = read_json_document(path, "audit document")
    check(validate_audit_document(document), str(path))
    return document


def validate_trace_lines(lines: Iterable[str]) -> List[str]:
    """Validate a trace JSONL stream (meta line + span/event records)."""
    problems: List[str] = []
    saw_meta = False
    count = 0
    for number, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        count += 1
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            problems.append(f"trace line {number}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(record, dict) or "type" not in record:
            problems.append(f"trace line {number}: expected an object with 'type'")
            continue
        kind = record["type"]
        if kind == "meta":
            saw_meta = True
            if record.get("schema") != TRACE_SCHEMA:
                problems.append(
                    f"trace line {number}: meta schema is {record.get('schema')!r}, "
                    f"expected {TRACE_SCHEMA!r}"
                )
        elif kind in ("span", "event"):
            for name, types in (("name", str), ("attrs", dict)):
                if not isinstance(record.get(name), types):
                    problems.append(
                        f"trace line {number}: {kind} field {name!r} missing or mistyped"
                    )
            for name, what in (("t0", "start time"), ("dur", "duration")):
                value = record.get(name)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    problems.append(
                        f"trace line {number}: {kind} field {name!r} missing or mistyped"
                    )
                elif not (is_finite_number(value) and value >= 0):
                    problems.append(
                        f"trace line {number}: negative or non-finite {what}"
                    )
        else:
            problems.append(f"trace line {number}: unknown record type {kind!r}")
    if count and not saw_meta:
        problems.append("trace: no meta line found")
    return problems


def validate_trace_file(path) -> List[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return validate_trace_lines(handle)
    except OSError as exc:
        return [f"trace: cannot read {path}: {exc}"]


def check(problems: List[str], what: str) -> None:
    """Raise :class:`ObservabilityError` if any problems were found."""
    if problems:
        preview = "; ".join(problems[:5])
        more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise ObservabilityError(f"{what} failed validation: {preview}{more}")


def load_metrics_document(path) -> Dict[str, Any]:
    """Read + validate a metrics document, raising on schema problems."""
    document = read_json_document(path, "metrics document")
    check(validate_metrics_document(document), str(path))
    return document


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
