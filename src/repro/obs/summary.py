"""Human-readable rendering of metrics documents and traces.

Backs ``badabing-sim obs summary``: turns the JSON artifacts into the
report a person actually reads — provenance first, then headline totals,
then the slow spans — without any plotting dependency.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Optional


def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def render_manifest(manifest: Dict[str, Any]) -> List[str]:
    lines = ["manifest:"]
    lines.append(f"  tool:       {manifest.get('tool', '?')}")
    lines.append(f"  seed:       {manifest.get('seed', '?')}")
    lines.append(f"  version:    {manifest.get('package_version', '?')}")
    digest = str(manifest.get("config_digest", ""))
    lines.append(f"  config:     {digest[:16]}…" if digest else "  config:     ?")
    sim_s = manifest.get("sim_seconds", 0.0)
    wall_s = manifest.get("wall_seconds", 0.0)
    rate = sim_s / wall_s if wall_s else 0.0
    lines.append(
        f"  time:       {sim_s:.1f}s simulated in {wall_s:.2f}s wall "
        f"({rate:.1f}x real time)"
    )
    events = manifest.get("events_processed", 0)
    eps = events / wall_s if wall_s else 0.0
    lines.append(f"  events:     {events} ({eps:,.0f}/s)")
    return lines


def render_snapshot(snapshot: Dict[str, Any], top: int = 20) -> List[str]:
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
        for key, value in ranked[:top]:
            lines.append(f"  {key:<56} {_fmt(value)}")
        if len(ranked) > top:
            lines.append(f"  … {len(ranked) - top} more")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for key in sorted(gauges):
            gauge = gauges[key]
            lines.append(
                f"  {key:<56} {_fmt(gauge['value'])} (peak {_fmt(gauge['peak'])})"
            )
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for key in sorted(histograms):
            hist = histograms[key]
            count = hist.get("count", 0)
            mean = hist["sum"] / count if count else 0.0
            lines.append(f"  {key}: n={count} mean={mean:.6g}")
            if count:
                lines.append(f"    {_sparkline(hist)}")
    series = snapshot.get("series", {})
    if series:
        lines.append("series:")
        for key in sorted(series):
            entry = series[key]
            n = len(entry.get("times", []))
            if n:
                peak = max(entry["values"])
                lines.append(
                    f"  {key}: {n} samples (stride {entry.get('stride', 1)}), "
                    f"peak {_fmt(peak)}"
                )
            else:
                lines.append(f"  {key}: empty")
    return lines


def _sparkline(hist: Dict[str, Any]) -> str:
    blocks = " ▁▂▃▄▅▆▇█"
    counts = hist.get("counts", [])
    peak = max(counts) if counts else 0
    if not peak:
        return ""
    cells = "".join(
        blocks[min(len(blocks) - 1, 1 + (len(blocks) - 2) * c // peak)] if c else blocks[0]
        for c in counts
    )
    bounds = hist.get("buckets", [])
    lo = bounds[0] if bounds else 0
    hi = bounds[-1] if bounds else 0
    return f"[{cells}] {lo:g}..{hi:g}+"


def _finished_spans(lines_in: Iterable[Any]) -> Iterator[Dict[str, Any]]:
    """The finished span records of a trace stream (JSONL strings or parsed
    dicts); unfinished spans (``dur`` null), other records and junk lines
    are skipped."""
    for raw in lines_in:
        if isinstance(raw, dict):
            record = raw
        else:
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError:
                continue
        if record.get("type") == "span" and record.get("dur") is not None:
            yield record


def aggregate_trace(lines_in: Iterable[Any]) -> Dict[str, Dict[str, float]]:
    """Aggregate a trace stream (JSONL strings or parsed dicts) into
    per-span-name ``{count, total_s, max_s}`` totals."""
    summary: Dict[str, Dict[str, float]] = {}
    for record in _finished_spans(lines_in):
        entry = summary.setdefault(
            record["name"], {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += record["dur"]
        entry["max_s"] = max(entry["max_s"], record["dur"])
    return summary


def render_trace_summary(lines_in: Iterable[Any], top: int = 15) -> List[str]:
    """Render a trace stream's span totals, slowest first."""
    summary = aggregate_trace(lines_in)
    if not summary:
        return []
    lines = ["spans (by total wall time):"]
    ranked = sorted(summary.items(), key=lambda kv: -kv[1]["total_s"])
    for name, entry in ranked[:top]:
        lines.append(
            f"  {name:<32} n={int(entry['count']):<5} "
            f"total={entry['total_s']:.3f}s max={entry['max_s']:.3f}s"
        )
    return lines


def slowest_spans(
    lines_in: Iterable[Any], top: int = 10
) -> List[Dict[str, Any]]:
    """The ``top`` individually slowest finished spans in a trace stream.

    Unlike :func:`aggregate_trace` (per-name totals), this keeps the raw
    span records — one hot outlier is visible even when its name's total
    is dwarfed by a chatty neighbour. Accepts JSONL strings or parsed
    dicts; unfinished spans (``dur`` null) and junk lines are skipped.
    """
    spans = sorted(_finished_spans(lines_in), key=lambda span: -span["dur"])
    return spans[: max(0, top)]


def render_slowest_spans(lines_in: Iterable[Any], top: int = 10) -> List[str]:
    """Render the top-N slowest individual spans (``obs summary --slow``)."""
    ranked = slowest_spans(lines_in, top=top)
    if not ranked:
        return ["no finished spans in trace"]
    lines = [f"slowest {len(ranked)} spans:"]
    for rank, span in enumerate(ranked, start=1):
        attrs = span.get("attrs") or {}
        detail = " ".join(
            f"{key}={attrs[key]}" for key in sorted(attrs)
        )
        lines.append(
            f"  {rank:>2}. {span.get('name', '?'):<32} "
            f"{span['dur']:.6f}s t0={span.get('t0', 0.0):.3f}"
            + (f"  {detail}" if detail else "")
        )
    return lines


def render_summary(
    document: Dict[str, Any],
    trace_lines: Optional[Iterable[str]] = None,
) -> str:
    """Full ``obs summary`` report for one metrics document (+ trace)."""
    out: List[str] = []
    manifest = document.get("manifest")
    if manifest:
        out.extend(render_manifest(manifest))
    out.extend(render_snapshot(document.get("metrics", {})))
    if trace_lines is not None:
        out.extend(render_trace_summary(trace_lines))
    return "\n".join(out)


def summary_document(
    document: Dict[str, Any],
    trace_lines: Optional[Iterable[str]] = None,
) -> Dict[str, Any]:
    """Machine-readable twin of :func:`render_summary` (``--json``).

    Counters and gauges pass through; histograms and series are reduced to
    their headline statistics; the trace (if given) to per-span totals.
    """
    snapshot = document.get("metrics", {})
    histograms = {}
    for key, hist in snapshot.get("histograms", {}).items():
        count = hist.get("count", 0)
        histograms[key] = {
            "count": count,
            "mean": hist["sum"] / count if count else None,
        }
    series = {}
    for key, entry in snapshot.get("series", {}).items():
        values = entry.get("values", [])
        series[key] = {
            "samples": len(values),
            "stride": entry.get("stride", 1),
            "last": values[-1] if values else None,
            "peak": max(values) if values else None,
        }
    return {
        "manifest": document.get("manifest"),
        "counters": dict(snapshot.get("counters", {})),
        "gauges": {
            key: gauge.get("value") for key, gauge in snapshot.get("gauges", {}).items()
        },
        "histograms": histograms,
        "series": series,
        "spans": aggregate_trace(trace_lines) if trace_lines is not None else None,
    }


# ---------------------------------------------------------------------------
# Grouped (per-shard) rendering
# ---------------------------------------------------------------------------

def split_snapshot_by_label(
    snapshot: Dict[str, Any],
    group_keys: Iterable[str] = ("session", "cell"),
) -> "tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]":
    """Partition a merged snapshot into per-shard sub-snapshots.

    Fleet soaks and sweeps merge per-session/per-cell registries with a
    distinguishing series label (``session=session[3]``, ``cell=grid[0]``).
    This splits every instrument carrying one of ``group_keys`` into its
    shard's sub-snapshot; everything else (aggregated counters, shared
    gauges) lands in the returned ``shared`` snapshot. Both halves keep
    the original rendered keys, so each sub-snapshot is still valid input
    for :func:`render_snapshot`.
    """
    from repro.obs.export import parse_key

    keys = tuple(group_keys)

    def empty() -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}, "series": {}}

    shared = empty()
    groups: Dict[str, Dict[str, Any]] = {}
    for section in ("counters", "gauges", "histograms", "series"):
        for key, value in snapshot.get(section, {}).items():
            _, labels = parse_key(key)
            group = next((labels[k] for k in keys if k in labels), None)
            target = shared if group is None else groups.setdefault(group, empty())
            target[section][key] = value
    return shared, groups


def group_label_path(label: str) -> str:
    """The path component of a standardized ``path/session[n]`` label.

    Controller runs label every shard ``<path>/session[<round>]``; plain
    fleet soaks use bare ``session[<i>]`` labels, which group as
    themselves (no path prefix, nothing to fold).
    """
    return label.split("/", 1)[0]


def split_snapshot_by_path(
    snapshot: Dict[str, Any],
    group_keys: Iterable[str] = ("session", "cell"),
) -> "tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]":
    """Like :func:`split_snapshot_by_label`, folded to one group per path.

    Shards sharing a ``path/`` label prefix merge into a single
    sub-snapshot (their rendered keys stay distinct — the full label is
    part of the key — so folding is a plain dict union).
    """
    shared, groups = split_snapshot_by_label(snapshot, group_keys)
    folded: Dict[str, Dict[str, Any]] = {}
    for label in sorted(groups):
        target = folded.setdefault(
            group_label_path(label),
            {"counters": {}, "gauges": {}, "histograms": {}, "series": {}},
        )
        for section, entries in groups[label].items():
            target[section].update(entries)
    return shared, folded


def render_grouped_summary(
    document: Dict[str, Any],
    trace_lines: Optional[Iterable[str]] = None,
    group_keys: Iterable[str] = ("session", "cell"),
    top: int = 10,
    by_path: bool = False,
) -> str:
    """``obs summary --by-label`` / ``--by-path``: one section per shard.

    ``by_path`` folds shards sharing a ``path/`` label prefix into one
    section per path (a controller run reads as its roster). Falls back
    to the flat report (with a note) when the snapshot has no
    shard-labeled instruments to group.
    """
    snapshot = document.get("metrics", {})
    if by_path:
        shared, groups = split_snapshot_by_path(snapshot, group_keys)
    else:
        shared, groups = split_snapshot_by_label(snapshot, group_keys)
    if not groups:
        return (
            "(no shard labels found — showing the flat summary)\n"
            + render_summary(document, trace_lines)
        )
    out: List[str] = []
    manifest = document.get("manifest")
    if manifest:
        out.extend(render_manifest(manifest))
    grouping = "path" if by_path else "/".join(group_keys)
    out.append(f"shards: {len(groups)} (grouped by {grouping})")
    for group in sorted(groups):
        out.append("")
        out.append(f"── {group} " + "─" * max(0, 40 - len(group)))
        out.extend(render_snapshot(groups[group], top=top))
    if any(shared[section] for section in shared):
        out.append("")
        out.append("── shared (aggregated across shards) " + "─" * 4)
        out.extend(render_snapshot(shared, top=top))
    if trace_lines is not None:
        out.append("")
        out.extend(render_trace_summary(trace_lines))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Accuracy-audit rendering
# ---------------------------------------------------------------------------

def _pct(value: Optional[float]) -> str:
    return "—" if value is None else f"{100 * value:.1f}%"


def render_scorecard(scorecard: Dict[str, Any]) -> List[str]:
    """Render an :class:`~repro.obs.audit.AccuracyScorecard` dict."""
    lines = ["accuracy scorecard:"]
    lines.append(
        f"  runs:              {scorecard.get('n_ok', 0)}/{scorecard.get('n_runs', 0)} ok, "
        f"{scorecard.get('n_acceptable', 0)} pass §5.4 validation"
    )
    lines.append(
        f"  |F̂−F|/F:           mean {_pct(scorecard.get('mean_frequency_rel_error'))}, "
        f"worst {_pct(scorecard.get('worst_frequency_rel_error'))}"
    )
    lines.append(
        f"  |D̂−D|/D:           mean {_pct(scorecard.get('mean_duration_rel_error'))}"
    )
    lines.append(
        f"  episode recall:    mean {_pct(scorecard.get('mean_episode_recall'))}"
    )
    rows = scorecard.get("rows", [])
    if rows:
        lines.append(
            f"  {'run':<28} {'F err':>8} {'D err':>8} {'recall':>8} "
            f"{'det/par/miss':>12} verdict"
        )
        for row in rows:
            label = str(row.get("label", "?"))[:28]
            if not row.get("ok"):
                lines.append(f"  {label:<28} FAILED: {row.get('error')}")
                continue
            episodes = (
                f"{row.get('detected', 0)}/{row.get('partially_sampled', 0)}"
                f"/{row.get('missed', 0)}"
            )
            if row.get("should_abort"):
                verdict = "abort"
            elif row.get("acceptable"):
                verdict = "accept"
            else:
                verdict = "reject"
            lines.append(
                f"  {label:<28} {_pct(row.get('frequency_rel_error')):>8} "
                f"{_pct(row.get('duration_rel_error')):>8} "
                f"{_pct(row.get('episode_recall')):>8} {episodes:>12} {verdict}"
            )
    return lines


def _render_run_audit(run: Dict[str, Any], index: int) -> List[str]:
    frequency = run.get("frequency", {})
    duration = run.get("duration_seconds", {})
    episode_audit = run.get("episode_audit", {})
    validation = run.get("validation", {})
    counts = episode_audit.get("counts", {})
    lines = [f"run {index} ({run.get('tool', '?')}):"]
    est_f = frequency.get("estimated")
    true_f = frequency.get("true")
    lines.append(
        f"  frequency:         F̂={f'{est_f:.6g}' if est_f is not None else '—':>10} "
        f"F={f'{true_f:.6g}' if true_f is not None else '—':>10} "
        f"err {_pct(frequency.get('rel_error'))}"
    )
    est_d = duration.get("estimated")
    true_d = duration.get("true")
    lines.append(
        f"  duration:          D̂={f'{est_d:.4f}s' if est_d is not None else '—':>10} "
        f"D={f'{true_d:.4f}s' if true_d is not None else '—':>10} "
        f"err {_pct(duration.get('rel_error'))}"
    )
    lines.append(
        f"  episodes:          {episode_audit.get('n_episodes', 0)} true — "
        f"{counts.get('detected', 0)} detected, "
        f"{counts.get('partially_sampled', 0)} partially sampled, "
        f"{counts.get('missed', 0)} missed "
        f"(recall {_pct(episode_audit.get('recall'))})"
    )
    by_status = episode_audit.get("duration_by_status", {})
    if by_status:
        lines.append(
            "  episode seconds:   "
            + ", ".join(
                f"{status} {by_status.get(status, 0.0):.3f}s"
                for status in ("detected", "partially_sampled", "missed")
            )
        )
    coverage = episode_audit.get("mean_sampling_coverage")
    if coverage is not None:
        lines.append(f"  sampling coverage: mean {_pct(coverage)} of episode slots probed")
    verdict = (
        "abort"
        if validation.get("should_abort")
        else ("accept" if validation.get("acceptable") else "reject")
    )
    lines.append(
        f"  validation:        {verdict} — "
        f"{validation.get('transitions', 0)} transitions, "
        f"violation rate {_pct(validation.get('violation_rate'))}, "
        f"asymmetry {_pct(validation.get('transition_asymmetry'))}, "
        f"stop={validation.get('should_stop')}"
    )
    convergence = run.get("convergence", {})
    n_points = len(convergence.get("t", []))
    if n_points:
        errors = [e for e in convergence.get("f_rel_error", []) if e is not None]
        final = f", final F err {_pct(errors[-1])}" if errors else ""
        lines.append(f"  convergence:       {n_points} points{final}")
    return lines


def render_audit(document: Dict[str, Any], max_runs: int = 10) -> str:
    """Full ``obs audit`` report for one audit document."""
    out = render_scorecard(document.get("scorecard", {}))
    runs = document.get("runs", [])
    for index, run in enumerate(runs[:max_runs]):
        out.append("")
        out.extend(_render_run_audit(run, index))
    if len(runs) > max_runs:
        out.append(f"… {len(runs) - max_runs} more runs (see the JSON document)")
    return "\n".join(out)
