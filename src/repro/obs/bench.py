"""Machine-readable perf-trajectory documents (``BENCH_*.json``).

One document per benchmark suite run: per-scenario wall time, throughput
(events/sec, probes/sec), per-stage self/cumulative times from the
:mod:`repro.obs.profile` stage profiler, plus an environment fingerprint
and peak RSS so trajectories from different machines are comparable with
eyes open. ``repro bench`` emits them, ``repro bench --compare`` diffs
two of them under a regression threshold, ``repro obs profile`` renders
the stage tables and call trees, and CI's ``perf-trajectory`` job gates
on a committed baseline.

Validation follows the :mod:`repro.obs.schema` idiom: zero-dependency
structural validators returning problem lists, ``load_*`` raising
:class:`~repro.errors.ObservabilityError` via ``check``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.artifacts import open_artifact, read_json_document
from repro.obs.schema import check, is_finite_number

#: Schema identifier for bench documents.
BENCH_SCHEMA = "repro.obs.bench/1"

#: Per-scenario fields that must be finite, non-negative numbers when
#: present (``wall_seconds`` is required; the rest are optional extras a
#: recorder may attach).
_SCENARIO_NUMBERS = (
    "wall_seconds",
    "events_processed",
    "events_per_second",
    "probes_sent",
    "probes_per_second",
)

_STAGE_NUMBERS = ("self_seconds", "cum_seconds", "max_seconds", "sum_seconds")


def environment_fingerprint() -> Dict[str, Any]:
    """Where this trajectory point was measured (enough to judge deltas)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, or None off-POSIX.

    ``ru_maxrss`` is kibibytes on Linux but bytes on macOS; normalize to
    bytes.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS
        return int(peak)
    return int(peak) * 1024


def make_bench_document(
    suite: str,
    scenarios: Dict[str, Dict[str, Any]],
    env: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a bench document; callers fill scenario entries."""
    return {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "env": env if env is not None else environment_fingerprint(),
        "peak_rss_bytes": peak_rss_bytes(),
        "scenarios": scenarios,
    }


def validate_stage(stage: Any, where: str) -> List[str]:
    problems: List[str] = []
    if not isinstance(stage, dict):
        return [f"{where}: expected an object, got {type(stage).__name__}"]
    calls = stage.get("calls")
    if not isinstance(calls, int) or isinstance(calls, bool) or calls < 0:
        problems.append(f"{where}.calls: expected a non-negative integer")
    for name in _STAGE_NUMBERS:
        if name in stage and not is_finite_number(stage[name]):
            problems.append(f"{where}.{name}: expected a finite number")
        elif stage.get(name, 0) < 0:
            problems.append(f"{where}.{name}: negative duration")
    buckets, counts = stage.get("buckets"), stage.get("counts")
    if buckets is not None or counts is not None:
        if not isinstance(buckets, list) or not isinstance(counts, list):
            problems.append(f"{where}: need buckets + counts lists together")
        else:
            if len(counts) != len(buckets) + 1:
                problems.append(
                    f"{where}: counts must have len(buckets)+1 slots"
                )
            if any(b <= a for a, b in zip(buckets, buckets[1:])):
                problems.append(f"{where}: buckets not increasing")
            if isinstance(calls, int) and sum(counts) != calls:
                problems.append(f"{where}: sum(counts) != calls")
    return problems


def validate_scenario(scenario: Any, where: str) -> List[str]:
    problems: List[str] = []
    if not isinstance(scenario, dict):
        return [f"{where}: expected an object, got {type(scenario).__name__}"]
    if "wall_seconds" not in scenario:
        problems.append(f"{where}: missing field 'wall_seconds'")
    for name in _SCENARIO_NUMBERS:
        if name in scenario and not is_finite_number(scenario[name]):
            problems.append(f"{where}.{name}: expected a finite number")
        elif scenario.get(name, 0) < 0:
            problems.append(f"{where}.{name}: negative")
    if "config_digest" in scenario and not isinstance(
        scenario["config_digest"], str
    ):
        problems.append(f"{where}.config_digest: expected a string")
    stages = scenario.get("stages")
    if stages is not None:
        if not isinstance(stages, dict):
            problems.append(f"{where}.stages: expected an object")
        else:
            for name, stage in stages.items():
                problems.extend(validate_stage(stage, f"{where}.stages[{name!r}]"))
    edges = scenario.get("edges")
    if edges is not None:
        if not isinstance(edges, list):
            problems.append(f"{where}.edges: expected a list")
        else:
            for index, edge in enumerate(edges):
                if not isinstance(edge, dict) or "stage" not in edge:
                    problems.append(
                        f"{where}.edges[{index}]: expected an object with 'stage'"
                    )
    return problems


def validate_bench_document(document: Any) -> List[str]:
    """Structural validation of a ``repro.obs.bench/1`` document."""
    if not isinstance(document, dict):
        return [f"document: expected an object, got {type(document).__name__}"]
    problems: List[str] = []
    if document.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"document.schema: expected {BENCH_SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    if not isinstance(document.get("suite"), str) or not document.get("suite"):
        problems.append("document.suite: expected a non-empty string")
    env = document.get("env")
    if not isinstance(env, dict):
        problems.append("document.env: expected an object")
    else:
        for name in ("python", "platform", "cpu_count"):
            if name not in env:
                problems.append(f"document.env: missing field {name!r}")
    rss = document.get("peak_rss_bytes")
    if rss is not None and (not isinstance(rss, int) or isinstance(rss, bool)):
        problems.append("document.peak_rss_bytes: expected an integer or null")
    scenarios = document.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        problems.append("document.scenarios: expected a non-empty object")
    else:
        for name, scenario in scenarios.items():
            problems.extend(validate_scenario(scenario, f"scenarios[{name!r}]"))
    return problems


def stage_names(document: Dict[str, Any]) -> List[str]:
    """All stage names appearing anywhere in the document, sorted."""
    names = set()
    for scenario in document.get("scenarios", {}).values():
        if isinstance(scenario, dict):
            names.update((scenario.get("stages") or {}).keys())
    return sorted(names)


def write_bench_document(path, document: Dict[str, Any]) -> Dict[str, Any]:
    """Validate and write a bench document (creating parent dirs)."""
    check(validate_bench_document(document), "bench document")
    with open_artifact(path, "bench document") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def load_bench_document(path) -> Dict[str, Any]:
    """Read + validate a bench document, raising on schema problems."""
    document = read_json_document(path, "bench document")
    check(validate_bench_document(document), str(path))
    return document


# ------------------------------------------------------------------ comparison
def compare_bench_documents(
    old: Dict[str, Any],
    new: Dict[str, Any],
    threshold: float = 2.0,
    min_seconds: float = 0.005,
) -> Tuple[List[str], List[Dict[str, Any]]]:
    """Diff two bench documents under a slowdown threshold.

    Returns ``(report_lines, regressions)``: the report covers every
    scenario present in both documents (wall time plus per-stage self
    time), and a regression entry is emitted wherever ``new/old``
    exceeds ``threshold`` on a measurement whose old value was at least
    ``min_seconds`` (sub-threshold-noise timings cannot regress).
    Scenarios or stages present on one side only are reported but never
    flagged.
    """
    # NaN passes a plain ``<= 1.0`` test, and nothing exceeds inf: either
    # would let every slowdown through.
    if not (1.0 < threshold < math.inf):
        raise ObservabilityError(
            f"regression threshold must be a finite number > 1.0, got {threshold}"
        )
    lines: List[str] = []
    regressions: List[Dict[str, Any]] = []
    old_scenarios = old.get("scenarios", {})
    new_scenarios = new.get("scenarios", {})
    lines.append(
        f"bench compare: suite {old.get('suite')!r} -> {new.get('suite')!r}, "
        f"threshold {threshold:.2f}x (floor {min_seconds * 1e3:.0f} ms)"
    )
    for name in sorted(set(old_scenarios) | set(new_scenarios)):
        before = old_scenarios.get(name)
        after = new_scenarios.get(name)
        if before is None or after is None:
            side = "baseline" if before is None else "new document"
            lines.append(f"  {name}: only present in one side (missing from {side})")
            continue
        lines.extend(
            _compare_measurement(
                name,
                "wall",
                before.get("wall_seconds"),
                after.get("wall_seconds"),
                threshold,
                min_seconds,
                regressions,
            )
        )
        old_stages = before.get("stages") or {}
        new_stages = after.get("stages") or {}
        for stage in sorted(set(old_stages) & set(new_stages)):
            lines.extend(
                _compare_measurement(
                    name,
                    f"stage {stage} self",
                    old_stages[stage].get("self_seconds"),
                    new_stages[stage].get("self_seconds"),
                    threshold,
                    min_seconds,
                    regressions,
                )
            )
    if regressions:
        lines.append(f"REGRESSIONS: {len(regressions)} measurement(s) over threshold")
    else:
        lines.append("no regressions over threshold")
    return lines, regressions


def _compare_measurement(
    scenario: str,
    what: str,
    before: Any,
    after: Any,
    threshold: float,
    min_seconds: float,
    regressions: List[Dict[str, Any]],
) -> List[str]:
    if not is_finite_number(before) or not is_finite_number(after):
        return []
    if before < min_seconds:
        return [
            f"  {scenario} [{what}]: {before * 1e3:.2f} -> {after * 1e3:.2f} ms "
            "(below noise floor, not gated)"
        ]
    ratio = after / before if before > 0 else float("inf")
    line = (
        f"  {scenario} [{what}]: {before * 1e3:.2f} -> {after * 1e3:.2f} ms "
        f"({ratio:.2f}x)"
    )
    if ratio > threshold:
        line += "  <-- REGRESSION"
        regressions.append(
            {
                "scenario": scenario,
                "measurement": what,
                "old_seconds": before,
                "new_seconds": after,
                "ratio": ratio,
            }
        )
    return [line]


# ------------------------------------------------------------------- rendering
def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f} s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.2f} ms"
    return f"{seconds * 1e6:8.1f} us"


def render_stage_table(
    stages: Dict[str, Dict[str, Any]], top: int = 20, width: int = 24
) -> List[str]:
    """Self-time table in the ``obs summary`` style, hottest first."""
    if not stages:
        return ["  (no stages recorded)"]
    total_self = sum(
        float(stage.get("self_seconds", 0.0)) for stage in stages.values()
    )
    lines = [
        f"  {'stage':<18} {'calls':>9} {'self':>11} {'cum':>11} "
        f"{'max':>11}  self%"
    ]
    ranked = sorted(
        stages.items(),
        key=lambda item: -float(item[1].get("self_seconds", 0.0)),
    )
    for name, stage in ranked[:top]:
        self_s = float(stage.get("self_seconds", 0.0))
        share = self_s / total_self if total_self > 0 else 0.0
        bar = "#" * max(1, round(share * width)) if self_s > 0 else ""
        lines.append(
            f"  {name:<18} {stage.get('calls', 0):>9} "
            f"{_format_seconds(self_s)} "
            f"{_format_seconds(float(stage.get('cum_seconds', 0.0)))} "
            f"{_format_seconds(float(stage.get('max_seconds', 0.0)))} "
            f"{share * 100:5.1f} {bar}"
        )
    if len(ranked) > top:
        lines.append(f"  ... {len(ranked) - top} more stage(s)")
    return lines


def render_call_tree(
    edges: Iterable[Dict[str, Any]], stages: Dict[str, Dict[str, Any]]
) -> List[str]:
    """Indented call tree from parent->child edges, heaviest first."""
    children: Dict[str, List[Dict[str, Any]]] = {}
    for edge in edges or ():
        children.setdefault(edge.get("parent", ""), []).append(edge)
    if not children:
        return []
    for siblings in children.values():
        siblings.sort(key=lambda e: -float(e.get("cum_seconds", 0.0)))
    lines: List[str] = []
    seen = set()

    def _walk(parent: str, depth: int) -> None:
        for edge in children.get(parent, ()):  # depth-first, heaviest first
            stage = edge["stage"]
            cum = float(edge.get("cum_seconds", 0.0))
            lines.append(
                f"  {'  ' * depth}{stage:<{max(2, 28 - 2 * depth)}} "
                f"{edge.get('calls', 0):>9} calls {_format_seconds(cum)}"
            )
            if stage in seen or depth > 8:
                continue  # recursion guard
            seen.add(stage)
            _walk(stage, depth + 1)
            seen.discard(stage)

    _walk("", 0)
    return lines


def render_bench_document(document: Dict[str, Any], top: int = 10) -> List[str]:
    """Human-readable summary of a bench document."""
    env = document.get("env", {})
    lines = [
        f"bench suite {document.get('suite')!r} "
        f"(python {env.get('python')}, {env.get('cpu_count')} cpus)"
    ]
    rss = document.get("peak_rss_bytes")
    if rss:
        lines.append(f"peak RSS: {rss / (1 << 20):.1f} MiB")
    for name, scenario in sorted(document.get("scenarios", {}).items()):
        wall = scenario.get("wall_seconds")
        parts = [f"{name}: {wall:.3f} s" if is_finite_number(wall) else f"{name}:"]
        if is_finite_number(scenario.get("events_per_second")):
            parts.append(f"{scenario['events_per_second']:,.0f} events/s")
        if is_finite_number(scenario.get("probes_per_second")):
            parts.append(f"{scenario['probes_per_second']:,.0f} probes/s")
        lines.append("  " + "  ".join(parts))
        stages = scenario.get("stages") or {}
        if stages:
            hottest = sorted(
                stages.items(),
                key=lambda item: -float(item[1].get("self_seconds", 0.0)),
            )[:top]
            hot = ", ".join(
                f"{stage}={float(data.get('self_seconds', 0.0)) * 1e3:.1f}ms"
                for stage, data in hottest[:3]
            )
            lines.append(f"    hottest: {hot}")
    return lines


def render_profile_document(
    document: Dict[str, Any],
    scenario: Optional[str] = None,
    top: int = 20,
) -> List[str]:
    """Full per-scenario stage tables + call trees (``obs profile``)."""
    scenarios = document.get("scenarios", {})
    if scenario is not None:
        if scenario not in scenarios:
            raise ObservabilityError(
                f"scenario {scenario!r} not in document "
                f"(has: {', '.join(sorted(scenarios)) or 'none'})"
            )
        selected = {scenario: scenarios[scenario]}
    else:
        selected = scenarios
    lines: List[str] = []
    for name, data in sorted(selected.items()):
        wall = data.get("wall_seconds")
        header = f"== {name}"
        if is_finite_number(wall):
            header += f" ({wall:.3f} s wall)"
        lines.append(header)
        lines.extend(render_stage_table(data.get("stages") or {}, top=top))
        tree = render_call_tree(data.get("edges") or [], data.get("stages") or {})
        if tree:
            lines.append("  call tree:")
            lines.extend(tree)
        lines.append("")
    if lines and not lines[-1]:
        lines.pop()
    return lines


# ------------------------------------------------------------ shared recorder
class BenchRecorder:
    """Incremental writer for the shared pytest-benchmark BENCH JSON.

    ``benchmarks/conftest.py`` exposes one of these per session; each
    ``test_bench_*`` guard appends its measurement via :meth:`record`,
    and :meth:`flush` merges into any existing document on disk (so
    separate pytest invocations of different benchmark files accumulate
    into one trajectory file) and writes it schema-validated.
    """

    def __init__(self, path, suite: str):
        self.path = path
        self.suite = suite
        self.entries: Dict[str, Dict[str, Any]] = {}

    def record(
        self, name: str, wall_seconds: float, **extra: Any
    ) -> Dict[str, Any]:
        entry = {"wall_seconds": float(wall_seconds)}
        entry.update(extra)
        self.entries[name] = entry
        return entry

    def flush(self) -> Optional[Dict[str, Any]]:
        if not self.entries:
            return None
        scenarios: Dict[str, Dict[str, Any]] = {}
        if os.path.exists(self.path):
            try:
                existing = load_bench_document(self.path)
                scenarios.update(existing.get("scenarios", {}))
            except ObservabilityError:
                pass  # rewrite a corrupt/legacy file wholesale
        scenarios.update(self.entries)
        document = make_bench_document(self.suite, scenarios)
        return write_bench_document(self.path, document)
