"""Deterministic stage profiler for the measurement pipeline.

Scoped stage timers (:class:`StageProfiler`), zero-dependency: the
pipeline's named stages — ``schedule.generate``, ``sim.run``,
``queue.service``, ``marking.apply``, ``estimator.fold``,
``validator.fold``, ``wire.encode``/``wire.decode``, ``trace.io``,
``registry.merge`` — carry lightweight monotonic-clock timers that
attribute *self* time (stage minus its children) and *cumulative* time
(whole stage, reentrancy-aware) per stage, bucket every call into a
fixed-bound histogram, and record parent→child edges for call-tree
rendering.

Determinism contract (DESIGN.md §14): profiling must never perturb
metric snapshot digests. A profiler keeps all of its wall-clock state on
*itself*; it only touches a :class:`~repro.obs.metrics.MetricsRegistry`
when :meth:`StageProfiler.publish` is called explicitly (bench shards
use this to ride the existing ``merge(series_labels=)`` aggregation),
and publication is **assignment-based** — the registered collector
overwrites ``profile.*`` instruments with the profiler's totals instead
of replaying observations, so repeated collect/snapshot/merge cycles
(exporter scrapes, shard merges) can never double-count.

The process-global activation plumbing (:data:`~repro.profiling.ACTIVE`,
:func:`~repro.profiling.profiling`, :func:`~repro.profiling.profile_stage`)
lives in :mod:`repro.profiling` so hot modules can import it without the
``repro.obs`` package cycle; it is re-exported here.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.profiling import (  # noqa: F401  (re-exported API surface)
    STAGE_BUCKETS,
    active_profiler,
    profile_stage,
    profiling,
    set_active_profiler,
)

PROFILE_SCHEMA = "repro.obs.profile/1"

#: The pipeline stages the substrate instruments out of the box. Kept as
#: one canonical tuple so tests and the bench document can assert
#: coverage against a single source of truth.
PIPELINE_STAGES: Tuple[str, ...] = (
    "schedule.generate",
    "sim.run",
    "queue.service",
    "marking.apply",
    "estimator.fold",
    "validator.fold",
    "wire.encode",
    "wire.decode",
    "trace.io",
    "registry.merge",
)


class _StageStat:
    """Accumulated timings for one named stage."""

    __slots__ = (
        "name", "calls", "self_seconds", "cum_seconds", "max_seconds",
        "sum_seconds", "counts",
    )

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.self_seconds = 0.0
        #: Reentrancy-aware total: nested same-name frames contribute only
        #: via the outermost one, so recursion cannot inflate this past
        #: wall time.
        self.cum_seconds = 0.0
        self.max_seconds = 0.0
        #: Plain per-call duration total (histogram ``sum``): *does* count
        #: nested same-name calls, matching ``counts``.
        self.sum_seconds = 0.0
        self.counts = [0] * (len(STAGE_BUCKETS) + 1)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "calls": self.calls,
            "self_seconds": self.self_seconds,
            "cum_seconds": self.cum_seconds,
            "max_seconds": self.max_seconds,
            "sum_seconds": self.sum_seconds,
            "buckets": list(STAGE_BUCKETS),
            "counts": list(self.counts),
        }


class StageProfiler:
    """Scoped stage timer with self/cumulative attribution.

    Frames are plain lists (``[name, start, child_seconds]``) handed back
    from :meth:`start` and consumed by :meth:`stop`; the hot-path cost of
    an instrumented stage is two monotonic clock reads plus a handful of
    arithmetic ops. Not thread-safe by design — one profiler per thread
    (the pipeline is single-threaded per cell); the sampler covers
    threads.
    """

    enabled = True

    def __init__(self, clock=perf_counter):
        self._clock = clock
        self._stack: List[list] = []
        self._stats: Dict[str, _StageStat] = {}
        self._edges: Dict[Tuple[str, str], List[float]] = {}
        self._depth: Dict[str, int] = {}
        #: Open leaf accumulators: (parent_frame_or_None, name, acc).
        self._leaf_accs: List[tuple] = []

    # ------------------------------------------------------------- timing
    def start(self, name: str) -> list:
        """Open a stage frame. Pair with :meth:`stop` in a finally block."""
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        # Clock read last so profiler bookkeeping lands in the parent's
        # self time, not the child's.
        frame[1] = self._clock()
        return frame

    def stop(self, frame: list) -> float:
        """Close ``frame``; returns its wall duration in seconds.

        Tolerates exception unwinding that abandoned frames above this
        one (they are discarded without recording) and ignores a frame
        that was already stopped.
        """
        now = self._clock()
        stack = self._stack
        for open_frame in stack:
            if open_frame is frame:
                break
        else:
            return 0.0
        abandoned: List[list] = []
        while stack:
            top = stack.pop()
            if top is frame:
                break
            # Abandoned by an exception before its own stop() could run:
            # drop it, but keep the reentrancy depth bookkeeping honest.
            self._depth[top[0]] = self._depth.get(top[0], 1) - 1
            abandoned.append(top)
        if self._leaf_accs:
            # Fold leaf accumulators whose parent frame is closing; their
            # total lands in frame[2] (child time) before self is computed.
            keep = []
            for parent, leaf_name, acc in self._leaf_accs:
                if parent is frame or any(parent is top for top in abandoned):
                    total = self._fold_leaf(parent[0], leaf_name, acc)
                    if parent is frame:
                        frame[2] += total
                else:
                    keep.append((parent, leaf_name, acc))
            self._leaf_accs[:] = keep
        name = frame[0]
        duration = now - frame[1]
        if duration < 0.0:
            duration = 0.0
        depth = self._depth.get(name, 1) - 1
        self._depth[name] = depth
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = _StageStat(name)
        stat.calls += 1
        self_seconds = duration - frame[2]
        if self_seconds < 0.0:
            self_seconds = 0.0
        stat.self_seconds += self_seconds
        if depth == 0:
            stat.cum_seconds += duration
        if duration > stat.max_seconds:
            stat.max_seconds = duration
        stat.sum_seconds += duration
        stat.counts[bisect_left(STAGE_BUCKETS, duration)] += 1
        if stack:
            parent = stack[-1]
            parent[2] += duration
            edge_key = (parent[0], name)
        else:
            edge_key = ("", name)
        edge = self._edges.get(edge_key)
        if edge is None:
            edge = self._edges[edge_key] = [0, 0.0]
        edge[0] += 1
        edge[1] += duration
        return duration

    @contextmanager
    def stage(self, name: str) -> Iterator[list]:
        """Scoped form of :meth:`start`/:meth:`stop`."""
        frame = self.start(name)
        try:
            yield frame
        finally:
            self.stop(frame)

    def record(self, name: str, seconds: float) -> None:
        """Record one already-measured leaf call of ``seconds`` duration.

        The cheap path for per-packet sites (queue service, wire codecs):
        the caller reads the clock itself, so there is no frame push/pop.
        The call is charged to the enclosing open frame (if any) as child
        time and gets a parent edge, exactly like a scoped frame would.
        """
        if seconds < 0.0:
            seconds = 0.0
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = _StageStat(name)
        stat.calls += 1
        stat.self_seconds += seconds
        # Inside an open same-name scoped frame the enclosing stop() will
        # count this time in cum already (reentrancy rule).
        if self._depth.get(name, 0) == 0:
            stat.cum_seconds += seconds
        if seconds > stat.max_seconds:
            stat.max_seconds = seconds
        stat.sum_seconds += seconds
        stat.counts[bisect_left(STAGE_BUCKETS, seconds)] += 1
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[2] += seconds
            edge_key = (parent[0], name)
        else:
            edge_key = ("", name)
        edge = self._edges.get(edge_key)
        if edge is None:
            edge = self._edges[edge_key] = [0, 0.0]
        edge[0] += 1
        edge[1] += seconds

    def leaf(self, name: str) -> list:
        """Preregistered accumulator for a per-event hot site.

        :meth:`record` still costs a method call plus several dict
        operations per event — too much inside the simulator's
        per-packet loop. ``leaf`` hands the caller a plain mutable list
        ``[calls, total_seconds, max_seconds, counts, closed]`` to update
        *inline* (index ops only); the accumulator is folded into the
        stage stats when the enclosing open frame stops, or at
        snapshot/stages time for root-level accumulators. ``closed``
        flips True at fold — callers must re-fetch a fresh accumulator
        when they see it set.
        """
        acc = [0, 0.0, 0.0, [0] * (len(STAGE_BUCKETS) + 1), False]
        parent = self._stack[-1] if self._stack else None
        self._leaf_accs.append((parent, name, acc))
        return acc

    def _fold_leaf(self, parent_name: str, name: str, acc: list) -> float:
        """Fold one leaf accumulator into the stats; returns its total."""
        acc[4] = True
        calls = acc[0]
        if not calls:
            return 0.0
        total = acc[1]
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = _StageStat(name)
        stat.calls += calls
        stat.self_seconds += total
        # Same reentrancy rule as record(): inside an open same-name
        # scoped frame the enclosing stop() counts this time in cum.
        if self._depth.get(name, 0) == 0:
            stat.cum_seconds += total
        if acc[2] > stat.max_seconds:
            stat.max_seconds = acc[2]
        stat.sum_seconds += total
        counts = stat.counts
        for index, count in enumerate(acc[3]):
            counts[index] += count
        edge_key = (parent_name, name)
        edge = self._edges.get(edge_key)
        if edge is None:
            edge = self._edges[edge_key] = [0, 0.0]
        edge[0] += calls
        edge[1] += total
        return total

    def _flush_leaves(self) -> None:
        """Fold every remaining leaf accumulator (snapshot/stages time).

        Accumulators under a *still-open* frame charge that frame's child
        time now, so its eventual stop() still computes self correctly.
        """
        if not self._leaf_accs:
            return
        open_ids = {id(open_frame) for open_frame in self._stack}
        for parent, name, acc in self._leaf_accs:
            total = self._fold_leaf(parent[0] if parent else "", name, acc)
            if parent is not None and id(parent) in open_ids:
                parent[2] += total
        self._leaf_accs.clear()

    # ------------------------------------------------------------ documents
    def stages(self) -> Dict[str, Dict[str, Any]]:
        """Per-stage stats as plain dicts, sorted by stage name."""
        self._flush_leaves()
        return {
            name: self._stats[name].to_dict() for name in sorted(self._stats)
        }

    def edges(self) -> List[Dict[str, Any]]:
        """Parent→child call edges (root edges have ``parent == ""``)."""
        self._flush_leaves()
        return [
            {
                "parent": parent,
                "stage": stage,
                "calls": calls,
                "cum_seconds": cum,
            }
            for (parent, stage), (calls, cum) in sorted(self._edges.items())
        ]

    def snapshot(self) -> Dict[str, Any]:
        """The profiler's state as a ``repro.obs.profile/1`` document."""
        return {
            "schema": PROFILE_SCHEMA,
            "enabled": True,
            "stages": self.stages(),
            "edges": self.edges(),
        }

    def absorb(self, snapshot: Dict[str, Any]) -> None:
        """Fold another profiler's :meth:`snapshot` into this one.

        Counters and histogram buckets add; ``max_seconds`` takes the
        max — the same semantics registry merge gives the published form.
        """
        for name, stage in snapshot.get("stages", {}).items():
            stat = self._stats.get(name)
            if stat is None:
                stat = self._stats[name] = _StageStat(name)
            counts = stage.get("counts", [])
            if len(counts) != len(stat.counts):
                raise ObservabilityError(
                    f"cannot absorb stage {name!r}: bucket shape differs"
                )
            stat.calls += int(stage.get("calls", 0))
            stat.self_seconds += float(stage.get("self_seconds", 0.0))
            stat.cum_seconds += float(stage.get("cum_seconds", 0.0))
            stat.sum_seconds += float(stage.get("sum_seconds", 0.0))
            stat.max_seconds = max(
                stat.max_seconds, float(stage.get("max_seconds", 0.0))
            )
            for i, n in enumerate(counts):
                stat.counts[i] += int(n)
        for edge in snapshot.get("edges", []):
            key = (edge.get("parent", ""), edge["stage"])
            slot = self._edges.get(key)
            if slot is None:
                slot = self._edges[key] = [0, 0.0]
            slot[0] += int(edge.get("calls", 0))
            slot[1] += float(edge.get("cum_seconds", 0.0))

    # ----------------------------------------------------------- publication
    def publish(self, registry) -> None:
        """Expose stage stats as ``profile.*`` instruments on ``registry``.

        Registers a pull-collector that *assigns* the profiler's current
        totals — ``profile.stage_calls``/``profile.stage_self_seconds``/
        ``profile.stage_cum_seconds`` counters, a ``profile.stage_seconds``
        histogram loaded wholesale via :meth:`~repro.obs.metrics.Histogram.load`,
        and a ``profile.stage_max_seconds`` gauge sampled to the peak.
        Assignment makes collection idempotent: an exporter scraping the
        registry mid-run, a ``detach_collectors()`` bake, and the
        ``merge()``-triggered collect all observe the same totals exactly
        once, so shard histograms survive
        ``MetricsRegistry.merge(series_labels=...)`` without
        double-counting. No-op on disabled registries.

        Note this intentionally writes *wall-clock* data into the
        registry, which breaks the snapshot's seed-determinism — callers
        opt in per registry (bench shards only); default pipelines never
        publish.
        """
        if not registry.enabled:
            return
        registry.add_collector(self._collect_into)

    def _collect_into(self, registry) -> None:
        self._flush_leaves()
        for name, stat in self._stats.items():
            registry.counter("profile.stage_calls", stage=name).value = stat.calls
            registry.counter(
                "profile.stage_self_seconds", stage=name
            ).value = stat.self_seconds
            registry.counter(
                "profile.stage_cum_seconds", stage=name
            ).value = stat.cum_seconds
            registry.gauge("profile.stage_max_seconds", stage=name).sample(
                stat.max_seconds
            )
            registry.histogram(
                "profile.stage_seconds", buckets=STAGE_BUCKETS, stage=name
            ).load(stat.counts, stat.sum_seconds)


class NullProfiler:
    """Disabled profiler: same API, records nothing.

    Activating one via :func:`~repro.profiling.set_active_profiler`
    normalizes to no active profiler at all, so even the ``None`` check
    at instrumentation sites is the only cost.
    """

    enabled = False

    def start(self, name: str) -> None:
        return None

    def stop(self, frame) -> float:
        return 0.0

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        yield None

    def record(self, name: str, seconds: float) -> None:
        pass

    def leaf(self, name: str) -> list:
        # Pre-closed: a caller that checks the closed flag re-fetches
        # forever without accumulating anything.
        return [0, 0.0, 0.0, [0] * (len(STAGE_BUCKETS) + 1), True]

    def stages(self) -> Dict[str, Dict[str, Any]]:
        return {}

    def edges(self) -> List[Dict[str, Any]]:
        return []

    def snapshot(self) -> Dict[str, Any]:
        return {
            "schema": PROFILE_SCHEMA,
            "enabled": False,
            "stages": {},
            "edges": [],
        }

    def absorb(self, snapshot: Dict[str, Any]) -> None:
        pass

    def publish(self, registry) -> None:
        pass


def merge_stage_maps(
    base: Dict[str, Dict[str, Any]], other: Dict[str, Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Merge two ``stages`` maps (snapshot/:func:`stages_from_registry`
    shaped) with add/max semantics; neither input is mutated."""
    combined = StageProfiler()
    combined.absorb({"stages": base, "edges": []})
    combined.absorb({"stages": other, "edges": []})
    return combined.stages()


def stages_from_registry(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Reconstruct a ``stages`` map from published ``profile.*`` metrics.

    The inverse of :meth:`StageProfiler.publish` over a (possibly merged)
    registry snapshot — how the bench suite recovers worker-side stage
    stats after a parallel sweep folded its shards together. Edges are
    not published, so the result carries timing stats only.
    """
    from repro.obs.export import parse_key

    stages: Dict[str, Dict[str, Any]] = {}

    def _slot(labels: Dict[str, str]) -> Optional[Dict[str, Any]]:
        stage = labels.get("stage")
        if stage is None:
            return None
        slot = stages.get(stage)
        if slot is None:
            slot = stages[stage] = {
                "calls": 0,
                "self_seconds": 0.0,
                "cum_seconds": 0.0,
                "max_seconds": 0.0,
                "sum_seconds": 0.0,
                "buckets": list(STAGE_BUCKETS),
                "counts": [0] * (len(STAGE_BUCKETS) + 1),
            }
        return slot

    for key, value in snapshot.get("counters", {}).items():
        name, labels = parse_key(key)
        slot = _slot(labels)
        if slot is None:
            continue
        if name == "profile.stage_calls":
            slot["calls"] = int(value)
        elif name == "profile.stage_self_seconds":
            slot["self_seconds"] = float(value)
        elif name == "profile.stage_cum_seconds":
            slot["cum_seconds"] = float(value)
    for key, gauge in snapshot.get("gauges", {}).items():
        name, labels = parse_key(key)
        if name != "profile.stage_max_seconds":
            continue
        slot = _slot(labels)
        if slot is not None:
            slot["max_seconds"] = float(gauge.get("peak", gauge.get("value", 0.0)))
    for key, hist in snapshot.get("histograms", {}).items():
        name, labels = parse_key(key)
        if name != "profile.stage_seconds":
            continue
        slot = _slot(labels)
        if slot is not None:
            slot["counts"] = [int(n) for n in hist.get("counts", slot["counts"])]
            slot["buckets"] = list(hist.get("buckets", slot["buckets"]))
            slot["sum_seconds"] = float(hist.get("sum", 0.0))
    return {name: stages[name] for name in sorted(stages)}
