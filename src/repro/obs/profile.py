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
*itself* and never touches a :class:`~repro.obs.metrics.MetricsRegistry`.
Stage stats cross process boundaries as data: a sweep worker returns its
profiler's :meth:`StageProfiler.snapshot` and the parent folds it in with
:meth:`StageProfiler.absorb`.

The process-global activation plumbing (:data:`~repro.profiling.ACTIVE`,
:func:`~repro.profiling.profiling`, :func:`~repro.profiling.profile_stage`)
lives in :mod:`repro.profiling` so hot modules can import it without the
``repro.obs`` package cycle; it is re-exported here.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Tuple

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
        max.
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
