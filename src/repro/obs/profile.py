"""Deterministic stage profiler for the measurement pipeline.

Scoped stage timers (:class:`StageProfiler`), zero-dependency: the
pipeline's named stages (:data:`PIPELINE_STAGES`: the runner's phases,
``schedule.generate``, ``sim.run``, ``marking.apply``,
``estimator.fold``, ``validator.fold``, ``wire.encode``/``wire.decode``,
``trace.io``, ``registry.merge``, the live session) carry lightweight
monotonic-clock timers that attribute *self* time (stage minus its
children) and *cumulative* time (whole stage, reentrancy-aware) per
stage, bucket every call into a fixed-bound histogram, and record
parent→child edges for call-tree rendering.

A profiler built with a :class:`~repro.obs.tracing.Tracer` is also the
run's trace: every scoped frame (:func:`~repro.profiling.profile_stage`)
is recorded as a span with its attributes, and
:func:`~repro.profiling.trace_event` adds instantaneous events. Manual
per-item frames (``start(name)``/``stop``) stay aggregate only.

Determinism contract (DESIGN.md §14): profiling must never perturb
metric snapshot digests. A profiler keeps all of its wall-clock state on
*itself* and never touches a :class:`~repro.obs.metrics.MetricsRegistry`.
Stage stats and spans cross process boundaries as data: a sweep worker
returns its profiler's :meth:`StageProfiler.snapshot` and the parent
folds it in with :meth:`StageProfiler.absorb`.

The process-global activation plumbing (:data:`~repro.profiling.ACTIVE`,
:func:`~repro.profiling.profiling`, :func:`~repro.profiling.profile_stage`,
:func:`~repro.profiling.trace_event`) lives in :mod:`repro.profiling` so
hot modules can import it without the ``repro.obs`` package cycle; it is
re-exported here.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.tracing import Tracer
from repro.profiling import (  # noqa: F401  (re-exported API surface)
    active_profiler,
    active_tracer,
    profile_stage,
    profiling,
    set_active_profiler,
    trace_event,
)

PROFILE_SCHEMA = "repro.obs.profile/1"

#: Per-call duration buckets (seconds): sub-microsecond wire codecs up
#: to multi-second sweep merges.
STAGE_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)

#: The pipeline stages the substrate instruments out of the box. Kept as
#: one canonical tuple so tests and the bench document can assert
#: coverage against a single source of truth.
PIPELINE_STAGES: Tuple[str, ...] = (
    "sweep.cell",
    "testbed.build",
    "traffic.start",
    "schedule.generate",
    "sim.run",
    "truth.extract",
    "tool.result",
    "probe.join",
    "audit.build",
    "live.session",
    "live.assemble",
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

    Frames are plain lists (``[name, start, child_seconds, attrs]``)
    handed back from :meth:`start` and consumed by :meth:`stop`; the
    hot-path cost of an instrumented stage is two monotonic clock reads
    plus a handful of arithmetic ops. With a ``tracer``, :meth:`stop`
    also records every frame opened with ``attrs`` (a scoped frame) as a
    span on the tracer's epoch, its parent the enclosing frame. Frames
    are one stack per profiler, so they must nest: one profiler per
    thread (the pipeline is single-threaded per cell), and at most one
    frame open across an ``await`` (``live.session``).
    """

    def __init__(self, clock=perf_counter, tracer: Optional[Tracer] = None):
        self._clock = clock
        self.tracer = tracer
        self._stack: List[list] = []
        self._stats: Dict[str, _StageStat] = {}
        self._edges: Dict[Tuple[str, str], List[float]] = {}
        self._depth: Dict[str, int] = {}

    # ------------------------------------------------------------- timing
    def start(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> list:
        """Open a stage frame. Pair with :meth:`stop` in a finally block.

        A frame opened with ``attrs`` (even empty ones) becomes a span
        when the profiler traces; one opened without stays aggregate only.
        """
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [name, 0.0, 0.0, attrs]
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
        while stack:
            top = stack.pop()
            if top is frame:
                break
            # Abandoned by an exception before its own stop() could run:
            # drop it, but keep the reentrancy depth bookkeeping honest.
            self._depth[top[0]] = self._depth.get(top[0], 1) - 1
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
        if self.tracer is not None and frame[3] is not None:
            self.tracer.record(
                "span", name, frame[1], duration, edge_key[0] or None, frame[3]
            )
        return duration

    def event(self, name: str, attrs: Dict[str, Any]) -> None:
        """Record an instantaneous event on the tracer, if there is one.

        Opens no frame, so another thread may call it; the parent is
        whatever frame is innermost at that moment.
        """
        if self.tracer is None:
            return
        try:
            parent = self._stack[-1][0]
        except IndexError:
            parent = None
        self.tracer.record("event", name, self._clock(), 0.0, parent, attrs)

    @contextmanager
    def stage(self, name: str, **attrs: Any) -> Iterator[list]:
        """Scoped form of :meth:`start`/:meth:`stop`."""
        frame = self.start(name, attrs)
        try:
            yield frame
        finally:
            self.stop(frame)

    # ------------------------------------------------------------ documents
    def stages(self) -> Dict[str, Dict[str, Any]]:
        """Per-stage stats as plain dicts, sorted by stage name."""
        return {
            name: self._stats[name].to_dict() for name in sorted(self._stats)
        }

    def edges(self) -> List[Dict[str, Any]]:
        """Parent→child call edges (root edges have ``parent == ""``)."""
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
        """The profiler's state as a ``repro.obs.profile/1`` document; a
        tracing profiler's also carries its trace records as ``spans``."""
        snapshot = {
            "schema": PROFILE_SCHEMA,
            "enabled": True,
            "stages": self.stages(),
            "edges": self.edges(),
        }
        if self.tracer is not None:
            snapshot["spans"] = self.tracer.spans
        return snapshot

    def absorb(self, snapshot: Dict[str, Any]) -> None:
        """Fold another profiler's :meth:`snapshot` into this one.

        Counters and histogram buckets add; ``max_seconds`` takes the
        max. A worker's trace records join this profiler's tracer, if it
        has one, on the worker's epoch.
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
        if self.tracer is not None:
            self.tracer.spans.extend(snapshot.get("spans", ()))

