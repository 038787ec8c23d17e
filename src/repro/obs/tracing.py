"""Wall-clock tracing spans (perf_counter-based) emitted as JSONL.

A :class:`Tracer` records nested spans around the expensive phases of a
run — building the testbed, starting traffic, the simulator event loop,
the probe-log join, estimation, validation — so performance cliffs show
up as a named span instead of a mysterious slow run. Spans carry
wall-clock timings and are therefore **not** deterministic across runs;
deterministic data belongs in :mod:`repro.obs.metrics`.

Usage::

    tracer = Tracer(tool="badabing")
    with trace_span(tracer, "sim.run", seed=7):
        sim.run(until=...)
    tracer.write_jsonl("t.jsonl")

``trace_span(None, ...)`` is a supported no-op, so call sites never need
to branch on whether tracing is enabled.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: Schema identifier stamped into the trace meta line.
TRACE_SCHEMA = "repro.obs.trace/1"


class Tracer:
    """In-memory span collector with a JSONL exporter.

    Spans nest via an explicit stack: a span started while another is
    open records the open span's name as its ``parent``. Timestamps are
    seconds since the tracer's construction (``perf_counter`` deltas),
    which keeps the file self-contained and diffable.
    """

    def __init__(self, **meta: Any):
        self.meta: Dict[str, Any] = dict(meta)
        self.spans: List[Dict[str, Any]] = []
        self._epoch = time.perf_counter()
        self._stack: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------ spans
    def start(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        span = {
            "type": "span",
            "name": name,
            "t0": time.perf_counter() - self._epoch,
            "dur": None,
            "parent": self._stack[-1]["name"] if self._stack else None,
            "attrs": dict(attrs) if attrs else {},
        }
        self._stack.append(span)
        return span

    def finish(self, span: Dict[str, Any]) -> None:
        span["dur"] = time.perf_counter() - self._epoch - span["t0"]
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order finish
            self._stack.remove(span)
        self.spans.append(span)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous (zero-duration) marker."""
        self.spans.append(
            {
                "type": "event",
                "name": name,
                "t0": time.perf_counter() - self._epoch,
                "dur": 0.0,
                "parent": self._stack[-1]["name"] if self._stack else None,
                "attrs": dict(attrs),
            }
        )

    # ----------------------------------------------------------------- shards
    def absorb(self, spans: List[Dict[str, Any]], **attrs: Any) -> None:
        """Fold a worker shard's span records into this tracer.

        A parallel sweep's workers each run their own :class:`Tracer` and
        send back ``tracer.spans`` (plain dicts, picklable); the parent
        absorbs the shards in cell order so one trace file covers the whole
        sweep. ``attrs`` (e.g. ``cell=label``) are merged into every
        absorbed record. Shard timestamps stay relative to the *worker's*
        epoch — wall-clock spans are never deterministic, and per-shard
        durations are what matters for finding slow cells.
        """
        for span in spans:
            record = dict(span)
            if attrs:
                record["attrs"] = {**record.get("attrs", {}), **attrs}
            self.spans.append(record)

    # ----------------------------------------------------------------- export
    def lines(self) -> Iterator[Dict[str, Any]]:
        """The records that :meth:`write_jsonl` would write, in order."""
        yield {"type": "meta", "schema": TRACE_SCHEMA, **self.meta}
        for span in sorted(self.spans, key=lambda s: s["t0"]):
            yield span

    def write_jsonl(self, path) -> None:
        from repro.obs.artifacts import open_artifact

        with open_artifact(path, "trace") as handle:
            for record in self.lines():
                handle.write(json.dumps(record) + "\n")


@contextmanager
def trace_span(tracer: Optional[Tracer], name: str, **attrs: Any):
    """Span context manager; a ``None`` tracer makes it a free no-op."""
    if tracer is None:
        yield None
        return
    span = tracer.start(name, attrs)
    try:
        yield span
    finally:
        tracer.finish(span)
