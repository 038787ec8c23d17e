"""Wall-clock trace of a run (perf_counter-based), emitted as JSONL.

A :class:`Tracer` is a span log that a
:class:`~repro.obs.profile.StageProfiler` writes into: while a profiler
built with a tracer is active, every scoped stage frame — building the
testbed, starting traffic, the simulator event loop, the probe-log join,
marking, estimation, validation, a live session — is recorded as a
span, and :func:`~repro.profiling.trace_event` adds instantaneous events
(``sim.heartbeat``, ``alert.*``, ``export.*``). Spans carry wall-clock
timings and are therefore **not** deterministic across runs;
deterministic data belongs in :mod:`repro.obs.metrics`.

Usage::

    tracer = Tracer(tool="badabing")
    with profiling(StageProfiler(tracer=tracer)):
        run_badabing(...)
    tracer.write_jsonl("t.jsonl")
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Iterator, List, Optional

#: Schema identifier stamped into the trace meta line.
TRACE_SCHEMA = "repro.obs.trace/2"


class Tracer:
    """In-memory span log with a JSONL exporter.

    Timestamps are seconds since the tracer's construction
    (``perf_counter`` deltas), which keeps the file self-contained and
    diffable. A pool worker's records, absorbed into a sweep's tracer,
    stay on the worker's epoch.
    """

    def __init__(self, **meta: Any):
        self.meta: Dict[str, Any] = dict(meta)
        self.spans: List[Dict[str, Any]] = []
        self._epoch = time.perf_counter()

    def record(
        self,
        kind: str,
        name: str,
        start: float,
        dur: float,
        parent: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        """Append one ``span`` or ``event``; ``start`` is a perf_counter
        reading."""
        self.spans.append(
            {
                "type": kind,
                "name": name,
                "t0": start - self._epoch,
                "dur": dur,
                "parent": parent,
                "attrs": attrs,
            }
        )

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
