"""Streaming telemetry export: NDJSON snapshots + HTTP exposition.

PRs 2–3 made every run measurable *after the fact*: registries are
snapshotted once, when the run exits. This module makes the same
registries observable *while the run is alive* — the operational
counterpart of the paper's §5.4 argument that a measurement should be
validated as it runs, not post-hoc.

Three pieces:

* :class:`SnapshotWriter` — newline-delimited JSON records with
  monotonic sequence numbers and bounded single-file rotation, so a
  multi-hour soak cannot fill the disk and a crash mid-write loses at
  most the last line.
* :class:`TelemetryExporter` — periodically snapshots a live
  :class:`~repro.obs.metrics.MetricsRegistry`, runs the attached
  :class:`~repro.obs.alerts.AlertRules`, appends an export record, and
  (optionally) serves a zero-dependency Prometheus-style text endpoint
  over asyncio HTTP: ``/metrics`` (exposition), ``/healthz`` (liveness
  JSON), ``/sessions`` (per-session rollup JSON the dashboard renders).
  Works in three modes: ``await start()``/``await stop()`` inside an
  asyncio runtime, ``start_thread()``/``close()`` from synchronous code,
  or pure manual ``export_now()`` calls (sweep progress snapshots).
* Rollups + validation — :func:`rollup_sessions` groups merged fleet or
  sweep shards back into per-session rows; :func:`validate_export_file`
  is the CI check for recorded snapshot streams.

Determinism contract: the exporter NEVER writes into the monitored
registry. Alert gauges and export bookkeeping live on the exporter's own
side registry (:attr:`TelemetryExporter.own`), and sequence numbers /
wall timestamps travel in the record *envelope*, so the monitored
registry's :func:`~repro.obs.metrics.snapshot_digest` stays byte-identical
with and without export enabled. Under :class:`~repro.obs.metrics.NullRegistry`
every entry point is a no-op: no file, no server, no thread.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.alerts import AlertRule, AlertRules
from repro.obs.artifacts import ensure_parent_dir, read_ndjson_records
from repro.obs.metrics import (
    MetricsRegistry,
    NullRegistry,
    _sort_key,
    snapshot_digest,
)
from repro.obs.schema import is_finite_number, validate_snapshot
from repro.profiling import trace_event

#: Schema identifier carried by every exported snapshot record.
EXPORT_SCHEMA = "repro.obs.export/1"

#: Schema identifier of the ``/sessions`` rollup document.
SESSIONS_SCHEMA = "repro.obs.sessions/1"

#: Record kinds an exporter emits.
EXPORT_KINDS = ("periodic", "progress", "final", "manual")

#: Labels that identify a merged shard (fleet sessions, sweep cells).
GROUP_LABEL_KEYS = ("session", "cell")

#: Series names whose last value is a running F̂ (loss frequency) estimate.
_FREQUENCY_SERIES = ("audit.f_hat", "live.frequency")


# --------------------------------------------------------------------- writer
class SnapshotWriter:
    """Append-only NDJSON writer with bounded single-generation rotation.

    When the current file would exceed ``max_bytes`` the handle is closed,
    the file renamed to ``<path>.1`` (replacing any previous generation),
    and a fresh file opened — total disk use stays under ~2×``max_bytes``
    for arbitrarily long runs. Every record is flushed as one line, so a
    killed process leaves at most one truncated trailing line (the reader
    side tolerates exactly that).
    """

    def __init__(self, path, max_bytes: int = 16_000_000):
        if max_bytes < 4096:
            raise ObservabilityError(f"max_bytes must be >= 4096, got {max_bytes}")
        self.path = os.fspath(path)
        self.max_bytes = max_bytes
        self.rotations = 0
        self.records_written = 0
        self._bytes = 0
        ensure_parent_dir(self.path, "export snapshots")
        self._handle = self._open()

    def _open(self):
        try:
            return open(self.path, "w", encoding="utf-8")
        except OSError as exc:
            raise ObservabilityError(
                f"cannot write export snapshots {self.path}: {exc}"
            ) from exc

    def write(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            return
        line = json.dumps(record, separators=(",", ":"), allow_nan=False) + "\n"
        if self._bytes and self._bytes + len(line) > self.max_bytes:
            self._rotate()
        self._handle.write(line)
        self._handle.flush()
        self._bytes += len(line)
        self.records_written += 1

    def _rotate(self) -> None:
        self._handle.close()
        try:
            os.replace(self.path, self.path + ".1")
        except OSError as exc:
            raise ObservabilityError(
                f"cannot rotate export snapshots {self.path}: {exc}"
            ) from exc
        self._handle = self._open()
        self._bytes = 0
        self.rotations += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    @property
    def closed(self) -> bool:
        return self._handle is None


# ------------------------------------------------------------------- exporter
class TelemetryExporter:
    """Periodic registry → snapshot-stream/HTTP bridge with alerting.

    Parameters
    ----------
    registry:
        The monitored registry. A :class:`NullRegistry` disables the
        exporter entirely (every method becomes a no-op).
    interval:
        Seconds between periodic exports (asyncio task or thread mode).
    path:
        Optional NDJSON snapshot file (see :class:`SnapshotWriter`).
    http_port:
        Enable the HTTP endpoint on this port when :meth:`start` runs
        inside asyncio; ``0`` binds an ephemeral port (read the bound
        port back from :attr:`http_port`). ``None`` disables HTTP.
    rules:
        Declarative :class:`~repro.obs.alerts.AlertRule` list evaluated
        on every export against the fresh snapshot.
    meta:
        Static context (tool name, fleet size, …) copied into every
        record envelope and the ``/healthz`` document.
    clock / wall_clock:
        Injectable time sources (monotonic uptime, wall timestamps) so
        tests can drive the envelope deterministically.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        interval: float = 1.0,
        path=None,
        http_host: str = "127.0.0.1",
        http_port: Optional[int] = None,
        rules: Sequence[AlertRule] = (),
        meta: Optional[Dict[str, Any]] = None,
        max_bytes: int = 16_000_000,
        clock=time.monotonic,
        wall_clock=time.time,
    ):
        if interval <= 0:
            raise ObservabilityError(f"export interval must be > 0, got {interval}")
        self.registry = registry
        self.enabled = bool(getattr(registry, "enabled", False))
        self.interval = float(interval)
        self.meta = dict(meta or {})
        #: Side registry owning alert gauges + export bookkeeping. Never
        #: merged into the monitored registry: its contents are wall-clock
        #: shaped and would break same-seed snapshot digests.
        self.own: MetricsRegistry = MetricsRegistry() if self.enabled else NullRegistry()
        self.rules = AlertRules(rules, registry=self.own)
        self.seq = 0
        self.last_record: Optional[Dict[str, Any]] = None
        self.http_host = http_host
        self.http_port = http_port
        self._clock = clock
        self._wall = wall_clock
        self._t0 = clock()
        self._lock = threading.Lock()
        self._writer = (
            SnapshotWriter(path, max_bytes) if (path is not None and self.enabled) else None
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._task: Optional[asyncio.Task] = None
        self._thread: Optional[threading.Thread] = None
        self._thread_stop: Optional[threading.Event] = None
        self._closed = False

    # ------------------------------------------------------------- snapshots
    def _snapshot(self) -> Dict[str, Any]:
        # A thread-mode exporter can snapshot while the monitored run is
        # registering new instruments; dict iteration then raises
        # RuntimeError. Instrument creation is rare (hot paths resolve
        # once), so a short retry always wins.
        for _ in range(8):
            try:
                return self.registry.snapshot()
            except RuntimeError:
                continue
        return self.registry.snapshot()

    def export_now(self, kind: str = "manual", **context: Any) -> Optional[Dict[str, Any]]:
        """Snapshot, evaluate alerts, append one record. Returns the record.

        No-op (returns None) when disabled or already closed. ``context``
        lands in the record envelope (e.g. ``cell=...`` for sweep
        progress), never in the metrics snapshot.
        """
        if not self.enabled or self._closed:
            return None
        if kind not in EXPORT_KINDS:
            raise ObservabilityError(
                f"export kind must be one of {EXPORT_KINDS}, got {kind!r}"
            )
        with self._lock:
            snapshot = self._snapshot()
            wall = self._wall()
            events = self.rules.evaluate(snapshot, wall)
            self.seq += 1
            record = {
                "schema": EXPORT_SCHEMA,
                "seq": self.seq,
                "wall": wall,
                "uptime": self._clock() - self._t0,
                "kind": kind,
                "digest": snapshot_digest(snapshot),
                "meta": self.meta,
                "context": dict(context),
                "alerts": {
                    "active": self.rules.active,
                    "events": [event.to_dict() for event in events],
                    "state": self.rules.state_document(),
                },
                "metrics": snapshot,
            }
            self.own.counter("export.records", kind=kind).inc()
            if self._writer is not None:
                self._writer.write(record)
                self.own.gauge("export.rotations").set(float(self._writer.rotations))
            self.last_record = record
            return record

    # --------------------------------------------------------- asyncio mode
    async def start(self) -> "TelemetryExporter":
        """Start the periodic task (and HTTP server when configured)."""
        if not self.enabled or self._closed:
            return self
        if self.http_port is not None and self._server is None:
            self._server = await asyncio.start_server(
                self._serve_connection, self.http_host, self.http_port
            )
            self.http_port = self._server.sockets[0].getsockname()[1]
            trace_event(
                "export.http_started", host=self.http_host, port=self.http_port
            )
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._periodic())
        return self

    async def _periodic(self) -> None:
        while True:
            await asyncio.sleep(self.interval)
            self.export_now(kind="periodic")

    async def stop(self) -> None:
        """Cancel the periodic task, close the server, write the final record."""
        if not self.enabled:
            return
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.close()

    # ---------------------------------------------------------- thread mode
    def start_thread(self) -> "TelemetryExporter":
        """Run periodic exports on a daemon thread (synchronous callers)."""
        if not self.enabled or self._closed or self._thread is not None:
            return self
        self._thread_stop = threading.Event()

        def loop() -> None:
            while not self._thread_stop.wait(self.interval):
                self.export_now(kind="periodic")

        self._thread = threading.Thread(
            target=loop, name="telemetry-exporter", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Final export + writer close. Idempotent; safe on any path out
        (normal exit, ``RunBudget`` exhaustion, Ctrl-C drain, eviction)."""
        if not self.enabled or self._closed:
            return
        if self._thread is not None:
            self._thread_stop.set()
            self._thread.join(timeout=max(5.0, 2 * self.interval))
            self._thread = None
        self.export_now(kind="final")
        self._closed = True
        if self._writer is not None:
            self._writer.close()
        trace_event("export.closed", seq=self.seq)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ HTTP
    async def _serve_connection(self, reader, writer) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            while True:  # drain request headers
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            method = parts[0] if parts else ""
            target = parts[1] if len(parts) > 1 else "/"
            status, content_type, body = self._route(method, target.split("?")[0])
            payload = body.encode("utf-8")
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _route(self, method: str, path: str) -> Tuple[str, str, str]:
        if method != "GET":
            return (
                "405 Method Not Allowed",
                "application/json",
                json.dumps({"error": f"method {method} not allowed"}) + "\n",
            )
        self.own.counter("export.scrapes", path=path).inc()
        if path == "/metrics":
            return (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render_exposition(self.registry, self.own),
            )
        if path == "/healthz":
            body = {
                "status": "degraded" if self.rules.active else "ok",
                "schema": EXPORT_SCHEMA,
                "seq": self.seq,
                "uptime": self._clock() - self._t0,
                "interval": self.interval,
                "alerts_active": self.rules.active,
                "meta": self.meta,
            }
            return ("200 OK", "application/json", json.dumps(body) + "\n")
        if path == "/sessions":
            document = sessions_document(
                self._snapshot(),
                alerts=self.rules.state_document(),
                meta=self.meta,
                seq=self.seq,
                uptime=self._clock() - self._t0,
                wall=self._wall(),
            )
            return ("200 OK", "application/json", json.dumps(document) + "\n")
        return (
            "404 Not Found",
            "application/json",
            json.dumps({"error": f"no route {path}", "routes": ["/metrics", "/healthz", "/sessions"]})
            + "\n",
        )


# ----------------------------------------------------------------- exposition
def _expo_name(name: str, suffix: str = "") -> str:
    base = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    return f"repro_{base}{suffix}"


def _expo_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _expo_labels(labels: Tuple[Tuple[str, str], ...], extra: Optional[Tuple[Tuple[str, str], ...]] = None) -> str:
    pairs = list(labels) + list(extra or ())
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_expo_escape(str(v))}"' for k, v in pairs)
    return "{" + inner + "}"


def _expo_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_exposition(registry: MetricsRegistry, own: Optional[MetricsRegistry] = None) -> str:
    """Prometheus text-format (0.0.4) rendering of one or two registries.

    Renders directly from the instrument objects (exact label tuples, no
    key re-parsing): counters as ``counter``, gauges as ``gauge`` (+ a
    ``_peak`` companion), histograms with cumulative ``le`` buckets plus
    ``_sum``/``_count``, bounded series as a gauge holding the last
    sample (+ ``_samples``). ``own`` is the exporter's side registry —
    alert/export meta-metrics — appended after the monitored registry.
    """
    lines: List[str] = []
    for reg in (registry,) + ((own,) if own is not None else ()):
        if reg is None or not reg.enabled:
            continue
        reg.collect()
        seen_types: Dict[str, str] = {}

        def emit(name: str, kind: str, labels, value, suffix: str = "", extra=None) -> None:
            metric = _expo_name(name, suffix)
            if seen_types.get(metric) != kind:
                lines.append(f"# TYPE {metric} {kind}")
                seen_types[metric] = kind
            lines.append(f"{metric}{_expo_labels(labels, extra)} {_expo_number(value)}")

        for counter in sorted(reg._counters.values(), key=_sort_key):
            emit(counter.name, "counter", counter.labels, counter.value)
        for gauge in sorted(reg._gauges.values(), key=_sort_key):
            emit(gauge.name, "gauge", gauge.labels, gauge.value)
            emit(gauge.name, "gauge", gauge.labels, gauge.peak, suffix="_peak")
        for hist in sorted(reg._histograms.values(), key=_sort_key):
            counts = list(hist.counts)
            cumulative = 0
            for bound, count in zip(hist.buckets, counts):
                cumulative += count
                emit(
                    hist.name, "histogram", hist.labels, cumulative,
                    suffix="_bucket", extra=(("le", _expo_number(bound)),),
                )
            emit(
                hist.name, "histogram", hist.labels, sum(counts),
                suffix="_bucket", extra=(("le", "+Inf"),),
            )
            emit(hist.name, "histogram", hist.labels, hist.total_sum, suffix="_sum")
            emit(hist.name, "histogram", hist.labels, sum(counts), suffix="_count")
        for series in sorted(reg._series.values(), key=_sort_key):
            times, values = series.points()
            if not values:
                continue
            emit(series.name, "gauge", series.labels, values[-1])
            emit(series.name, "gauge", series.labels, len(values), suffix="_samples")
    return "\n".join(lines) + ("\n" if lines else "")


# -------------------------------------------------------------------- rollups
def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Best-effort inverse of :func:`~repro.obs.metrics.render_key`.

    Splits ``name{k=v,k2=v2}`` on commas, then each pair on the first
    ``=``. Lossy only for label *values* containing a comma, which no
    substrate label uses (cell labels are ``grid[0]``-shaped, session
    labels ``session[3]``-shaped).
    """
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: Dict[str, str] = {}
    for part in rest.rstrip("}").split(","):
        if not part:
            continue
        label, _, value = part.partition("=")
        labels[label] = value
    return name, labels


def rollup_sessions(
    snapshot: Dict[str, Any],
    group_keys: Sequence[str] = GROUP_LABEL_KEYS,
) -> List[Dict[str, Any]]:
    """Group a merged snapshot's series into per-session/cell rollup rows.

    Each row carries the running F̂ (last value of ``audit.f_hat`` or
    ``live.frequency``), its delta over the previous retained sample,
    D̂ and §5.4 violation rate when audited, the retained sample count
    and the latest sample time. Series without any group label fold into
    a single ``run`` row, so a plain (non-fleet) live run still renders.
    """
    rows: Dict[str, Dict[str, Any]] = {}

    def row_for(group: str) -> Dict[str, Any]:
        return rows.setdefault(
            group,
            {
                "label": group,
                "f_hat": None,
                "f_delta": None,
                "d_hat_seconds": None,
                "violation_rate": None,
                "samples": 0,
                "last_t": None,
            },
        )

    for key, series in snapshot.get("series", {}).items():
        name, labels = parse_key(key)
        group = next((labels[k] for k in group_keys if k in labels), None)
        values = series.get("values") or []
        times = series.get("times") or []
        if not values:
            continue
        if group is None:
            if name not in _FREQUENCY_SERIES + ("audit.d_hat_seconds", "audit.violation_rate"):
                continue
            group = "run"
        row = row_for(group)
        if name in _FREQUENCY_SERIES:
            # audit.f_hat wins over live.frequency when both are present.
            if row["f_hat"] is None or name == _FREQUENCY_SERIES[0]:
                row["f_hat"] = values[-1]
                row["f_delta"] = values[-1] - values[-2] if len(values) >= 2 else None
                row["samples"] = len(values)
        elif name == "audit.d_hat_seconds":
            row["d_hat_seconds"] = values[-1]
        elif name == "audit.violation_rate":
            row["violation_rate"] = values[-1]
        if times:
            row["last_t"] = max(row["last_t"] or 0.0, times[-1])
    return [rows[label] for label in sorted(rows)]


def sessions_document(
    snapshot: Dict[str, Any],
    alerts: Optional[List[Dict[str, Any]]] = None,
    meta: Optional[Dict[str, Any]] = None,
    seq: Optional[int] = None,
    uptime: Optional[float] = None,
    wall: Optional[float] = None,
) -> Dict[str, Any]:
    """The ``/sessions`` rollup the dashboard renders (also built offline
    from recorded export records by ``repro dash --replay``)."""
    drops: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    for key, value in snapshot.get("counters", {}).items():
        name, labels = parse_key(key)
        if "cause" in labels:
            drops[labels["cause"]] = drops.get(labels["cause"], 0) + value
        counters[name] = counters.get(name, 0) + value
    gauges: Dict[str, float] = {}
    for key, gauge in snapshot.get("gauges", {}).items():
        name, _ = parse_key(key)
        gauges[name] = gauge["value"]
    return {
        "schema": SESSIONS_SCHEMA,
        "seq": seq,
        "uptime": uptime,
        "wall": wall,
        "meta": dict(meta or {}),
        "sessions": rollup_sessions(snapshot),
        "drops": dict(sorted(drops.items())),
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "alerts": list(alerts or []),
    }


# ----------------------------------------------------------------- validation
def validate_export_record(record: Any, where: str = "record") -> List[str]:
    """Structural validation of one export record (list of problems)."""
    if not isinstance(record, dict):
        return [f"{where}: expected an object, got {type(record).__name__}"]
    problems: List[str] = []
    if record.get("schema") != EXPORT_SCHEMA:
        problems.append(
            f"{where}.schema: expected {EXPORT_SCHEMA!r}, got {record.get('schema')!r}"
        )
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        problems.append(f"{where}.seq: expected a positive integer, got {seq!r}")
    for name in ("wall", "uptime"):
        if not is_finite_number(record.get(name)):
            problems.append(f"{where}.{name}: expected a finite number")
    if record.get("kind") not in EXPORT_KINDS:
        problems.append(
            f"{where}.kind: expected one of {EXPORT_KINDS}, got {record.get('kind')!r}"
        )
    alerts = record.get("alerts")
    if not isinstance(alerts, dict) or not {"active", "events"} <= set(alerts):
        problems.append(f"{where}.alerts: expected {{active, events, ...}}")
    metrics = record.get("metrics")
    if metrics is None:
        problems.append(f"{where}: missing 'metrics' snapshot")
    else:
        problems.extend(validate_snapshot(metrics, where=f"{where}.metrics"))
        digest = record.get("digest")
        if isinstance(metrics, dict) and digest != snapshot_digest(metrics):
            problems.append(f"{where}.digest: does not match the metrics snapshot")
    return problems


def read_export_records(path) -> List[Dict[str, Any]]:
    """Read an NDJSON export stream into records (see
    :func:`~repro.obs.artifacts.read_ndjson_records`)."""
    return read_ndjson_records(path, "export snapshots")


def validate_export_file(path) -> List[str]:
    """Validate a recorded snapshot stream: per-record schema + digest,
    strictly increasing sequence numbers. Returns a problem list."""
    try:
        records = read_export_records(path)
    except ObservabilityError as exc:
        return [str(exc)]
    if not records:
        return [f"{path}: no export records"]
    problems: List[str] = []
    previous_seq = 0
    for index, record in enumerate(records):
        where = f"records[{index}]"
        problems.extend(validate_export_record(record, where))
        seq = record.get("seq")
        if isinstance(seq, int) and not isinstance(seq, bool):
            if seq <= previous_seq:
                problems.append(
                    f"{where}.seq: {seq} not greater than previous {previous_seq}"
                )
            previous_seq = seq
    return problems
