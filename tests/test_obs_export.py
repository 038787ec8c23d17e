"""Tests for the streaming telemetry exporter and alert-rule engine.

Covers the NDJSON snapshot writer (rotation, truncation tolerance),
export-record/file validation, the Prometheus-style exposition renderer,
the asyncio HTTP endpoint, the NullRegistry zero-cost gate, the alert
engine's four rule kinds with debounce and transitions, the determinism
contract (monitored-registry digests are byte-identical with and without
export), and flush-on-degradation (a budget-exhausted fleet soak still
leaves a schema-valid stream ending in a ``final`` record).
"""

import asyncio
import json
import threading

import pytest

from repro.config import BadabingConfig, MarkingConfig, ProbeConfig
from repro.errors import ObservabilityError
from repro.experiments.runner import RunBudget
from repro.live.fleet import run_fleet_loopback
from repro.obs.alerts import (
    ALERT_RULES_SCHEMA,
    AlertRule,
    AlertRules,
    default_fleet_rules,
    load_alert_rules,
    lookup_metric,
    validate_rules_document,
    write_alert_rules,
)
from repro.obs.export import (
    EXPORT_SCHEMA,
    SESSIONS_SCHEMA,
    SnapshotWriter,
    TelemetryExporter,
    parse_key,
    read_export_records,
    render_exposition,
    rollup_sessions,
    sessions_document,
    validate_export_file,
    validate_export_record,
)
from repro.obs.metrics import (
    MetricsRegistry,
    NullRegistry,
    render_key,
    snapshot_digest,
)
from repro.obs.schema import validate_snapshot
from repro.obs.profile import StageProfiler, profiling
from repro.obs.tracing import Tracer


def populated_registry():
    reg = MetricsRegistry()
    reg.counter("live.probes_received", role="reflector").inc(7)
    reg.counter("queue.drops", queue="q1", cause="overflow").inc(3)
    reg.gauge("live.sessions_active").set(2)
    hist = reg.histogram("live.timing_error_seconds", buckets=(0.001, 0.01, 0.1))
    hist.observe(0.0005)
    hist.observe(0.05)
    series = reg.series("audit.f_hat", session="session[0]")
    series.append(0.0, 0.30)
    series.append(1.0, 0.31)
    return reg


# ------------------------------------------------------------ SnapshotWriter
class TestSnapshotWriter:
    def test_appends_one_flushed_line_per_record(self, tmp_path):
        path = tmp_path / "out.ndjson"
        writer = SnapshotWriter(path)
        writer.write({"seq": 1})
        writer.write({"seq": 2})
        lines = path.read_text().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [1, 2]
        assert writer.records_written == 2
        writer.close()
        assert writer.closed

    def test_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.ndjson"
        writer = SnapshotWriter(path)
        writer.write({"seq": 1})
        writer.close()
        assert path.exists()

    def test_rotation_bounds_the_live_file(self, tmp_path):
        path = tmp_path / "out.ndjson"
        writer = SnapshotWriter(path, max_bytes=4096)
        payload = "x" * 1000
        for seq in range(1, 11):
            writer.write({"seq": seq, "pad": payload})
        writer.close()
        assert writer.rotations >= 1
        assert path.stat().st_size <= 4096
        # The previous generation holds the records rotated out.
        spill = tmp_path / "out.ndjson.1"
        assert spill.exists()
        total = len(path.read_text().splitlines()) + len(
            spill.read_text().splitlines()
        )
        assert total >= 4  # both generations together keep the recent window

    def test_close_is_idempotent_and_write_after_close_is_noop(self, tmp_path):
        path = tmp_path / "out.ndjson"
        writer = SnapshotWriter(path)
        writer.write({"seq": 1})
        writer.close()
        writer.close()
        writer.write({"seq": 2})  # silently dropped
        assert len(path.read_text().splitlines()) == 1

    def test_tiny_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError):
            SnapshotWriter(tmp_path / "out.ndjson", max_bytes=100)

    def test_unwritable_parent_is_structured_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(ObservabilityError):
            SnapshotWriter(blocker / "out.ndjson")


# ------------------------------------------------------------ export records
class TestExportRecords:
    def test_export_now_builds_a_valid_record(self, tmp_path):
        reg = populated_registry()
        path = tmp_path / "soak.ndjson"
        exporter = TelemetryExporter(reg, path=path, meta={"tool": "test"})
        record = exporter.export_now(kind="manual", cell="grid[0]")
        assert record["schema"] == EXPORT_SCHEMA
        assert record["seq"] == 1
        assert record["kind"] == "manual"
        assert record["context"] == {"cell": "grid[0]"}
        assert record["meta"] == {"tool": "test"}
        assert record["digest"] == snapshot_digest(reg.snapshot())
        assert validate_export_record(record) == []
        second = exporter.export_now()
        assert second["seq"] == 2
        exporter.close()
        records = read_export_records(path)
        assert [r["seq"] for r in records] == [1, 2, 3]
        assert records[-1]["kind"] == "final"
        assert validate_export_file(path) == []

    def test_unknown_kind_rejected(self):
        exporter = TelemetryExporter(MetricsRegistry())
        with pytest.raises(ObservabilityError):
            exporter.export_now(kind="surprise")

    def test_bad_interval_rejected(self):
        with pytest.raises(ObservabilityError):
            TelemetryExporter(MetricsRegistry(), interval=0.0)

    def test_export_bookkeeping_stays_off_the_monitored_registry(self):
        reg = populated_registry()
        exporter = TelemetryExporter(reg)
        exporter.export_now()
        monitored = reg.snapshot()
        assert not any(k.startswith("export.") for k in monitored["counters"])
        own = exporter.own.snapshot()
        assert own["counters"]["export.records{kind=manual}"] == 1

    def test_validate_export_record_flags_tampering(self):
        exporter = TelemetryExporter(populated_registry())
        record = exporter.export_now()
        assert validate_export_record(record) == []
        tampered = dict(record)
        tampered["digest"] = "0" * 64
        assert any("digest" in p for p in validate_export_record(tampered))
        assert any(
            "seq" in p for p in validate_export_record({**record, "seq": 0})
        )
        assert any(
            "kind" in p for p in validate_export_record({**record, "kind": "x"})
        )
        missing = {k: v for k, v in record.items() if k != "metrics"}
        assert any("metrics" in p for p in validate_export_record(missing))
        for name in ("wall", "uptime"):
            for bad in (float("nan"), float("inf"), float("-inf"), True):
                assert validate_export_record({**record, name: bad}) == [
                    f"record.{name}: expected a finite number"
                ]

    def test_validate_export_file_flags_seq_regression(self, tmp_path):
        exporter = TelemetryExporter(populated_registry())
        record = exporter.export_now()
        path = tmp_path / "soak.ndjson"
        with open(path, "w") as handle:
            for seq in (1, 1):
                handle.write(json.dumps({**record, "seq": seq}) + "\n")
        assert any("not greater" in p for p in validate_export_file(path))

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        reg = populated_registry()
        path = tmp_path / "soak.ndjson"
        exporter = TelemetryExporter(reg, path=path)
        exporter.export_now()
        exporter.export_now()
        exporter.close()
        with open(path, "a") as handle:
            handle.write('{"schema": "repro.obs.exp')  # killed mid-write
        records = read_export_records(path)
        assert [r["seq"] for r in records] == [1, 2, 3]
        assert validate_export_file(path) == []

    def test_truncation_mid_file_is_an_error(self, tmp_path):
        path = tmp_path / "soak.ndjson"
        path.write_text('{"broken\n{"seq": 1}\n')
        with pytest.raises(ObservabilityError):
            read_export_records(path)

    def test_empty_file_fails_validation(self, tmp_path):
        path = tmp_path / "soak.ndjson"
        path.write_text("")
        assert any("no export records" in p for p in validate_export_file(path))


# ----------------------------------------------------------- NullRegistry gate
class TestNullRegistryGate:
    def test_everything_is_a_noop(self, tmp_path):
        path = tmp_path / "soak.ndjson"
        exporter = TelemetryExporter(
            NullRegistry(), path=path, http_port=0, rules=default_fleet_rules()
        )
        assert not exporter.enabled
        assert exporter.export_now() is None
        assert exporter.start_thread() is exporter
        assert exporter._thread is None
        exporter.close()
        assert not path.exists()
        assert exporter.seq == 0
        assert isinstance(exporter.own, NullRegistry)

    def test_async_start_stop_are_noops(self):
        async def scenario():
            exporter = TelemetryExporter(NullRegistry(), http_port=0)
            await exporter.start()
            assert exporter._server is None and exporter._task is None
            await exporter.stop()

        asyncio.run(scenario())


# ----------------------------------------------------------------- exposition
class TestExposition:
    def test_renders_all_instrument_kinds(self):
        reg = populated_registry()
        text = render_exposition(reg)
        assert text.endswith("\n")
        assert "# TYPE repro_live_probes_received counter" in text
        assert 'repro_live_probes_received{role="reflector"} 7' in text
        assert "# TYPE repro_live_sessions_active gauge" in text
        assert "repro_live_sessions_active 2" in text
        assert "repro_live_sessions_active_peak 2" in text
        # Histogram buckets are cumulative and close with +Inf/_sum/_count.
        assert 'repro_live_timing_error_seconds_bucket{le="0.001"} 1' in text
        assert 'repro_live_timing_error_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_live_timing_error_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_live_timing_error_seconds_count 2" in text
        # Series render as last-value gauges plus a sample count.
        assert 'repro_audit_f_hat{session="session[0]"} 0.31' in text
        assert 'repro_audit_f_hat_samples{session="session[0]"} 2' in text

    def test_type_lines_not_repeated_per_label_set(self):
        reg = MetricsRegistry()
        reg.counter("drops", queue="a").inc()
        reg.counter("drops", queue="b").inc()
        text = render_exposition(reg)
        assert text.count("# TYPE repro_drops counter") == 1

    def test_own_registry_appended(self):
        reg = populated_registry()
        exporter = TelemetryExporter(reg)
        exporter.export_now()
        text = render_exposition(reg, exporter.own)
        assert 'repro_export_records{kind="manual"} 1' in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("odd", note='say "hi"\\now').inc()
        text = render_exposition(reg)
        assert 'note="say \\"hi\\"\\\\now"' in text


# -------------------------------------------------------------------- rollups
class TestRollups:
    def test_parse_key_inverts_render_key(self):
        key = render_key(
            "audit.f_hat", (("role", "sender"), ("session", "session[3]"))
        )
        name, labels = parse_key(key)
        assert name == "audit.f_hat"
        assert labels == {"session": "session[3]", "role": "sender"}
        assert parse_key("bare") == ("bare", {})

    def test_rollup_groups_by_session_label(self):
        reg = MetricsRegistry()
        for index, f in ((0, 0.30), (1, 0.35)):
            series = reg.series("audit.f_hat", session=f"session[{index}]")
            series.append(1.0, f)
            series.append(2.0, f)  # steady: delta 0
            d = reg.series("audit.d_hat_seconds", session=f"session[{index}]")
            d.append(2.0, 0.05)
        rows = rollup_sessions(reg.snapshot())
        assert [row["label"] for row in rows] == ["session[0]", "session[1]"]
        assert rows[0]["f_hat"] == 0.30
        assert rows[0]["f_delta"] == 0.0
        assert rows[0]["d_hat_seconds"] == 0.05
        assert rows[0]["samples"] == 2
        assert rows[0]["last_t"] == 2.0

    def test_ungrouped_frequency_folds_into_run_row(self):
        reg = MetricsRegistry()
        reg.series("live.frequency", role="sender").append(1.0, 0.25)
        rows = rollup_sessions(reg.snapshot())
        assert len(rows) == 1
        assert rows[0]["label"] == "run"
        assert rows[0]["f_hat"] == 0.25

    def test_sessions_document_shape(self):
        reg = populated_registry()
        document = sessions_document(reg.snapshot(), seq=4, uptime=2.0, wall=9.0)
        assert document["schema"] == SESSIONS_SCHEMA
        assert document["drops"] == {"overflow": 3}
        assert document["counters"]["live.probes_received"] == 7
        assert document["gauges"]["live.sessions_active"] == 2
        assert document["sessions"][0]["label"] == "session[0]"


# ----------------------------------------------------------------- HTTP serve
async def _http(port, target, method="GET"):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"{method} {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    data = await asyncio.wait_for(reader.read(), timeout=5.0)
    writer.close()
    await writer.wait_closed()
    head, _, body = data.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode(), body.decode()


class TestHttpEndpoint:
    def test_metrics_healthz_sessions_routes(self):
        async def scenario():
            reg = populated_registry()
            exporter = TelemetryExporter(
                reg, http_port=0, meta={"tool": "unit"}, interval=30.0
            )
            await exporter.start()
            try:
                assert exporter.http_port != 0  # ephemeral port resolved
                status, body = await _http(exporter.http_port, "/metrics")
                assert status.startswith("HTTP/1.1 200")
                assert "repro_live_probes_received" in body
                assert "repro_export_scrapes" in body  # own registry appended
                status, body = await _http(exporter.http_port, "/healthz")
                health = json.loads(body)
                assert health["status"] == "ok"
                assert health["meta"] == {"tool": "unit"}
                status, body = await _http(exporter.http_port, "/sessions")
                document = json.loads(body)
                assert document["schema"] == SESSIONS_SCHEMA
                assert document["sessions"][0]["label"] == "session[0]"
                status, body = await _http(exporter.http_port, "/nope")
                assert status.startswith("HTTP/1.1 404")
                assert "/metrics" in body
                status, _ = await _http(exporter.http_port, "/metrics", "POST")
                assert status.startswith("HTTP/1.1 405")
            finally:
                await exporter.stop()
            assert exporter.closed

        asyncio.run(scenario())

    def test_periodic_task_emits_records(self, tmp_path):
        async def scenario():
            reg = populated_registry()
            path = tmp_path / "soak.ndjson"
            exporter = TelemetryExporter(reg, interval=0.02, path=path)
            await exporter.start()
            await asyncio.sleep(0.15)
            await exporter.stop()
            return path

        path = asyncio.run(scenario())
        records = read_export_records(path)
        kinds = [r["kind"] for r in records]
        assert kinds.count("periodic") >= 2
        assert kinds[-1] == "final"
        assert validate_export_file(path) == []


# ------------------------------------------------------------------- alerting
def snap(counters=None, gauges=None, series=None, histograms=None):
    return {
        "counters": counters or {},
        "gauges": {k: {"value": v, "peak": v} for k, v in (gauges or {}).items()},
        "series": series or {},
        "histograms": histograms or {},
    }


class TestLookupMetric:
    def test_exact_labeled_key(self):
        s = snap(counters={"drops{cause=overflow}": 3})
        assert lookup_metric(s, "drops{cause=overflow}") == 3

    def test_bare_name_sums_variants(self):
        s = snap(counters={"drops{cause=a}": 3, "drops{cause=b}": 4, "other": 9})
        assert lookup_metric(s, "drops") == 7

    def test_gauge_series_histogram_resolution(self):
        s = snap(
            gauges={"depth": 5},
            series={"f": {"times": [1.0], "values": [0.25]}},
            histograms={"h": {"count": 11, "sum": 1.0, "buckets": [], "counts": []}},
        )
        assert lookup_metric(s, "depth") == 5
        assert lookup_metric(s, "f") == 0.25
        assert lookup_metric(s, "h") == 11

    def test_missing_metric_is_none(self):
        assert lookup_metric(snap(), "ghost") is None


class TestAlertRules:
    def test_value_rule_fires_and_resolves_with_transitions(self):
        own = MetricsRegistry()
        tracer = Tracer(shard="test")
        engine = AlertRules(
            [AlertRule(name="deep", metric="depth", op=">", threshold=10.0)],
            registry=own,
        )
        with profiling(StageProfiler(tracer=tracer)):
            assert engine.evaluate(snap(gauges={"depth": 5}), wall=1.0) == []
            events = engine.evaluate(snap(gauges={"depth": 20}), wall=2.0)
            assert [(e.rule, e.state) for e in events] == [("deep", "firing")]
            assert engine.active == ["deep"]
            assert own.gauge("live.alerts_active").value == 1.0
            events = engine.evaluate(snap(gauges={"depth": 3}), wall=3.0)
            assert [(e.rule, e.state) for e in events] == [("deep", "resolved")]
        assert engine.active == []
        assert own.gauge("live.alerts_active").value == 0.0
        own_snapshot = own.snapshot()
        assert own_snapshot["counters"]["alerts.events{rule=deep,state=firing}"] == 1
        assert own_snapshot["counters"]["alerts.events{rule=deep,state=resolved}"] == 1
        names = [span["name"] for span in tracer.spans]
        assert "alert.fired" in names and "alert.resolved" in names

    def test_for_intervals_debounces(self):
        engine = AlertRules(
            [AlertRule(name="d", metric="g", threshold=1.0, for_intervals=3)]
        )
        breach = snap(gauges={"g": 5})
        assert engine.evaluate(breach, 1.0) == []
        assert engine.evaluate(breach, 2.0) == []
        assert [e.state for e in engine.evaluate(breach, 3.0)] == ["firing"]
        # A single recovery resets the debounce counter.
        engine.evaluate(snap(gauges={"g": 0}), 4.0)
        assert engine.evaluate(breach, 5.0) == []

    def test_rate_rule_uses_delta_per_second(self):
        engine = AlertRules(
            [AlertRule(name="errs", metric="wire", kind="rate", threshold=0.0)]
        )
        assert engine.evaluate(snap(counters={"wire": 0}), 0.0) == []  # no baseline
        assert engine.evaluate(snap(counters={"wire": 0}), 1.0) == []  # rate 0
        events = engine.evaluate(snap(counters={"wire": 5}), 2.0)
        assert [e.state for e in events] == ["firing"]
        assert events[0].value == 5.0

    def test_ratio_rule_division_edges(self):
        engine = AlertRules(
            [
                AlertRule(
                    name="rej",
                    metric="rejected",
                    kind="ratio",
                    denominator="admitted",
                    threshold=0.5,
                )
            ]
        )
        # 0/0 counts as 0: no breach.
        assert engine.evaluate(snap(counters={"rejected": 0, "admitted": 0}), 1.0) == []
        # x/0 is infinite: fires.
        events = engine.evaluate(snap(counters={"rejected": 3, "admitted": 0}), 2.0)
        assert [e.state for e in events] == ["firing"]
        # Below the ratio: resolves.
        events = engine.evaluate(
            snap(counters={"rejected": 3, "admitted": 10}), 3.0
        )
        assert [e.state for e in events] == ["resolved"]

    def test_stale_rule_fires_when_metric_stops_advancing(self):
        engine = AlertRules(
            [AlertRule(name="stall", metric="f", kind="stale", threshold=5.0)]
        )
        moving = lambda v: snap(series={"f": {"times": [1.0], "values": [v]}})
        assert engine.evaluate(moving(0.1), 0.0) == []
        assert engine.evaluate(moving(0.2), 4.0) == []
        assert engine.evaluate(moving(0.2), 8.0) == []  # stale 4s < 5s
        events = engine.evaluate(moving(0.2), 10.0)  # stale 6s
        assert [e.state for e in events] == ["firing"]
        events = engine.evaluate(moving(0.3), 11.0)  # advanced again
        assert [e.state for e in events] == ["resolved"]

    def test_missing_metric_never_breaches(self):
        engine = AlertRules([AlertRule(name="g", metric="ghost", threshold=-1.0)])
        assert engine.evaluate(snap(), 1.0) == []
        assert engine.active == []

    def test_state_document_carries_metric_for_row_matching(self):
        engine = AlertRules(
            [AlertRule(name="a", metric="f{session=session[1]}", threshold=0.0)]
        )
        engine.evaluate(
            snap(series={"f{session=session[1]}": {"times": [1.0], "values": [1.0]}}),
            2.0,
        )
        (state,) = engine.state_document()
        assert state["firing"] is True
        assert state["metric"] == "f{session=session[1]}"
        assert state["since"] == 2.0

    def test_duplicate_names_rejected(self):
        rule = AlertRule(name="x", metric="m")
        with pytest.raises(ObservabilityError):
            AlertRules([rule, rule])

    def test_rule_validation(self):
        with pytest.raises(ObservabilityError):
            AlertRule(name="", metric="m")
        with pytest.raises(ObservabilityError):
            AlertRule(name="x", metric="m", kind="median")
        with pytest.raises(ObservabilityError):
            AlertRule(name="x", metric="m", op="~")
        with pytest.raises(ObservabilityError):
            AlertRule(name="x", metric="m", kind="ratio")  # no denominator
        with pytest.raises(ObservabilityError):
            AlertRule(name="x", metric="m", for_intervals=0)
        with pytest.raises(ObservabilityError):
            AlertRule.from_dict({"name": "x", "metric": "m", "colour": "red"})

    def test_rules_file_round_trip(self, tmp_path):
        path = tmp_path / "rules" / "fleet.json"
        rules = default_fleet_rules(convergence_deadline=9.0)
        write_alert_rules(path, rules)
        loaded = load_alert_rules(path)
        assert loaded == rules
        document = json.loads(path.read_text())
        assert document["schema"] == ALERT_RULES_SCHEMA
        assert validate_rules_document(document) == []

    def test_load_rejects_bad_documents(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope", "rules": []}))
        with pytest.raises(ObservabilityError):
            load_alert_rules(path)
        path.write_text("{not json")
        with pytest.raises(ObservabilityError):
            load_alert_rules(path)


# ------------------------------------------------------- determinism contract
class TestDeterminismContract:
    def test_digest_identical_with_and_without_exporter(self):
        def drive(reg, exporter=None):
            for step in range(50):
                reg.counter("live.probes_received", role="sender").inc()
                reg.series("audit.f_hat").append(float(step), 0.3)
                if exporter is not None and step % 10 == 0:
                    exporter.export_now(kind="progress", step=step)
            return snapshot_digest(reg.snapshot())

        bare = MetricsRegistry()
        watched = MetricsRegistry()
        exporter = TelemetryExporter(
            watched, rules=default_fleet_rules(), meta={"tool": "t"}
        )
        digest_bare = drive(bare)
        digest_watched = drive(watched, exporter)
        exporter.close()
        assert digest_bare == digest_watched
        assert snapshot_digest(watched.snapshot()) == digest_bare

    def test_quiescent_registry_digests_are_stable(self):
        reg = populated_registry()
        digests = {snapshot_digest(reg.snapshot()) for _ in range(5)}
        assert len(digests) == 1


# ------------------------------------------------- concurrency + degradation
class TestExporterConcurrency:
    def test_thread_mode_snapshots_stay_consistent_under_load(self, tmp_path):
        """Exporter thread snapshots while the run mutates and merges."""
        reg = MetricsRegistry()
        path = tmp_path / "soak.ndjson"
        exporter = TelemetryExporter(reg, interval=0.01, path=path)
        exporter.start_thread()
        for round_number in range(40):
            shard = MetricsRegistry()
            shard.counter("live.probes_received", role="sender").inc(3)
            shard.gauge("live.sessions_active").set(round_number)
            hist = shard.histogram("live.timing_error_seconds")
            hist.observe(0.001 * round_number)
            series = shard.series("audit.f_hat", session=f"session[{round_number % 4}]")
            series.append(float(round_number), 0.3)
            reg.merge(shard, series_labels={"session": f"session[{round_number % 4}]"})
        exporter.close()
        assert validate_export_file(path) == []
        records = read_export_records(path)
        assert records[-1]["kind"] == "final"
        # Every mid-run snapshot must be self-consistent, not just the final.
        for record in records:
            assert validate_snapshot(record["metrics"]) == []

    def test_hot_path_writes_race_snapshots_cleanly(self):
        reg = MetricsRegistry()
        stop = threading.Event()

        def hammer():
            step = 0
            while not stop.is_set():
                reg.counter("live.probes_received", role="sender").inc()
                reg.histogram("live.timing_error_seconds").observe(0.001)
                reg.series("audit.f_hat").append(float(step), 0.3)
                reg.gauge("live.sessions_active").set(step)
                step += 1

        worker = threading.Thread(target=hammer, daemon=True)
        worker.start()
        try:
            exporter = TelemetryExporter(reg)
            for _ in range(50):
                record = exporter.export_now()
                assert validate_export_record(record) == []
        finally:
            stop.set()
            worker.join(timeout=5.0)

    def test_budget_exhausted_fleet_soak_still_flushes_final_record(self, tmp_path):
        """Flush-on-degradation: a soak whose sessions all blow their
        event budget must still leave a schema-valid stream ending in a
        ``final`` record (no truncation, no missing close)."""
        config = BadabingConfig(
            probe=ProbeConfig(slot=0.005, probe_size=64, packets_per_probe=3),
            marking=MarkingConfig(tau=0.0),
            p=0.4,
            n_slots=60,
        )
        registry = MetricsRegistry()
        path = tmp_path / "degraded.ndjson"
        exporter = TelemetryExporter(
            registry, interval=0.05, path=path, rules=default_fleet_rules()
        )

        async def scenario():
            return await run_fleet_loopback(
                config,
                n_sessions=2,
                base_seed=5,
                registry=registry,
                budget=RunBudget(max_events=5, max_attempts=1),
                exporter=exporter,
            )

        soak = asyncio.run(scenario())
        exporter.close()  # the CLI's finally; idempotent after stop()
        assert any(
            outcome.budget_exhausted or not outcome.ok for outcome in soak.outcomes
        )
        assert exporter.closed
        assert validate_export_file(path) == []
        records = read_export_records(path)
        assert records[-1]["kind"] == "final"
