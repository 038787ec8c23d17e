"""Live loopback integration: real UDP over 127.0.0.1, deterministic loss."""

import asyncio
import socket
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.config import BadabingConfig, MarkingConfig, ProbeConfig
from repro.core.clock import MonotonicClock
from repro.experiments.runner import RunBudget
from repro.io import load_measurement, reestimate
from repro.live import (
    LiveSender,
    ReflectorProtocol,
    SenderProtocol,
    bernoulli_drop,
    live_loopback,
    make_session_id,
    open_sender,
    schedule_from_spec,
    spec_for,
    start_reflector,
    wire,
)
from repro.net.faults import FaultProfile
from repro.net.simulator import _stable_seed
from repro.obs import MetricsRegistry


def _config(n_slots=200, p=0.5, tau=0.0, slot=0.005, packets=3):
    """Short loss-only-marking config: loopback jitter cannot mark probes."""
    return BadabingConfig(
        probe=ProbeConfig(slot=slot, probe_size=64, packets_per_probe=packets),
        marking=MarkingConfig(tau=tau),
        p=p,
        n_slots=n_slots,
        improved=False,
    )


def _expected_lossy_slots(config, seed, probability):
    """Replay the impairment shim's drop decisions slot by slot."""
    spec = spec_for(config, seed)
    schedule = schedule_from_spec(spec)
    impair_seed = _stable_seed(seed, "live-impair")
    lossy = set()
    for slot in schedule.probe_slots:
        for index in range(spec.packets_per_probe):
            if bernoulli_drop(impair_seed, slot, index, probability):
                lossy.add(slot)
    return lossy


def test_loopback_clean_run_estimates_zero_loss():
    run = live_loopback(config=_config(), seed=3)
    assert run.stats.completed
    assert run.stats.packets_sent > 0
    assert run.stats.echoes_received == run.stats.packets_sent
    assert run.result.frequency == 0.0
    assert run.reflector is not None
    assert run.reflector.wire_errors == 0
    assert run.receiver_result is not None
    assert run.receiver_result.frequency == 0.0
    manifest = run.manifest
    assert manifest is not None
    assert manifest.tool == "badabing-live"
    assert manifest.events_processed == run.stats.packets_sent


def test_loopback_impaired_run_recovers_loss_frequency():
    q = 0.05
    config = _config(n_slots=600)
    faults = FaultProfile(drop_probability=q)
    run = live_loopback(config=config, seed=7, faults=faults)
    expected = _expected_lossy_slots(config, 7, q)
    marked = {record.slot for record in run.result.probes if record.lost > 0}
    # The shim is a pure function of (seed, slot, index): the sender must
    # see exactly the replayed drop pattern, not a statistical neighbour.
    assert marked == expected
    assert run.reflector.impaired_drops > 0
    # F-hat is the experiment-bit estimator; compare against the realized
    # lossy-slot fraction with slack for probe-vs-slot granularity.
    realized = len(expected) / len(run.schedule.probe_slots)
    assert run.result.frequency == pytest.approx(realized, abs=0.05)
    # Receiver-side one-way estimate must agree with the sender's (same
    # records modulo clock rebase; identical marking config).
    assert run.receiver_result is not None
    assert run.receiver_result.frequency == pytest.approx(
        run.result.frequency, abs=1e-12
    )


def test_loopback_packet_budget_degrades_gracefully():
    run = live_loopback(
        config=_config(n_slots=400),
        seed=5,
        budget=RunBudget(max_events=30),
    )
    assert run.stats.stopped == "packet-budget"
    assert not run.stats.completed
    assert run.stats.packets_sent <= 30
    assert run.result.coverage is not None
    assert not run.result.coverage.complete


class _RecordingTransport:
    """Datagram transport stand-in that keeps what the sender sends."""

    def __init__(self):
        self.sent = []

    def sendto(self, data, addr=None):
        self.sent.append(data)


def _sender_after_one_train(seed=5):
    """A sender (built on the running loop) that has sent one train."""
    spec = spec_for(_config(), seed)
    protocol = SenderProtocol(make_session_id(seed), MonotonicClock())
    transport = _RecordingTransport()
    sender = LiveSender(transport, protocol, spec, schedule_from_spec(spec))
    sender._emit_train(0, spec.packets_per_probe)
    return sender, protocol, transport


async def _passes_until_done(task, limit=10):
    """Loop passes until ``task`` is done; None if still pending after ``limit``."""
    for passes in range(limit):
        if task.done():
            return passes
        await asyncio.sleep(0)
    return None


def test_drain_returns_on_the_last_echo():
    """The drain ends on the echo that completes the count, within a few
    loop passes, not at the next tick of a poll interval."""

    async def scenario():
        sender, protocol, transport = _sender_after_one_train()
        drain = asyncio.ensure_future(sender._drain(10.0))
        echoes = [
            wire.encode_echo(wire.decode_header(datagram), 1)
            for datagram in transport.sent
        ]
        for echo in echoes[:-1]:
            protocol.datagram_received(echo, None)
        outstanding = await _passes_until_done(drain)
        protocol.datagram_received(echoes[-1], None)
        return outstanding, await _passes_until_done(drain)

    outstanding, after_last = asyncio.run(scenario())
    assert outstanding is None
    assert after_last is not None


def test_drain_ends_on_a_restart_nak():
    async def scenario():
        sender, protocol, _transport = _sender_after_one_train()
        protocol.hello_acked.set()
        drain = asyncio.ensure_future(sender._drain(10.0))
        await asyncio.sleep(0)
        protocol.datagram_received(
            wire.encode_control(wire.NAK, protocol.session_id, 0), None
        )
        return await _passes_until_done(drain)

    assert asyncio.run(scenario()) is not None


def test_drain_gives_up_at_its_timeout():
    async def scenario():
        sender, _protocol, _transport = _sender_after_one_train()
        started = time.perf_counter()
        await sender._drain(0.05)
        return time.perf_counter() - started

    assert 0.045 <= asyncio.run(scenario()) < 1.0


def test_live_endpoints_read_datagrams_below_the_mmap_threshold():
    """Each read allocates ``max_size`` bytes; asyncio's 256 KiB default is
    mapped and unmapped per datagram where glibc's threshold is 128 KiB."""

    async def scenario():
        reflector_transport, _reflector = await start_reflector("127.0.0.1", 0)
        port = reflector_transport.get_extra_info("sockname")[1]
        sender_transport, _sender = await open_sender("127.0.0.1", port, 1)
        sizes = (reflector_transport.max_size, sender_transport.max_size)
        sender_transport.close()
        reflector_transport.close()
        return sizes

    assert asyncio.run(scenario()) == (wire.MAX_DATAGRAM, wire.MAX_DATAGRAM)
    assert 65_507 <= wire.MAX_DATAGRAM < 128 * 1024


def test_reflector_counts_malformed_datagrams():
    registry = MetricsRegistry()
    protocol = ReflectorProtocol(registry=registry)
    for garbage in (b"", b"nonsense", b"\xba\xda\x01", b"\x00" * 64):
        protocol.datagram_received(garbage, ("127.0.0.1", 9999))
    assert protocol.wire_errors == 4
    snapshot = registry.snapshot()
    assert snapshot["counters"]["live.wire_errors{role=reflector}"] == 4


def test_reflector_drops_probes_from_unknown_sessions():
    protocol = ReflectorProtocol()
    probe = wire.encode_probe(
        session=12345, sequence=0, slot=0, index=0, packets_per_probe=1, send_ns=0
    )
    protocol.datagram_received(probe, ("127.0.0.1", 9999))
    assert protocol.unknown_session == 1
    assert protocol.wire_errors == 0


def test_loopback_trace_round_trip_and_truncation_recovery(tmp_path):
    trace_path = tmp_path / "live.jsonl"
    config = _config(n_slots=400)
    run = live_loopback(
        config=config,
        seed=7,
        faults=FaultProfile(drop_probability=0.05),
        trace_path=str(trace_path),
    )
    measurement = load_measurement(str(trace_path))
    assert measurement.metadata["tool"] == "badabing-live"
    assert measurement.metadata["clock_domain"] == "monotonic"
    assert measurement.n_slots == config.n_slots
    assert len(measurement.probes) == len(run.result.probes)
    # Offline re-analysis walks the identical estimator path.
    offline = reestimate(measurement, marking=config.marking)
    assert offline.frequency == pytest.approx(run.result.frequency, abs=1e-12)

    # Truncate mid-line (a crashed writer) and recover with diagnostics.
    text = trace_path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    assert len(lines) > 3
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text("".join(lines[:-1]) + lines[-1][:10], encoding="utf-8")
    recovered = load_measurement(str(truncated), recover=True)
    assert recovered.diagnostics
    assert len(recovered.probes) == len(measurement.probes) - 1


def test_cli_live_loopback(capsys):
    status = main(
        [
            "live",
            "loopback",
            "--seed",
            "1",
            "--duration",
            "2",
            "--p",
            "0.5",
            "--tau",
            "0.0",
            "--size",
            "64",
        ]
    )
    captured = capsys.readouterr()
    assert status == 0
    assert "estimated loss frequency" in captured.out
    assert "receiver cross-check" in captured.out


def _free_udp_port():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_send_and_reflect_interoperate_across_processes(tmp_path):
    port = _free_udp_port()
    reflector = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "live",
            "reflect",
            "--host",
            "127.0.0.1",
            "--port",
            str(port),
            "--serve-sessions",
            "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        # Let the reflector bind before probing it; the HELLO retry loop
        # tolerates a slow start but not an unbound port's ICMP error.
        time.sleep(1.0)
        status = main(
            [
                "live",
                "send",
                "127.0.0.1",
                str(port),
                "--seed",
                "2",
                "--duration",
                "2",
                "--p",
                "0.5",
                "--tau",
                "0.0",
                "--size",
                "64",
            ]
        )
        assert status == 0
        stdout, stderr = reflector.communicate(timeout=30)
    finally:
        if reflector.poll() is None:
            reflector.kill()
            reflector.communicate()
    assert reflector.returncode == 0, stderr
    assert "served 1 session(s)" in stdout
