"""The streaming monitor against its whole-prefix reference, and the log join.

``WholePrefixMonitor`` below is the monitor as it was before reports were
windowed: on every report it joins the whole log, rebases every OWD and
re-marks the whole prefix. Recorded send and receive logs are replayed
through it and through :class:`repro.live.runtime.StreamingMonitor` at the
same report times; both must feed the same outcomes, publish the same
``live.frequency`` points and write the same trace bytes.
"""

import random
from bisect import bisect_right
from itertools import islice
from math import floor
from types import SimpleNamespace

import pytest

from repro.config import BadabingConfig, MarkingConfig, ProbeConfig
from repro.core.clock import MonotonicClock, rebase_probe_owds
from repro.core.estimators import frequency_from_counter
from repro.core.marking import CongestionMarker
from repro.core.records import ExperimentOutcome, ProbeRecord
from repro.core.result import assemble_result
from repro.core.validation import SequentialValidator
from repro.io.traces import TraceWriter
from repro.live import runtime, session
from repro.live.runtime import FINALIZE_MARGIN, StreamingMonitor, live_loopback
from repro.live.sender import LiveSender, SenderProtocol
from repro.live.session import (
    config_from_spec,
    make_session_id,
    probe_records_from_logs,
    schedule_from_spec,
    spec_for,
)
from repro.obs import MetricsRegistry

SLOT_NS = 5_000_000
EPOCH_NS = 7_000_000_000
#: Receiver clock minus sender clock: raw OWDs carry it until rebased.
OFFSET_NS = -123_456_789
GAP_NS = 30_000
REPORT_EVERY = 32


class WholePrefixMonitor:
    """Reference: join, rebase and re-mark the whole prefix on every report."""

    def __init__(self, schedule, config, registry, writer, margin=FINALIZE_MARGIN):
        self.schedule = schedule
        self.config = config
        self.writer = writer
        self.margin = margin
        self.marker = CongestionMarker(config.marking)
        self.validator = SequentialValidator()
        self._experiments = sorted(
            schedule.experiments, key=lambda experiment: experiment.start_slot
        )
        self._next_experiment = 0
        self.skipped_experiments = 0
        self._written_slots = set()
        self._series = registry.series("live.frequency", role="sender")

    def observe(self, records, elapsed):
        horizon = elapsed - self.config.marking.tau - self.margin
        if horizon <= 0:
            return
        self._advance(records, floor(horizon / self.config.probe.slot))

    def finish(self, records):
        self._advance(records, self.schedule.n_slots)

    def _advance(self, records, finalize_slot):
        states = self.marker.mark(rebase_probe_owds(records)).slot_states
        while self._next_experiment < len(self._experiments):
            experiment = self._experiments[self._next_experiment]
            if experiment.start_slot + experiment.length > finalize_slot:
                break
            bits = [states.get(slot) for slot in experiment.slots]
            if any(bit is None for bit in bits):
                self.skipped_experiments += 1
            else:
                self.validator.add(
                    ExperimentOutcome(
                        experiment.start_slot, tuple(int(bit) for bit in bits)
                    )
                )
            self._next_experiment += 1
        counter = self.validator.pattern_counter
        if counter.get("M"):
            last = records[-1].send_time if records else 0.0
            self._series.append(last, frequency_from_counter(counter))
        for record in records:
            if record.slot < finalize_slot and record.slot not in self._written_slots:
                self._written_slots.add(record.slot)
                self.writer.write_probe(record)


# --------------------------------------------------------------- recordings
def _synthetic_logs(schedule, packets, owd_us, lost, stop_slot=None, skew=0.0):
    """Send and receive logs of a session over a synthetic path.

    ``owd_us(slot, index)`` is a packet's true one-way delay and
    ``lost(slot, index)`` whether it is dropped. The receiver's clock runs
    ``1 + skew`` times as fast as the sender's, so with a negative skew the
    raw OWDs drift down. Returns the send log, the receive log in arrival
    order (an echo takes the one-way delay back), the epoch, and one
    ``(elapsed, packets sent, echoes in)`` per report: after every 32nd
    train, then once after the drain.
    """
    send_ns, arrivals, train_ends = {}, [], []
    for slot in schedule.probe_slots:
        if stop_slot is not None and slot >= stop_slot:
            break
        launch = EPOCH_NS + slot * SLOT_NS + 150_000 + (slot * 7919 % 200) * 1000
        for index in range(packets):
            stamp = launch + index * GAP_NS
            send_ns[(slot, index)] = stamp
            if not lost(slot, index):
                owd = owd_us(slot, index) * 1000
                arrived = stamp + owd
                received = arrived + OFFSET_NS + round(skew * (arrived - EPOCH_NS))
                arrivals.append((stamp + 2 * owd, (slot, index), received))
        train_ends.append(launch + (packets - 1) * GAP_NS)
    arrivals.sort()
    recv_ns = {key: stamp for _arrival, key, stamp in arrivals}
    sent_at = list(send_ns.values())
    arrived_at = [arrival for arrival, _key, _stamp in arrivals]
    times = [end + 10_000 for end in train_ends[REPORT_EVERY - 1 :: REPORT_EVERY]]
    times.append(max(train_ends[-1], arrived_at[-1]) + 1_000_000)
    reports = [
        (
            (time - EPOCH_NS) / 1e9,
            bisect_right(sent_at, time),
            bisect_right(arrived_at, time),
        )
        for time in times
    ]
    return send_ns, recv_ns, EPOCH_NS, reports


def _episodic_path(
    seed,
    episodes,
    base_us=lambda slot: 300,
    quiet_until=0,
    noise=0.004,
    shoulders=(),
):
    """Queueing episodes: the delay ramps by up to 30 ms and the second half
    of each episode drops half the packets; elsewhere ``noise`` drops stray
    packets at low delay (end-host losses, which the uncorrelated-loss
    filter is there to catch). Each ``(start, end, queue_us)`` shoulder
    holds the delay at that queue and drops a tenth of the packets there,
    stray losses at a moderate delay. Nothing is lost before
    ``quiet_until``."""
    rng = random.Random(seed)
    draws = {}

    def draw(slot, index):
        if (slot, index) not in draws:
            draws[(slot, index)] = (rng.random(), rng.random())
        return draws[(slot, index)]

    def episode(slot):
        for start, end in episodes:
            if start <= slot < end:
                return (slot - start) / (end - start)
        return None

    def shoulder(slot):
        for start, end, queue_us in shoulders:
            if start <= slot < end:
                return queue_us
        return None

    def owd_us(slot, index):
        jitter, _loss = draw(slot, index)
        phase = episode(slot)
        queue = 0 if phase is None else min(30_000, int(60_000 * phase))
        if shoulder(slot) is not None:
            queue = shoulder(slot)
        return base_us(slot) + queue + int(80 * jitter)

    def lost(slot, index):
        _jitter, loss = draw(slot, index)
        if slot < quiet_until:
            return False
        phase = episode(slot)
        if phase is not None:
            return phase >= 0.5 and loss < 0.5
        if shoulder(slot) is not None:
            return loss < 0.1
        return loss < noise

    return owd_us, lost


def _session(n_slots, p, seed, marking):
    config = BadabingConfig(
        probe=ProbeConfig(probe_size=64), marking=marking, p=p, n_slots=n_slots
    )
    spec = spec_for(config, seed)
    return spec, schedule_from_spec(spec), config_from_spec(spec, marking)


def _synthetic_case(name):
    """(schedule, config, logs) of one named synthetic replay case."""
    n_slots = 2400
    episodes = [(300, 420), (900, 1000), (1500, 1700), (2000, 2100)]
    marking = MarkingConfig()
    base_us = lambda slot: 300  # noqa: E731
    quiet_until = 0
    stop_slot = None
    skew = 0.0
    shoulders = ()
    if name.startswith("drift-"):
        # The receiver's clock runs 50 or 200 ppm slow: the minimum OWD
        # moves on most reports, for the whole session.
        skew = -50e-6 if name == "drift-50ppm" else -200e-6
        if name.endswith("-filtered"):
            marking = MarkingConfig(filter_uncorrelated_losses=True)
    elif name == "late-minimum":
        # The delay floor drops by a third after 80% of the session: the
        # rebase shift moves long after the first experiments were fed.
        base_us = lambda slot: 1500 if slot < 1920 else 1000  # noqa: E731
    elif name == "late-minimum-filtered":
        base_us = lambda slot: 1500 if slot < 1920 else 1000  # noqa: E731
        marking = MarkingConfig(filter_uncorrelated_losses=True)
    elif name == "route-change-filtered":
        # The filter (at alpha 0.5) judges the stray losses of the first
        # shoulder noise while the floor is 11 ms: their rebased delay sits
        # 2.5 ms under the threshold. A route change drops the floor to 1 ms
        # at slot 1920; rebased by the new minimum they sit 2.5 ms over it
        # and count, their OWD_max estimates pull the threshold down, and
        # the second shoulder is congested only with them: its 16 ms sits
        # between the two thresholds. The kept state must be folded again.
        episodes = [(300, 420), (900, 1000), (1500, 1600)]
        base_us = lambda slot: 11_000 if slot < 1920 else 1000  # noqa: E731
        shoulders = [(1650, 1800, 12_500), (2150, 2350, 16_000)]
        marking = MarkingConfig(alpha=0.5, filter_uncorrelated_losses=True)
    elif name == "late-first-loss":
        # No loss at all until slot 960, long after the first experiments
        # finalized; the probes before the first OWD_max estimate take the
        # end-of-log threshold, which later records keep moving.
        episodes = [(960, 1160), (1500, 1700)]
        quiet_until = 960
    elif name == "stop":
        stop_slot = 1400
    _spec, schedule, config = _session(n_slots, 0.3, 17, marking)
    owd_us, lost = _episodic_path(
        5, episodes, base_us, quiet_until, shoulders=shoulders
    )
    logs = _synthetic_logs(
        schedule, config.probe.packets_per_probe, owd_us, lost, stop_slot, skew
    )
    return schedule, config, logs


@pytest.fixture(scope="module")
def mild_session(tmp_path_factory):
    """A real loopback session with the ``mild`` fault profile, recorded:
    its final logs and, for each report, how much of each log existed."""
    reports = []
    final = {}

    class Recording(StreamingMonitor):
        def observe(self, send_ns, recv_ns, epoch_ns, elapsed):
            reports.append((elapsed, len(send_ns), len(recv_ns)))
            super().observe(send_ns, recv_ns, epoch_ns, elapsed)

        def finish(self, send_ns, recv_ns, epoch_ns):
            final.update(send_ns=send_ns, recv_ns=recv_ns, epoch_ns=epoch_ns)
            super().finish(send_ns, recv_ns, epoch_ns)

    trace = tmp_path_factory.mktemp("mild") / "live.jsonl"
    config = BadabingConfig(p=0.3, n_slots=600)
    patch = pytest.MonkeyPatch()
    patch.setattr(runtime, "StreamingMonitor", Recording)
    try:
        run = live_loopback(config=config, seed=3, faults="mild", trace_path=str(trace))
    finally:
        patch.undo()
    logs = (final["send_ns"], final["recv_ns"], final["epoch_ns"], reports)
    return run, logs, trace


def _replay(schedule, config, logs, tmp_path):
    """Drive both monitors through the same reports; return what each fed,
    how many outcomes it had fed and experiments skipped after each report,
    its ``live.frequency`` points and its trace bytes."""
    send_ns, recv_ns, epoch_ns, reports = logs
    packets = config.probe.packets_per_probe
    outputs = {}
    for kind in ("reference", "windowed"):
        registry = MetricsRegistry()
        path = tmp_path / f"{kind}.jsonl"
        writer = TraceWriter(
            path, config.probe.slot, config.n_slots, config.p, list(schedule.experiments)
        )
        if kind == "reference":
            monitor = WholePrefixMonitor(schedule, config, registry, writer)
        else:
            monitor = StreamingMonitor(schedule, config, registry, writer=writer)
        fed = []
        add = monitor.validator.add

        def record(outcome, add=add, fed=fed):
            fed.append(outcome)
            add(outcome)

        monitor.validator.add = record
        progress = []
        for number, (elapsed, n_sent, n_received) in enumerate(reports):
            sent = dict(islice(send_ns.items(), n_sent))
            received = dict(islice(recv_ns.items(), n_received))
            if kind == "reference":
                records = probe_records_from_logs(
                    schedule, packets, sent, received, epoch_ns
                )
                monitor.observe(records, elapsed)
                if number == len(reports) - 1:
                    monitor.finish(records)
            else:
                monitor.observe(sent, received, epoch_ns, elapsed)
                if number == len(reports) - 1:
                    monitor.finish(sent, received, epoch_ns)
            progress.append((len(fed), monitor.skipped_experiments))
        writer.close()
        series = registry.series("live.frequency", role="sender").points()
        outputs[kind] = (fed, progress, series, path.read_bytes())
    return outputs


def _assert_same(outputs):
    reference, windowed = outputs["reference"], outputs["windowed"]
    fed, progress, series, trace = reference
    assert windowed[0] == fed
    assert windowed[1] == progress
    assert windowed[2] == series
    assert windowed[3] == trace
    return fed, series, trace


@pytest.mark.parametrize(
    "name",
    [
        "late-minimum",
        "late-minimum-filtered",
        "route-change-filtered",
        "drift-50ppm",
        "drift-200ppm",
        "drift-200ppm-filtered",
        "late-first-loss",
        "stop",
    ],
)
def test_windowed_monitor_replays_like_the_whole_prefix_one(name, tmp_path):
    schedule, config, logs = _synthetic_case(name)
    fed, series, trace = _assert_same(_replay(schedule, config, logs, tmp_path))
    # The case exercises what it names: experiments fed on both sides of a
    # congestion episode, marks by delay as well as by loss, every record in
    # the trace, a published series.
    assert any(outcome.bits[0] for outcome in fed)
    assert len(series[0]) > 10
    records = probe_records_from_logs(
        schedule, config.probe.packets_per_probe, logs[0], logs[1], logs[2]
    )
    assert trace.count(b"\n") == 1 + len(records)
    marking = CongestionMarker(config.marking).mark(rebase_probe_owds(records))
    assert marking.marked_by_delay > 0
    if name == "late-first-loss":
        first_congested = next(i for i, outcome in enumerate(fed) if any(outcome.bits))
        assert first_congested > 100
    if name == "stop":
        assert max(record.slot for record in records) < 1400


def test_only_the_filtered_monitor_refolds_when_the_minimum_moves(
    tmp_path, monkeypatch
):
    """The uncorrelated-loss filter reads the shift, so with it on a late
    new minimum folds the kept records again; without it nothing does.
    The route change needs that fold: without it the outcomes differ."""
    refolds = []
    rederive = StreamingMonitor._rederive

    def spy(self, shift):
        refolds.append(len(self._kept))
        rederive(self, shift)

    monkeypatch.setattr(StreamingMonitor, "_rederive", spy)
    _replay(*_synthetic_case("late-minimum"), tmp_path)
    assert refolds == []
    _replay(*_synthetic_case("route-change-filtered"), tmp_path)
    assert [kept for kept in refolds if kept > 500], refolds

    monkeypatch.setattr(StreamingMonitor, "_rederive", lambda self, shift: None)
    outputs = _replay(*_synthetic_case("route-change-filtered"), tmp_path)
    assert outputs["windowed"][0] != outputs["reference"][0]


def test_windowed_monitor_replays_a_recorded_mild_session(mild_session, tmp_path):
    run, logs, live_trace = mild_session
    schedule, config = run.schedule, config_from_spec(run.spec, MarkingConfig())
    assert len(logs[3]) > 3
    _fed, _series, trace = _assert_same(_replay(schedule, config, logs, tmp_path))
    # The replay wrote what the live session wrote.
    assert trace.split(b"\n")[1:] == live_trace.read_bytes().split(b"\n")[1:]
    # The final result is the from-scratch one over the recorded logs.
    records = probe_records_from_logs(
        schedule, config.probe.packets_per_probe, logs[0], logs[1], logs[2]
    )
    scratch = assemble_result(schedule, rebase_probe_owds(records), config)
    assert run.result.probes == scratch.probes
    # repr, not ==: a session without a loss transition has an undefined
    # duration, NaN, which equals nothing.
    assert repr(run.result.estimate) == repr(scratch.estimate)


# ---------------------------------------------------------------- work bound
class _FixedClock:
    def __init__(self):
        self.ns = EPOCH_NS

    def now_ns(self):
        return self.ns

    def now(self):
        return self.ns / 1e9


@pytest.mark.parametrize(
    "skew", [0.0, -50e-6, -200e-6], ids=["steady", "drift-50ppm", "drift-200ppm"]
)
def test_report_work_does_not_grow_with_the_session(skew, monkeypatch):
    """Every slot probed, so each report's window is the same size: the
    records built and the records folded into the marker state for report
    50 are no more than for report 5. A receiver clock that runs slow
    lowers the minimum OWD on most reports; that costs no fold of the
    session so far."""
    spec, schedule, config = _session(4000, 1.0, 3, MarkingConfig())
    owd_us, lost = _episodic_path(9, [(500, 560), (1800, 1900)])
    send_ns, recv_ns, _epoch, reports = _synthetic_logs(
        schedule, config.probe.packets_per_probe, owd_us, lost, skew=skew
    )
    built, folded = [], []

    class CountedRecord(ProbeRecord):
        def __post_init__(self):
            built.append(self.slot)
            super().__post_init__()

    fold = StreamingMonitor._fold

    def counted_fold(self, records, *args):
        folded.append(len(records))
        return fold(self, records, *args)

    monkeypatch.setattr(session, "ProbeRecord", CountedRecord)
    monkeypatch.setattr(StreamingMonitor, "_fold", counted_fold)
    clock = _FixedClock()
    monitor = StreamingMonitor(schedule, config)
    sender = LiveSender(
        None,
        SenderProtocol(make_session_id(3), MonotonicClock()),
        spec,
        schedule,
        clock=clock,
        on_progress=monitor.observe,
    )
    sender.epoch_ns = EPOCH_NS
    sends, arrivals = iter(send_ns.items()), iter(recv_ns.items())
    builds, folds, moved = [], [], 0
    for elapsed, n_sent, n_received in reports[:-1]:
        sender.send_ns.update(islice(sends, n_sent - len(sender.send_ns)))
        received = sender.protocol.recv_ns
        received.update(islice(arrivals, n_received - len(received)))
        clock.ns = EPOCH_NS + round(elapsed * 1e9)
        built.clear()
        folded.clear()
        minimum = monitor._minimum
        sender._report_progress()
        builds.append(len(built))
        folds.append(sum(folded))
        moved += monitor._minimum != minimum
    assert len(builds) >= 100
    if skew:
        assert moved >= 0.9 * len(builds)
    # A report joins and folds its 32 new trains plus the trains inside
    # tau + margin of the horizon, and a few slots of the experiment
    # straddling it.
    window = (config.marking.tau + FINALIZE_MARGIN) / config.probe.slot
    for counts in (builds, folds):
        assert counts[49] <= counts[4]
        assert max(counts) <= REPORT_EVERY + window + 4


# ----------------------------------------------------------------- log join
def _join(send_ns, recv_ns):
    schedule = SimpleNamespace(probe_slots=[0, 4, 9])
    return probe_records_from_logs(schedule, 3, send_ns, recv_ns, 0)


def _sent(slot, at=None):
    start = slot * SLOT_NS if at is None else at
    return {(slot, index): start + index * GAP_NS for index in range(3)}


def test_join_a_missing_echo_is_a_loss_after_the_previous_delivery():
    send_ns = _sent(4)
    recv_ns = {(4, 0): send_ns[(4, 0)] + 1000, (4, 2): send_ns[(4, 2)] + 3000}
    [record] = _join(send_ns, recv_ns)
    assert record.slot == 4
    assert record.send_time == 4 * SLOT_NS / 1e9
    assert record.owds == (1e-6, 3e-6)
    assert record.lost_packets == 1
    assert record.owd_before_loss == 1e-6


def test_join_a_lost_first_packet_has_no_owd_before_loss():
    send_ns = _sent(4)
    recv_ns = {(4, 1): send_ns[(4, 1)] + 2000}
    [record] = _join(send_ns, recv_ns)
    assert record.owds == (2e-6,)
    assert record.owd_before_loss is None
    [all_lost] = _join(send_ns, {})
    assert all_lost.owds == ()
    assert all_lost.owd_before_loss is None


def test_join_drops_a_train_cut_short_and_skips_unsent_slots():
    send_ns = {**_sent(0), **_sent(4)}
    del send_ns[(4, 2)]
    recv_ns = {key: stamp + 500 for key, stamp in send_ns.items()}
    records = _join(send_ns, recv_ns)
    # Slot 4 stopped mid-train and slot 9 was never sent.
    assert [record.slot for record in records] == [0]
    assert records[0].owds == (5e-7,) * 3


def test_join_sorts_records_by_send_time():
    # Slot 9 went out before slot 4 (a reordered log): send order wins.
    send_ns = {**_sent(0), **_sent(9, at=2 * SLOT_NS), **_sent(4, at=6 * SLOT_NS)}
    records = _join(send_ns, {})
    assert [record.slot for record in records] == [0, 9, 4]
    times = [record.send_time for record in records]
    assert times == sorted(times)


def test_join_over_a_slot_range_is_the_whole_join_restricted():
    _spec, schedule, config = _session(400, 0.5, 2, MarkingConfig())
    owd_us, lost = _episodic_path(3, [(100, 160)], noise=0.05)
    logs = _synthetic_logs(
        schedule, config.probe.packets_per_probe, owd_us, lost, stop_slot=300
    )[:3]
    whole = probe_records_from_logs(schedule, 3, *logs)
    slots = schedule.probe_slots
    bounds = (0, 1, slots[10], slots[10] + 1, slots[40], 299, 300, 1000)
    for start in bounds:
        for stop in (None, start, slots[50], 300, 1000):
            part = probe_records_from_logs(
                schedule, 3, *logs, start_slot=start, stop_slot=stop
            )
            assert part == [
                record
                for record in whole
                if start <= record.slot and (stop is None or record.slot < stop)
            ]
