"""Inputs, timed loops and output checks of the four workloads.

Every workload is a sequence of operations. ``sim_*`` and ``offline_remark``
run them in a closed loop with one client; ``live_loopback`` launches probe
trains in an open loop, on the probe schedule. An operation and its unit of
work are:

* ``sim_tcp``, ``sim_web_faults``: one BADABING cell through
  ``sweep_badabing``; 1,000 simulated packet transmissions. Per packet,
  not per simulated second, because the web traffic's volume per second
  varies several-fold between seeds while its cost per packet does not.
* ``offline_remark``: one load of the trace plus its re-estimation under
  every marking of :data:`GRID`; 1,000 trace slots re-estimated under one
  marking.
* ``live_loopback``: one probe train; the train.

End-to-end metrics of an untraced pass:

* ``cost_ms_p50``: median over the operations of what a unit of work
  cost in time: the operation's wall milliseconds per unit in a closed
  loop, scaled to the reference host speed of ``hostspeed.py`` by the
  samples taken just before and after the operation; and for a train its
  launch lateness (first packet's send time minus its slot's start), which
  the selector's millisecond timeouts set, not the host's speed, so it is
  not scaled;
* ``peak_rss_mib``: peak resident set size once the first operation is
  done. The sim workloads' first cell is the same for every seed.

``live_loopback`` also prints, without a gate, its lateness p90 and p99 and
its process CPU per train: on a shared 2-vCPU host the p90 moved 2x between
runs and the CPU per train read 0.26-0.43 ms over ten runs, wider than the
largest bound allowed. In the closed loops CPU time equals wall time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import hostspeed
from layers import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: The seed the stored reference results belong to.
DEFAULT_SEED = 1
#: Host-speed samples taken before every closed-loop operation.
HOST_SAMPLES_PER_OP = 4
#: Share of ``--seconds`` a traced run gives its untraced first pass; the
#: traced pass repeats the same operations at about twice the cost.
TRACE_SHARE = 0.3

# --------------------------------------------------------------------- sim
SIM = {
    "sim_tcp": {"scenario": "infinite_tcp"},
    "sim_web_faults": {"scenario": "harpoon_web", "faults": "mild"},
}
#: The paper's probe probabilities; cells cycle through them.
P_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)
SIM_SLOTS = 2000
#: Cells of the default seed whose results ``reference.json`` holds.
REFERENCE_CELLS = 6
#: Event budget of a cell, as a multiple of the largest reference count.
BUDGET_MULTIPLE = 4

# ----------------------------------------------------------------- offline
SLOT = 0.005
OFFLINE_SLOTS = 40_000
OFFLINE_P = 0.3
#: Figure 9-style markings: (alpha, tau seconds).
GRID = tuple((alpha, tau) for alpha in (0.05, 0.1, 0.2) for tau in (0.04, 0.08))
#: Gilbert congestion process of the synthetic path: episodes last 1/g
#: slots on average and cover about 3% of the slots.
GILBERT_G = 0.1
GILBERT_B = GILBERT_G * 0.03 / 0.97

# -------------------------------------------------------------------- live
LIVE_P = 0.5
LIVE_SLOTS = 1000
#: Nominal wall time of one live session: its schedule plus hand-shake,
#: drain and FIN.
LIVE_SESSION_S = LIVE_SLOTS * SLOT + 0.3

#: Per-layer counts every workload reports (0 where the layer does not run).
COUNT_METRICS = (
    "sim.events",
    "sim.cancelled_share",
    "sim.heap_peak",
    "net.link.packets",
    "net.queue.drops",
    "net.faults.deliveries",
    "traffic.segments",
    "traffic.flows",
    "probe.trains",
    "pipeline.slots",
    "io.mb",
    "io.probes",
    "live.wire.calls",
    "live.echo_missing",
    "live.wire_errors",
)


def derive_seed(seed: int, index: int, label: str) -> int:
    """Deterministic per-operation seed from the run's ``--seed``."""
    return zlib.crc32(f"{label}:{seed}:{index}".encode()) & 0x7FFFFFFF


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Result:
    """What one run reports back to ``run.py``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.named: Dict[str, Tuple[float, str]] = {}
        self.layers: Dict[str, float] = {}
        #: Host-speed samples; a closed loop takes a batch before each
        #: operation and one after the last.
        self.host_batches: List[List[float]] = []

    def sample_host(self) -> None:
        self.host_batches.append(hostspeed.samples(HOST_SAMPLES_PER_OP))

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def first_op_done(self) -> None:
        self.metrics.setdefault("peak_rss_mib", peak_rss_mib())

    def set_cost(self, costs_ms: List[float], ops: Optional[List[int]] = None) -> None:
        """Median cost; in a closed loop, ``ops`` gives each cost's operation,
        whose cost is scaled by the batches sampled just before and after it."""
        measured = statistics.median(costs_ms)
        self.metrics["cost_ms_p50"] = measured
        self.named["operations"] = (len(costs_ms), "count")
        if ops is not None:
            batches = self.host_batches
            self.metrics["cost_ms_p50"] = statistics.median(
                cost * hostspeed.scale(batches[op] + batches[op + 1]) for cost, op in zip(costs_ms, ops)
            )
            self.named["cost_ms_p50_measured"] = (measured, "ms")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:20],
            "notes": self.notes,
            "metrics": self.metrics,
            "named": self.named,
            "layers": self.layers,
            "calibration_ms": [sample for batch in self.host_batches for sample in batch],
        }


def layer_metrics(
    result: Result, tracer: Tracer, n_ops: float, traced_wall: float, overhead: float
) -> Dict[str, int]:
    """Per-operation self time of every layer, plus the tracing figures.

    Returns the call count of every layer.
    """
    snapshot = tracer.clock.snapshot()
    attributed = 0.0
    for layer in LAYERS:
        seconds = snapshot[layer.name][0]
        attributed += seconds
        result.layers[layer.metric] = seconds / n_ops
    result.layers.update({name: 0.0 for name in COUNT_METRICS})
    result.layers["trace.overhead"] = overhead
    result.layers["trace.unattributed_share"] = (traced_wall - attributed) / traced_wall
    if tracer.missing:
        result.notes.append(f"entry points not found: {', '.join(tracer.missing)}")
    return {name: calls for name, (_seconds, calls) in snapshot.items()}


# --------------------------------------------------------------------- sim
def load_reference() -> Dict[str, Dict[str, Dict[str, Any]]]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def sim_cell(workload: str, seed: int, index: int) -> Dict[str, Any]:
    return dict(
        SIM[workload],
        label=f"{workload}/{seed}/{index}",
        p=P_VALUES[index % len(P_VALUES)],
        n_slots=SIM_SLOTS,
        seed=derive_seed(seed, index, workload),
    )


def sim_cells(workload: str, seed: int) -> Iterator[Dict[str, Any]]:
    """The run's cells: the default seed's first cell, whose stored result
    every run checks, then the cells of ``seed``."""
    yield sim_cell(workload, DEFAULT_SEED, 0)
    index = 0
    while True:
        yield sim_cell(workload, seed, index)
        index += 1


@dataclasses.dataclass
class CellRun:
    cell: Dict[str, Any]
    outcome: Any
    wall: float
    record: Optional[Dict[str, Any]]

    @property
    def kilopackets(self) -> float:
        return self.outcome.result.manifest.metrics["link.tx_packets"] / 1e3


def run_cell(cell: Dict[str, Any], budget: Any) -> CellRun:
    # Looked up at call time, so a traced pass calls the wrapped entry point.
    from repro.experiments.runner import scorecard_from_outcomes, sweep_badabing
    from repro.obs.audit import scorecard_digest

    started = perf_counter()
    [outcome] = sweep_badabing([cell], budget=budget)
    wall = perf_counter() - started
    record = None
    if outcome.ok:
        result = outcome.result
        record = {
            "scorecard": scorecard_digest(scorecard_from_outcomes([outcome])),
            "f_hat": repr(result.frequency),
            "d_hat": repr(result.duration_seconds),
            "events": result.manifest.events_processed,
        }
    return CellRun(cell, outcome, wall, record)


def check_cell(run: CellRun, reference: Dict[str, Dict[str, Any]]) -> Optional[str]:
    label = run.cell["label"]
    if not run.outcome.ok:
        return f"{label}: {run.outcome.error_type}: {run.outcome.error}"
    if not 0.0 <= run.outcome.result.frequency <= 1.0:
        return f"{label}: F-hat {run.outcome.result.frequency} outside [0, 1]"
    expected = reference.get(label)
    if expected is not None and expected != run.record:
        return f"{label}: result {run.record} differs from reference {expected}"
    return None


def sim_budget(reference: Dict[str, Dict[str, Any]]) -> Any:
    from repro.experiments.runner import RunBudget

    events = max(record["events"] for record in reference.values())
    return RunBudget(max_events=BUDGET_MULTIPLE * events, max_attempts=1)


def run_sim(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    reference = load_reference()[workload]
    budget = sim_budget(reference)
    result = Result()
    runs: List[CellRun] = []
    # A plain run covers the anchor cell and one cell per p value at least,
    # so the accuracy figures are deterministic per seed.
    min_cells = 2 if trace else 1 + len(P_VALUES)
    limit = seconds * (TRACE_SHARE if trace else 1.0)
    started = perf_counter()
    for cell in sim_cells(workload, seed):
        if len(runs) >= min_cells and perf_counter() - started >= limit:
            break
        result.sample_host()
        runs.append(run_cell(cell, budget))
        result.first_op_done()
    result.sample_host()
    result.attempted = len(runs)
    for run in runs:
        problem = check_cell(run, reference)
        if problem:
            result.fail(1, problem)
    ok = [run for run in runs if run.outcome.ok]
    if not ok:
        return result
    if trace:
        traced_sim(result, ok, budget, reference)
        return result
    result.set_cost(
        [1e3 * run.wall / run.kilopackets for run in ok],
        [index for index, run in enumerate(runs) if run.outcome.ok],
    )
    sim_seconds = sum(run.outcome.result.manifest.sim_seconds for run in ok)
    result.named["sim_speed"] = (sim_seconds / sum(run.wall for run in ok), "sim-s/host-s")
    scored = [run for run in runs[: 1 + len(P_VALUES)] if run.outcome.ok]
    f_errors = [abs(run.outcome.result.frequency - run.outcome.truth.frequency) for run in scored]
    d_errors = [
        1e3 * abs(run.outcome.result.duration_seconds - run.outcome.truth.duration_mean)
        for run in scored
        if not math.isnan(run.outcome.result.duration_seconds)
    ]
    if f_errors:
        result.named["f_abs_err"] = (statistics.fmean(f_errors), "-")
    if d_errors:
        result.named["d_abs_err_ms"] = (statistics.fmean(d_errors), "ms")
    result.named["d_undefined_cells"] = (len(scored) - len(d_errors), "count")
    return result


def traced_sim(result: Result, untraced: List[CellRun], budget: Any, reference: Dict[str, Any]) -> None:
    tracer = Tracer()
    tracer.install()
    traced: List[CellRun] = []
    heap_peaks: List[int] = []
    try:
        tracer.clock.reset()
        for run in untraced:
            keep: Dict[str, Any] = {}
            traced.append(run_cell(dict(run.cell, keep=keep), budget))
            if "sim" in keep:
                heap_peaks.append(keep["sim"].heap_peak)
            keep.clear()
        senders = tracer.tcp_senders
        traced_wall = sum(run.wall for run in traced)
        layer_metrics(
            result,
            tracer,
            len(traced),
            traced_wall,
            traced_wall / sum(run.wall for run in untraced),
        )
    finally:
        tracer.uninstall()
    result.attempted += len(traced)
    for before, after in zip(untraced, traced):
        problem = check_cell(after, reference)
        if problem is None and after.record != before.record:
            problem = f"{after.cell['label']}: traced {after.record} != untraced {before.record}"
        if problem:
            result.fail(1, problem)
    done = [run.outcome.result.manifest for run in traced if run.outcome.ok]
    if not done:
        return
    n = len(done)
    events = sum(manifest.events_processed for manifest in done)
    cancelled = sum(manifest.metrics.get("sim.events_cancelled", 0) for manifest in done)

    def mean_of(name: str) -> float:
        return sum(manifest.metrics.get(name, 0) for manifest in done) / n

    result.layers.update(
        {
            "sim.events": events / n,
            "sim.cancelled_share": cancelled / (events + cancelled),
            "sim.heap_peak": statistics.fmean(heap_peaks) if heap_peaks else 0.0,
            "net.link.packets": mean_of("link.tx_packets"),
            "net.queue.drops": mean_of("queue.dropped_packets"),
            "net.faults.deliveries": mean_of("faults.delivered"),
            "traffic.segments": sum(sender.segments_sent for sender in senders) / n,
            "traffic.flows": len(senders) / n,
            "probe.trains": mean_of("probe.trains_sent"),
            "pipeline.slots": float(SIM_SLOTS),
        }
    )


def record_reference(workload: str) -> None:
    """Store the default seed's first cells as the reference results."""
    from repro.experiments.runner import RunBudget

    cells = [sim_cell(workload, DEFAULT_SEED, index) for index in range(REFERENCE_CELLS)]
    runs = [run_cell(cell, RunBudget(max_attempts=1)) for cell in cells]
    failed = [run.cell["label"] for run in runs if run.record is None]
    if failed:
        raise SystemExit(f"reference cells failed: {failed}")
    reference = load_reference() if REFERENCE.exists() else {}
    reference[workload] = {run.cell["label"]: run.record for run in runs}
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------- offline
def synthesize_trace(seed: int, path: Path) -> Dict[str, float]:
    """Write a long improved-design measurement over a synthetic path.

    Congestion follows a Gilbert process. Probes in congested slots see a
    nearly full queue and lose each packet with probability 0.4; the rest
    see light queueing. Returns the path's true F and D (seconds).
    """
    from repro.core.records import ProbeRecord
    from repro.core.schedule import GeometricSchedule
    from repro.io import Measurement, save_measurement
    from repro.synthetic.gilbert import GilbertProcess
    from repro.synthetic.renewal import AlternatingRenewalProcess

    rng = random.Random(derive_seed(seed, 0, "offline_remark"))
    states = GilbertProcess(GILBERT_G, GILBERT_B, rng).generate(OFFLINE_SLOTS)
    schedule = GeometricSchedule(OFFLINE_P, OFFLINE_SLOTS, rng, improved=True)
    base, queue_max = 0.010, 0.100
    probes = []
    for slot in schedule.probe_slots:
        congested = states[slot]
        queue = queue_max * (rng.uniform(0.85, 1.0) if congested else rng.random() ** 3 * 0.5)
        owds: List[float] = []
        owd_before_loss = None
        lost = False
        for _index in range(3):
            if congested and rng.random() < 0.4:
                if not lost:
                    lost = True
                    owd_before_loss = owds[-1] if owds else None
                continue
            owds.append(base + queue + rng.uniform(0.0, 0.0005))
        probes.append(
            ProbeRecord(
                slot=slot,
                send_time=slot * SLOT,
                n_packets=3,
                owds=tuple(owds),
                owd_before_loss=owd_before_loss,
            )
        )
    save_measurement(
        path,
        Measurement(
            slot_width=SLOT,
            n_slots=OFFLINE_SLOTS,
            p=OFFLINE_P,
            experiments=list(schedule.experiments),
            probes=probes,
            metadata={"tool": "perfbench", "seed": seed},
        ),
    )
    frequency, duration_slots = AlternatingRenewalProcess.truth(states)
    return {"frequency": frequency, "duration_s": duration_slots * SLOT}


def estimate_digest(estimate: Any, validation: Any) -> str:
    return json.dumps(
        [dataclasses.asdict(estimate), dataclasses.asdict(validation)],
        sort_keys=True,
        default=repr,
    )


def scalar_reference(measurement: Any, marking: Any) -> Tuple[str, Any]:
    """The §6.1 → §5 chain, step by step, as the reference for reestimate."""
    from repro.core.estimators import estimate_from_outcomes
    from repro.core.marking import CongestionMarker
    from repro.core.schedule import coverage_report
    from repro.core.validation import validate_outcomes

    marked = CongestionMarker(marking).mark(measurement.probes)
    outcomes = measurement.outcomes(marked.slot_states)
    coverage = coverage_report(measurement.experiments, marked.slot_states)
    estimate = estimate_from_outcomes(outcomes, coverage=coverage)
    validation = validate_outcomes(outcomes, coverage=coverage)
    return estimate_digest(estimate, validation), estimate


def run_offline(seed: int, seconds: float, trace: bool) -> Result:
    import repro.io as io_api
    from repro.config import MarkingConfig

    result = Result()
    markings = [MarkingConfig(alpha=alpha, tau=tau) for alpha, tau in GRID]
    units = OFFLINE_SLOTS * len(GRID) / 1e3
    workdir = Path(tempfile.mkdtemp(prefix="offline-", dir=HERE))
    try:
        path = workdir / "trace.jsonl"
        # The input is made in a process of its own, so that neither its
        # time nor its memory counts against the program.
        made = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", "offline_remark",
             "--seed", str(seed), "--synthesize", str(path)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=120,
        )
        truth = json.loads(made.stdout.strip().splitlines()[-1])
        measurement = io_api.load_measurement(path)
        n_probes = len(measurement.probes)
        references = [scalar_reference(measurement, marking) for marking in markings]
        del measurement

        def operation() -> float:
            result.sample_host()
            started = perf_counter()
            # Looked up on the module at call time, so the traced pass
            # calls the wrapped entry points.
            loaded = io_api.load_measurement(path)
            outputs = [io_api.reestimate(loaded, marking) for marking in markings]
            wall = perf_counter() - started
            result.attempted += 1
            if len(loaded.probes) != n_probes:
                result.fail(1, f"loaded {len(loaded.probes)} probes, wrote {n_probes}")
            else:
                for (alpha, tau), (expected, _estimate), output in zip(GRID, references, outputs):
                    if estimate_digest(output.estimate, output.validation) != expected:
                        result.fail(1, f"reestimate(alpha={alpha}, tau={tau}) differs from the scalar reference")
                        break
            return wall

        limit = seconds * (TRACE_SHARE if trace else 1.0)
        started = perf_counter()
        untraced = [operation()]
        result.first_op_done()
        while perf_counter() - started < limit:
            untraced.append(operation())
        result.sample_host()
        if not trace:
            result.set_cost([1e3 * wall / units for wall in untraced], list(range(len(untraced))))
            result.named["slots_per_s"] = (1e3 * units * len(untraced) / sum(untraced), "slots/s")
            estimates = [estimate for _digest, estimate in references]
            result.named["f_abs_err"] = (
                statistics.fmean(abs(e.frequency - truth["frequency"]) for e in estimates),
                "-",
            )
            d_errors = [
                1e3 * abs(e.duration_seconds(SLOT) - truth["duration_s"])
                for e in estimates
                if not math.isnan(e.duration_slots)
            ]
            if d_errors:
                result.named["d_abs_err_ms"] = (statistics.fmean(d_errors), "ms")
            return result
        tracer = Tracer()
        tracer.install()
        try:
            tracer.clock.reset()
            traced = [operation() for _ in untraced]
            layer_metrics(result, tracer, len(traced), sum(traced), sum(traced) / sum(untraced))
        finally:
            tracer.uninstall()
        result.layers.update(
            {
                "pipeline.slots": float(OFFLINE_SLOTS * len(GRID)),
                "io.mb": path.stat().st_size / 1e6,
                "io.probes": float(n_probes),
            }
        )
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -------------------------------------------------------------------- live
@dataclasses.dataclass
class Session:
    cpu: float
    trains: int
    wall: float
    lateness_ms: List[float]
    echo_missing: int
    wire_errors: int


def run_session(result: Result, seed: int) -> Optional[Session]:
    """One loopback session; every scheduled train is one attempted operation."""
    from repro.config import BadabingConfig
    from repro.errors import ReproError
    from repro.live.runtime import live_loopback
    from repro.live.session import schedule_from_spec, spec_for

    config = BadabingConfig(p=LIVE_P, n_slots=LIVE_SLOTS)
    scheduled = len(schedule_from_spec(spec_for(config, seed)).probe_slots)
    result.attempted += scheduled
    started, cpu_started = perf_counter(), process_time()
    try:
        run = live_loopback(config=config, seed=seed)
    except (ReproError, OSError) as exc:
        result.fail(scheduled, f"session seed {seed}: {type(exc).__name__}: {exc}")
        return None
    wall, cpu = perf_counter() - started, process_time() - cpu_started
    wire_errors = run.stats.wire_errors + (run.reflector.wire_errors if run.reflector else 0)
    probes = run.result.probes
    missing = sum(1 for probe in probes if len(probe.owds) < probe.n_packets)
    if run.stats.stopped or wire_errors:
        result.fail(
            scheduled,
            f"session seed {seed}: stopped={run.stats.stopped!r} wire_errors={wire_errors}",
        )
    elif missing or len(probes) != scheduled:
        result.fail(
            missing + scheduled - len(probes),
            f"session seed {seed}: {missing} trains missed an echo, "
            f"{scheduled - len(probes)} of {scheduled} trains have no record",
        )
    width = run.result.slot_width
    return Session(
        cpu=cpu,
        trains=max(1, run.stats.trains_sent),
        wall=wall,
        lateness_ms=[1e3 * (probe.send_time - probe.slot * width) for probe in probes],
        echo_missing=missing,
        wire_errors=wire_errors,
    )


def run_live(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    count = max(1, round(seconds * (0.5 if trace else 1.0) / LIVE_SESSION_S))
    seeds = [derive_seed(seed, index, "live_loopback") for index in range(count)]
    untraced = []
    for session_seed in seeds:
        session = run_session(result, session_seed)
        result.first_op_done()
        if session is not None:
            untraced.append(session)
    if not untraced:
        return result
    trains = sum(session.trains for session in untraced)
    if not trace:
        lateness = [late for session in untraced for late in session.lateness_ms]
        result.set_cost(lateness)
        result.named["send_late_ms_p50"] = (result.metrics["cost_ms_p50"], "ms")
        result.named["send_late_ms_p90"] = (percentile(lateness, 90), "ms")
        result.named["send_late_ms_p99"] = (percentile(lateness, 99), "ms")
        result.named["cpu_ms_per_train"] = (1e3 * sum(s.cpu for s in untraced) / trains, "ms")
        return result
    tracer = Tracer()
    tracer.install()
    try:
        tracer.clock.reset()
        traced = [session for session in (run_session(result, s) for s in seeds) if session]
        if not traced:
            return result
        traced_trains = sum(session.trains for session in traced)
        # The open loop's wall time is set by the schedule, so the overhead
        # is the ratio of CPU per train.
        calls = layer_metrics(
            result,
            tracer,
            traced_trains,
            sum(session.wall for session in traced),
            (sum(s.cpu for s in traced) / traced_trains) / (sum(s.cpu for s in untraced) / trains),
        )
    finally:
        tracer.uninstall()
    result.layers.update(
        {
            "pipeline.slots": LIVE_SLOTS * len(traced) / traced_trains,
            "live.wire.calls": calls["live.wire"] / traced_trains,
            "live.echo_missing": float(sum(s.echo_missing for s in traced)),
            "live.wire_errors": float(sum(s.wire_errors for s in traced)),
        }
    )
    return result


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    if workload in SIM:
        result = run_sim(workload, seed, seconds, trace)
    elif workload == "offline_remark":
        result = run_offline(seed, seconds, trace)
    else:
        result = run_live(seed, seconds, trace)
    return result.as_dict()
