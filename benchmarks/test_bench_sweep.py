"""Sweep engine benchmarks: parallelism and the batch slot pipeline.

Two guards share this module:

* serial vs process-parallel ``sweep_badabing`` (same 8-cell grid both
  ways) — byte-identical digests always, >= 1.5x speedup when the
  machine exposes 4+ cores;
* scalar vs batch *slot-pipeline kernel* (marking → y_i assembly →
  pattern fold over a large synthesized measurement, each side timed
  from its native representation: the scalar reference from
  ``ProbeRecord`` objects, the batch pipeline that offline re-estimation
  runs from ``ProbeArrays``) — identical counters/estimates always, >= 5x
  faster when 4+ cores are exposed (the gate is really about not
  asserting wall-clock on starved CI containers; the kernel itself is
  single-threaded).

All wall times land in ``benchmarks/results/`` (text archives) and the
machine-readable BENCH trajectory via ``bench_record``, so the step
change from the batch kernel is visible in ``badabing-sim bench
--compare``.
"""

from __future__ import annotations

import os
import random
import time

from repro.config import MarkingConfig
from repro.core import batch
from repro.core.estimators import count_patterns, estimate_from_counter
from repro.core.marking import CongestionMarker
from repro.core.records import ProbeRecord
from repro.core.schedule import GeometricSchedule
from repro.core.validation import report_from_counter
from repro.experiments.runner import scorecard_from_outcomes, sweep_badabing
from repro.obs.audit import scorecard_digest
from repro.obs.metrics import MetricsRegistry, snapshot_digest

GRID_KWARGS = dict(
    scenario="episodic_cbr",
    n_slots=6000,
    warmup=2.0,
    scenario_kwargs={"mean_spacing": 2.0},
)
CELLS = [{"p": p, "seed": seed} for p in (0.1, 0.3, 0.5, 0.7) for seed in (1, 2)]
WORKERS = 4
MIN_SPEEDUP = 1.5


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def _timed_sweep(workers):
    registry = MetricsRegistry()
    started = time.perf_counter()
    outcomes = sweep_badabing(
        CELLS, metrics=registry, workers=workers, **GRID_KWARGS
    )
    elapsed = time.perf_counter() - started
    return elapsed, outcomes, registry


def test_parallel_sweep_matches_serial_and_records_speedup(archive, bench_record):
    cores = _effective_cores()
    serial_s, serial_outcomes, serial_registry = _timed_sweep(None)
    parallel_s, parallel_outcomes, parallel_registry = _timed_sweep(WORKERS)

    assert all(o.ok for o in serial_outcomes)
    assert all(o.ok for o in parallel_outcomes)
    serial_card = scorecard_digest(scorecard_from_outcomes(serial_outcomes))
    parallel_card = scorecard_digest(scorecard_from_outcomes(parallel_outcomes))
    assert serial_card == parallel_card
    serial_snap = snapshot_digest(serial_registry.snapshot())
    parallel_snap = snapshot_digest(parallel_registry.snapshot())
    assert serial_snap == parallel_snap

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    archive(
        "bench_sweep",
        "\n".join(
            [
                f"cells={len(CELLS)} workers={WORKERS} cores={cores}",
                f"serial_s={serial_s:.3f}",
                f"parallel_s={parallel_s:.3f}",
                f"speedup={speedup:.2f}x",
                f"scorecard_digest={serial_card}",
                f"metrics_digest={serial_snap}",
            ]
        ),
    )
    bench_record(
        "sweep_parallel",
        parallel_s,
        serial_seconds=serial_s,
        speedup=speedup,
        workers=WORKERS,
        cores=cores,
    )

    if cores >= WORKERS:
        assert speedup >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x speedup with {WORKERS} workers on "
            f"{cores} cores, got {speedup:.2f}x "
            f"(serial {serial_s:.3f}s vs parallel {parallel_s:.3f}s)"
        )


# ---------------------------------------------------------------------------
# Batch slot-pipeline kernel
# ---------------------------------------------------------------------------

KERNEL_N_SLOTS = 120_000
KERNEL_P = 0.3
KERNEL_SEED = 101
MIN_KERNEL_SPEEDUP = 5.0


def _synthesize_measurement():
    """A large, deterministic measurement for the kernel benchmark.

    The schedule is a real improved-design draw; the probe stream mixes
    clean deliveries, congestion-delayed probes near losses, and sparse
    losses — enough structure that every marking rule (loss, tau
    proximity, threshold history) does real work.
    """
    schedule = GeometricSchedule(
        KERNEL_P,
        KERNEL_N_SLOTS,
        random.Random(KERNEL_SEED),
        improved=True,
    )
    rng = random.Random(KERNEL_SEED + 1)
    records = []
    base = 0.020
    for slot in schedule.probe_slots:
        send_time = slot * 0.005
        congested = rng.random() < 0.02
        delay = base + (0.030 * rng.random() if congested else 0.002 * rng.random())
        if rng.random() < 0.008:
            records.append(
                ProbeRecord(
                    slot=slot,
                    send_time=send_time,
                    n_packets=3,
                    owds=(delay, delay),
                    owd_before_loss=delay,
                )
            )
        else:
            records.append(
                ProbeRecord(
                    slot=slot,
                    send_time=send_time,
                    n_packets=3,
                    owds=(delay, delay, delay),
                )
            )
    return schedule, records


def test_vectorized_kernel_speedup(archive, bench_record):
    cores = _effective_cores()
    schedule, records = _synthesize_measurement()
    config = MarkingConfig()
    marker = CongestionMarker(config)
    # Untimed: the batch pipeline's native input.
    arrays = batch.ProbeArrays.from_records(records)
    starts, lengths = batch.experiment_arrays(schedule.experiments)

    started = time.perf_counter()
    marked = marker.mark(records)
    outcomes = schedule.outcomes_from_states(marked.slot_states)
    scalar_counter = count_patterns(outcomes)
    scalar_s = time.perf_counter() - started

    started = time.perf_counter()
    pipeline = batch.run_slot_pipeline(starts, lengths, arrays, marking=config)
    vectorized_s = time.perf_counter() - started

    # Equivalence is asserted on every machine, regardless of speed.
    assert pipeline.counter == scalar_counter
    assert (
        batch.materialize_outcomes(pipeline.starts, pipeline.keys, pipeline.valid)
        == outcomes
    )
    assert (
        dict(zip([r.slot for r in records], pipeline.marking.states.tolist()))
        == marked.slot_states
    )
    assert estimate_from_counter(pipeline.counter, improved=True) == (
        estimate_from_counter(scalar_counter, improved=True)
    )
    assert report_from_counter(pipeline.counter) == report_from_counter(
        scalar_counter
    )

    speedup = scalar_s / vectorized_s if vectorized_s > 0 else float("inf")
    archive(
        "bench_vectorized_kernel",
        "\n".join(
            [
                f"n_slots={KERNEL_N_SLOTS} probes={len(records)} "
                f"experiments={schedule.n_experiments} cores={cores}",
                f"scalar_s={scalar_s:.3f}",
                f"vectorized_s={vectorized_s:.3f}",
                f"speedup={speedup:.2f}x",
            ]
        ),
    )
    bench_record(
        "vectorized_kernel",
        vectorized_s,
        scalar_seconds=scalar_s,
        speedup=speedup,
        n_slots=KERNEL_N_SLOTS,
        probes=len(records),
        cores=cores,
    )

    if cores >= 4:
        assert speedup >= MIN_KERNEL_SPEEDUP, (
            f"expected >= {MIN_KERNEL_SPEEDUP}x kernel speedup, got "
            f"{speedup:.2f}x (scalar {scalar_s:.3f}s vs vectorized "
            f"{vectorized_s:.3f}s)"
        )
