"""Scalar-vs-batch equivalence for the array-batched slot pipeline.

The contract (`repro.core.batch`): for identical inputs the batch pipeline
produces the *same bits* as the scalar reference stages — the same marked
slot states, the same pattern counter, the same estimates and coverage.
Offline re-estimation (`repro.io.reestimate`) runs the batch pipeline, so
it is checked end to end against the explicit scalar chain. Hypothesis
drives random seeds, probe streams, and marking parameters at the pieces.
"""

import copy
import dataclasses
import filecmp
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.config import MarkingConfig
from repro.core import batch
from repro.core.estimators import (
    count_patterns,
    estimate_from_counter,
    estimate_from_outcomes,
)
from repro.core.marking import CongestionMarker
from repro.core.records import ProbeRecord
from repro.core.schedule import GeometricSchedule, coverage_report
from repro.core.validation import (
    SequentialValidator,
    report_from_counter,
    validate_outcomes,
)
from repro.experiments.runner import run_badabing


def assert_same_estimate(a, b):
    """Field-wise LossEstimate equality where nan == nan (dataclass == has
    the IEEE nan != nan hazard exactly when no transition was observed)."""
    assert a.frequency == b.frequency
    assert a.duration_slots == b.duration_slots or (
        a.duration_slots != a.duration_slots and b.duration_slots != b.duration_slots
    )
    assert a.n_experiments == b.n_experiments
    assert a.counts == b.counts
    assert a.r_hat == b.r_hat
    assert a.improved == b.improved
    assert a.coverage == b.coverage

# ---------------------------------------------------------------------------
# Probe streams → marking → fold
# ---------------------------------------------------------------------------


@st.composite
def probe_streams(draw):
    """A chronological probe stream over a small slot window.

    Now and then a slot gets a second, later probe (the trace loader
    accepts such a stream): the slot keeps the second probe's state, and
    each probe's loss counts on its own.
    """
    n_slots = draw(st.integers(2, 40))
    probes = []
    for slot in range(n_slots):
        if not draw(st.booleans()):
            continue
        offsets = [draw(st.floats(0.0, 0.004, allow_nan=False))]
        if draw(st.integers(0, 4)) == 0:
            offsets.append(draw(st.floats(offsets[0], 0.0045, allow_nan=False)))
        for offset in offsets:
            delivered = draw(st.integers(0, 3))
            owds = tuple(
                draw(st.floats(0.001, 0.2, allow_nan=False))
                for _ in range(delivered)
            )
            lost = delivered < 3
            obl = (
                draw(st.one_of(st.none(), st.floats(0.001, 0.2, allow_nan=False)))
                if lost
                else None
            )
            probes.append(
                ProbeRecord(
                    slot=slot,
                    send_time=slot * 0.005 + offset,
                    n_packets=3,
                    owds=owds,
                    owd_before_loss=obl,
                )
            )
    return n_slots, probes


@st.composite
def marking_configs(draw):
    return MarkingConfig(
        alpha=draw(st.floats(0.01, 0.5, allow_nan=False)),
        tau=draw(st.floats(0.001, 0.1, allow_nan=False)),
        owd_history=draw(st.integers(1, 8)),
        owd_statistic=draw(st.sampled_from(["mean", "max", "median"])),
        filter_uncorrelated_losses=draw(st.booleans()),
    )


@given(stream=probe_streams(), config=marking_configs())
@settings(max_examples=80, deadline=None)
def test_marking_scalar_vs_vectorized(stream, config):
    _n_slots, probes = stream
    scalar = CongestionMarker(config).mark(probes)
    batched = batch.mark_probe_arrays(batch.ProbeArrays.from_records(probes), config)
    slot_states = dict(zip([probe.slot for probe in probes], batched.states.tolist()))
    assert slot_states == scalar.slot_states
    assert batched.marked_by_loss == scalar.marked_by_loss
    assert batched.marked_by_delay == scalar.marked_by_delay
    assert batched.noise_losses == scalar.noise_losses
    assert batched.owd_max_estimates == scalar.owd_max_estimates


@given(
    stream=probe_streams(),
    config=marking_configs(),
    seed=st.integers(0, 2**16),
    p=st.floats(0.1, 1.0, allow_nan=False),
    improved=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_pipeline_counter_outcomes_coverage_match_scalar(
    stream, config, seed, p, improved
):
    n_slots, probes = stream
    schedule = GeometricSchedule(p, n_slots, random.Random(seed), improved=improved)

    marker = CongestionMarker(config)
    marked = marker.mark(probes)
    outcomes = schedule.outcomes_from_states(marked.slot_states)
    counter = count_patterns(outcomes)
    coverage = schedule.coverage_from_states(marked.slot_states)

    starts, lengths = batch.experiment_arrays(schedule.experiments)
    pipeline = batch.run_slot_pipeline(
        starts,
        lengths,
        batch.ProbeArrays.from_records(probes),
        marking=config,
    )
    assert pipeline.counter == counter
    assert (
        batch.materialize_outcomes(pipeline.starts, pipeline.keys, pipeline.valid)
        == outcomes
    )
    assert pipeline.coverage == coverage
    # The one counter serves both consumers identically.
    if counter.get("M", 0):
        assert_same_estimate(
            estimate_from_counter(counter, improved=improved),
            estimate_from_counter(pipeline.counter, improved=improved),
        )
    assert report_from_counter(pipeline.counter) == report_from_counter(counter)
    validator = SequentialValidator()
    validator.extend(outcomes)
    absorbed = SequentialValidator()
    absorbed.absorb_counter(pipeline.counter)
    assert absorbed.pattern_counter == validator.pattern_counter


def test_counter_from_histogram_covers_every_pattern():
    """One of each outcome key reconstructs exactly the scalar counter."""
    from repro.core.records import ExperimentOutcome

    outcomes = [
        ExperimentOutcome(i, bits)
        for i, bits in enumerate(
            [(a, b) for a in (0, 1) for b in (0, 1)]
            + [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        )
    ]
    starts = np.arange(len(outcomes), dtype=np.int64)
    lengths = np.array([len(o.bits) for o in outcomes], dtype=np.int64)
    dense = np.full(0, -1, dtype=np.int8)  # unused: keys built directly
    keys = np.array(
        [
            (len(o.bits) - 2) * 8
            + sum(bit << (len(o.bits) - 1 - i) for i, bit in enumerate(o.bits))
            for o in outcomes
        ],
        dtype=np.int64,
    )
    del dense, lengths
    histogram = batch.pattern_histogram(keys, np.ones(len(keys), dtype=bool))
    assert batch.counter_from_histogram(histogram) == count_patterns(outcomes)
    assert batch.materialize_outcomes(
        starts, keys, np.ones(len(keys), dtype=bool)
    ) == outcomes


# ---------------------------------------------------------------------------
# End to end: offline re-estimation against the scalar chain
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def episodic_measurement():
    from repro.io.traces import measurement_from_tool

    keep = {}
    run_badabing(
        "episodic_cbr",
        p=0.3,
        n_slots=1500,
        seed=6,
        improved=True,
        scenario_kwargs={"mean_spacing": 2.0},
        keep=keep,
    )
    return measurement_from_tool(keep["tool"], {"note": "batch"})


#: A Fig. 9-style (alpha, tau) grid.
GRID = [
    MarkingConfig(alpha=alpha, tau=tau)
    for alpha in (0.05, 0.1, 0.2)
    for tau in (0.04, 0.08)
]


def scalar_chain(measurement, marking=None):
    """The §6.1 → §5 reference, stage by stage."""
    marked = CongestionMarker(marking).mark(measurement.probes)
    outcomes = measurement.outcomes(marked.slot_states)
    coverage = coverage_report(measurement.experiments, marked.slot_states)
    return (
        marked,
        outcomes,
        coverage,
        estimate_from_outcomes(outcomes, coverage=coverage),
        validate_outcomes(outcomes, coverage=coverage),
    )


def test_trace_binary_roundtrip_and_vectorized_reestimate(
    tmp_path, episodic_measurement
):
    from repro.io import (
        load_measurement,
        load_measurement_binary,
        reestimate,
        save_measurement,
        save_measurement_binary,
    )
    from repro.io.traces import TraceWriter

    measurement = episodic_measurement
    jsonl = tmp_path / "trace.jsonl"
    packed = tmp_path / "trace.npz"
    save_measurement(jsonl, measurement)
    save_measurement_binary(packed, measurement)
    from_jsonl = load_measurement(jsonl)
    from_binary = load_measurement_binary(packed)
    assert from_binary.experiments == from_jsonl.experiments
    assert from_binary.probes == from_jsonl.probes
    assert from_binary.metadata == from_jsonl.metadata

    # One loaded measurement of each kind, re-marked over the whole grid:
    # every call after the first reuses the probe columns.
    for marking in [None, *GRID]:
        marked, outcomes, coverage, estimate, validation = scalar_chain(
            from_jsonl, marking
        )
        for loaded in (from_jsonl, from_binary):
            batched = reestimate(loaded, marking)
            assert_same_estimate(batched.estimate, estimate)
            assert batched.validation == validation
            assert batched.outcomes == outcomes
            assert batched.coverage == coverage
            assert batched.marking == marked

    # Batched writes produce byte-identical trace files.
    one_by_one = tmp_path / "a.jsonl"
    batched_path = tmp_path / "b.jsonl"
    args = (
        measurement.slot_width,
        measurement.n_slots,
        measurement.p,
        measurement.experiments,
        measurement.metadata,
    )
    with TraceWriter(one_by_one, *args) as writer:
        for probe in measurement.probes:
            writer.write_probe(probe)
    with TraceWriter(batched_path, *args) as writer:
        writer.write_probes(measurement.probes)
    assert filecmp.cmp(one_by_one, batched_path, shallow=False)


# ---------------------------------------------------------------------------
# The probe-column memo behind repeated reestimate calls
# ---------------------------------------------------------------------------


def assert_same_result(a, b):
    assert_same_estimate(a.estimate, b.estimate)
    assert a.validation == b.validation
    assert a.marking == b.marking
    assert a.probes == b.probes
    assert a.outcomes == b.outcomes
    assert a.n_probes_sent == b.n_probes_sent
    assert a.probe_load_bps == b.probe_load_bps
    assert a.coverage == b.coverage


def _swap_two_probes(m):
    m.probes[3], m.probes[4] = m.probes[4], m.probes[3]


def _replace_with_a_lost_probe(m):
    index = next(i for i, probe in enumerate(m.probes) if not probe.lost)
    m.probes[index] = dataclasses.replace(m.probes[index], owds=())


def _replace_with_an_equal_copy(m):
    probe = m.probes[10]
    m.probes[10] = ProbeRecord(
        probe.slot, probe.send_time, probe.n_packets, probe.owds,
        probe.owd_before_loss,
    )


def _append_a_probe(m):
    # A second, lost probe in the last probed slot: its state is the last
    # write, so the slot turns congested.
    last = m.probes[-1]
    m.probes.append(
        dataclasses.replace(last, send_time=last.send_time + 1e-3, owds=())
    )


def _truncate_the_probes(m):
    del m.probes[len(m.probes) // 2:]


def _replace_the_experiments(m):
    m.experiments = m.experiments[::2]


def _lower_n_slots_below_the_reach(m):
    m.n_slots = max(probe.slot for probe in m.probes)


@pytest.mark.parametrize(
    "change, error",
    [
        (_swap_two_probes, "sorted by send time"),
        (_replace_with_a_lost_probe, None),
        (_replace_with_an_equal_copy, None),
        (_append_a_probe, None),
        (_truncate_the_probes, None),
        (_replace_the_experiments, None),
        (_lower_n_slots_below_the_reach, "past its n_slots"),
    ],
    ids=["swap", "replace", "replace-equal", "append", "truncate",
         "experiments", "n_slots"],
)
def test_reestimate_after_a_change_matches_a_fresh_load(
    tmp_path, episodic_measurement, change, error
):
    """The memo is keyed by value: whatever changes between two calls on
    one measurement, the second result equals a fresh load's."""
    from repro.errors import ConfigurationError
    from repro.io import load_measurement, reestimate, save_measurement

    path = tmp_path / "trace.jsonl"
    save_measurement(path, episodic_measurement)
    measurement = load_measurement(path)
    marking = GRID[0]
    before = reestimate(measurement, marking)
    memo = measurement._columns
    change(measurement)
    save_measurement(path, measurement)
    fresh = load_measurement(path)
    if error is not None:
        with pytest.raises(ConfigurationError, match=error):
            reestimate(measurement, marking)
        with pytest.raises(ConfigurationError, match=error):
            reestimate(fresh, marking)
        return
    after = reestimate(measurement, marking)
    assert_same_result(after, reestimate(fresh, marking))
    if change is _replace_with_an_equal_copy:
        # Equal values, so the columns are still valid and kept.
        assert measurement._columns is memo
        assert_same_result(after, before)
    else:
        assert measurement._columns is not memo
        assert after.marking != before.marking or after.coverage != before.coverage


def test_reestimate_memo_is_read_only_and_private(tmp_path, episodic_measurement):
    from repro.io import load_measurement, reestimate, save_measurement

    path = tmp_path / "trace.jsonl"
    save_measurement(path, episodic_measurement)
    measurement = load_measurement(path)
    reestimate(measurement)
    memo = measurement._columns
    columns = [*vars(memo.arrays).values(), memo.starts, memo.lengths]
    assert len(columns) == 8
    for column in columns:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]
    # Not a dataclass field: no effect on ==, repr, asdict or replace, and
    # copies and pickles leave it behind.
    fresh = load_measurement(path)
    assert measurement == fresh
    assert repr(measurement) == repr(fresh)
    assert dataclasses.asdict(measurement) == dataclasses.asdict(fresh)
    assert "_columns" not in dataclasses.asdict(measurement)
    assert dataclasses.replace(measurement)._columns is None
    assert copy.copy(measurement)._columns is None
    assert copy.deepcopy(measurement)._columns is None
    assert pickle.loads(pickle.dumps(measurement))._columns is None
    assert measurement._columns is memo


# ---------------------------------------------------------------------------
# reestimate's outcomes and slot states: views built on first read
# ---------------------------------------------------------------------------


def test_reestimate_builds_outcomes_and_slot_states_on_first_read(
    tmp_path, episodic_measurement, monkeypatch
):
    from repro.io import load_measurement, reestimate, save_measurement

    built = []
    materialize = batch.materialize_outcomes

    def spy(*args):
        built.append(args)
        return materialize(*args)

    monkeypatch.setattr(batch, "materialize_outcomes", spy)
    path = tmp_path / "trace.jsonl"
    save_measurement(path, episodic_measurement)
    result = reestimate(load_measurement(path), GRID[0])
    outcomes = result.outcomes
    slot_states = result.marking.slot_states
    # Everything repro analyze and perfbench read, and the length.
    result.estimate, result.validation, result.frequency, result.duration_seconds
    assert result.coverage.usable_experiments == len(outcomes) > 0
    assert built == []
    assert slot_states._container is None

    first = outcomes[0]
    assert len(built) == 1
    assert list(outcomes)[0] is first
    assert outcomes[-1] is list(outcomes)[-1]
    assert len(built) == 1

    state = slot_states.get(first.start_slot)
    states = slot_states._container
    assert states is not None
    assert slot_states[first.start_slot] == state
    assert first.start_slot in slot_states
    assert slot_states._container is states


@pytest.mark.parametrize("container", ["jsonl", "npz"])
def test_reestimate_views_equal_the_scalar_chain_both_ways(
    tmp_path, episodic_measurement, container
):
    from repro import io

    save, load = {
        "jsonl": (io.save_measurement, io.load_measurement),
        "npz": (io.save_measurement_binary, io.load_measurement_binary),
    }[container]
    path = tmp_path / f"trace.{container}"
    save(path, episodic_measurement)
    loaded = load(path)
    marking = GRID[2]
    marked, outcomes, _coverage, _estimate, _validation = scalar_chain(
        loaded, marking
    )

    # A fresh result for each comparison, so that each compares an
    # unbuilt view from its own side.
    assert outcomes == io.reestimate(loaded, marking).outcomes
    assert io.reestimate(loaded, marking).outcomes == outcomes
    assert marked.slot_states == io.reestimate(loaded, marking).marking.slot_states
    assert io.reestimate(loaded, marking).marking.slot_states == marked.slot_states
    result = io.reestimate(loaded, marking)
    assert not outcomes != result.outcomes
    assert outcomes[:-1] != result.outcomes
    assert result.outcomes != outcomes[1:]
    changed = dict(marked.slot_states)
    changed[outcomes[0].start_slot] = not changed[outcomes[0].start_slot]
    assert changed != result.marking.slot_states
    assert result.marking.slot_states != changed
    assert repr(result.outcomes) == repr(outcomes)
    assert repr(result.marking.slot_states) == repr(marked.slot_states)
    assert dict(result.marking.slot_states.items()) == marked.slot_states
    assert len(result.marking.slot_states) == len(marked.slot_states)


def test_reestimate_views_slice_get_copy_and_pickle(tmp_path, episodic_measurement):
    from repro.io import load_measurement, reestimate, save_measurement

    path = tmp_path / "trace.jsonl"
    save_measurement(path, episodic_measurement)
    loaded = load_measurement(path)
    marked, outcomes, *_ = scalar_chain(loaded, GRID[0])
    result = reestimate(loaded, GRID[0])

    # Copies of unbuilt views, then of built ones.
    copies = [pickle.loads(pickle.dumps(result)), copy.deepcopy(result)]
    assert result.outcomes[3:9] == outcomes[3:9]
    assert result.outcomes[::-5] == outcomes[::-5]
    assert result.outcomes[-1] == outcomes[-1]
    slot_states = result.marking.slot_states
    missing = loaded.n_slots
    assert missing not in marked.slot_states
    assert slot_states.get(missing) is None
    assert slot_states.get(missing, False) is False
    assert missing not in slot_states
    with pytest.raises(KeyError):
        slot_states[missing]
    copies += [pickle.loads(pickle.dumps(result)), copy.deepcopy(result)]
    for copied in copies:
        assert copied.outcomes == outcomes
        assert copied.marking.slot_states == marked.slot_states
        assert_same_result(copied, result)
