"""Tests for measurement trace persistence and offline re-analysis."""

import dataclasses
import json
import math

import pytest

from repro.config import BadabingConfig, MarkingConfig
from repro.core.badabing import BadabingTool
from repro.errors import ConfigurationError
from repro.experiments.runner import DRAIN_TIME, apply_scenario, build_testbed
from repro.io import Measurement, load_measurement, reestimate, save_measurement
from repro.io.traces import measurement_from_tool


@pytest.fixture(scope="module")
def finished_tool():
    sim, testbed = build_testbed(seed=9)
    apply_scenario(
        sim, testbed, "episodic_cbr",
        episode_durations=(0.068,), mean_spacing=3.0,
    )
    config = BadabingConfig(p=0.5, n_slots=12_000)
    tool = BadabingTool(
        sim, testbed.probe_sender, testbed.probe_receiver, config, start=2.0
    )
    sim.run(until=tool.end_time + DRAIN_TIME)
    return tool


def test_round_trip_preserves_everything(finished_tool, tmp_path):
    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool, metadata={"scenario": "cbr"})
    loaded = load_measurement(path)
    original = measurement_from_tool(finished_tool)
    assert loaded.slot_width == original.slot_width
    assert loaded.n_slots == original.n_slots
    assert loaded.p == original.p
    assert loaded.experiments == original.experiments
    assert loaded.probes == original.probes
    assert loaded.metadata["scenario"] == "cbr"


def test_offline_reestimate_matches_live_result(finished_tool, tmp_path):
    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool)
    live = finished_tool.result()
    offline = reestimate(
        load_measurement(path), marking=finished_tool.config.marking
    )
    assert offline.frequency == live.frequency
    assert offline.outcomes == live.outcomes
    assert offline.estimate.counts == live.estimate.counts


def test_offline_remarking_changes_results(finished_tool, tmp_path):
    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool)
    measurement = load_measurement(path)
    strict = reestimate(measurement, marking=MarkingConfig(alpha=0.02, tau=0.005))
    loose = reestimate(measurement, marking=MarkingConfig(alpha=0.3, tau=0.120))
    assert loose.frequency >= strict.frequency


def test_header_is_first_line_json(finished_tool, tmp_path):
    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool)
    with open(path) as handle:
        header = json.loads(handle.readline())
    assert header["type"] == "badabing-trace"
    assert header["version"] == 1
    assert header["n_slots"] == 12_000


def test_load_rejects_wrong_type(tmp_path):
    path = tmp_path / "bogus.jsonl"
    path.write_text('{"type": "something-else"}\n')
    with pytest.raises(ConfigurationError):
        load_measurement(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ConfigurationError):
        load_measurement(path)


def test_load_rejects_future_version(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text('{"type": "badabing-trace", "version": 99}\n')
    with pytest.raises(ConfigurationError):
        load_measurement(path)


def test_probe_size_metadata_drives_load_accounting(finished_tool, tmp_path):
    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool, metadata={"probe_size": 1200})
    doubled = reestimate(load_measurement(path))
    save_measurement(path, finished_tool, metadata={"probe_size": 600})
    nominal = reestimate(load_measurement(path))
    assert doubled.probe_load_bps == pytest.approx(2 * nominal.probe_load_bps)


def test_measurement_outcomes_skip_unmarked_slots(finished_tool):
    measurement = measurement_from_tool(finished_tool)
    # Provide states for nothing: no outcomes can be assembled.
    assert measurement.outcomes({}) == []


def _swap_two_probes(measurement):
    probes = measurement.probes
    probes[3], probes[4] = probes[4], probes[3]


def _probe_past_window(measurement):
    last = measurement.probes[-1]
    measurement.probes[-1] = dataclasses.replace(last, slot=10**12)


def _probe_past_int64(measurement):
    last = measurement.probes[-1]
    measurement.probes[-1] = dataclasses.replace(last, slot=2**63)


def _probe_count_past_int64(measurement):
    last = measurement.probes[-1]
    measurement.probes[-1] = dataclasses.replace(last, n_packets=2**63 + 5)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_swap_two_probes, "sorted by send time"),
        (_probe_past_window, "past its n_slots"),
        (_probe_past_int64, "past its n_slots"),
        (_probe_count_past_int64, "does not fit an int64"),
    ],
    ids=["out-of-order", "slot-past-window", "slot-past-int64", "count-past-int64"],
)
def test_malformed_trace_is_rejected(
    finished_tool, tmp_path, capsys, corrupt, message
):
    from repro.cli import main

    measurement = measurement_from_tool(finished_tool)
    corrupt(measurement)
    path = tmp_path / "malformed.jsonl"
    save_measurement(path, measurement)
    with pytest.raises(ConfigurationError, match=message):
        reestimate(load_measurement(path))
    assert main(["analyze", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_save_measurement_object_directly(finished_tool, tmp_path):
    measurement = measurement_from_tool(finished_tool, metadata={"a": 1})
    path = tmp_path / "direct.jsonl"
    save_measurement(path, measurement, metadata={"b": 2})
    loaded = load_measurement(path)
    assert loaded.metadata == {"a": 1, "b": 2}


# ---------------------------------------------------------------------------
# Corrupt traces: TraceFormatError + recovery mode
# ---------------------------------------------------------------------------

def _corrupt_lines(path, line_numbers, replacement="{not json !!\n"):
    """Overwrite the given 1-based lines of a JSONL file."""
    lines = open(path).readlines()
    for number in line_numbers:
        lines[number - 1] = replacement
    with open(path, "w") as handle:
        handle.writelines(lines)


def test_corrupt_probe_line_raises_trace_format_error(finished_tool, tmp_path):
    from repro.errors import TraceFormatError

    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool)
    _corrupt_lines(path, [3])
    with pytest.raises(TraceFormatError) as excinfo:
        load_measurement(path)
    assert excinfo.value.line_number == 3
    assert "line 3" in str(excinfo.value)
    # and it is catchable as the legacy ConfigurationError
    with pytest.raises(ConfigurationError):
        load_measurement(path)


def test_probe_line_with_trailing_data_is_corrupt(finished_tool, tmp_path):
    from repro.errors import TraceFormatError

    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool)
    line = open(path).readlines()[2].rstrip("\n")
    _corrupt_lines(path, [3], line + " {}\n")
    with pytest.raises(TraceFormatError, match="Extra data") as excinfo:
        load_measurement(path)
    assert excinfo.value.line_number == 3


def test_missing_field_raises_trace_format_error_not_key_error(
    finished_tool, tmp_path
):
    from repro.errors import TraceFormatError

    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool)
    _corrupt_lines(path, [2], '{"slot": 1, "t": 0.5}\n')  # missing n/owds/obl
    with pytest.raises(TraceFormatError) as excinfo:
        load_measurement(path)
    assert excinfo.value.line_number == 2


def test_recovery_mode_skips_corrupt_lines_with_diagnostics(
    finished_tool, tmp_path
):
    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool)
    total_probes = len(measurement_from_tool(finished_tool).probes)
    assert total_probes > 4
    _corrupt_lines(path, [3])
    _corrupt_lines(path, [5], '{"slot": 2, "t": 1.0}\n')
    loaded = load_measurement(path, recover=True)
    assert len(loaded.probes) == total_probes - 2
    assert [diag.line_number for diag in loaded.diagnostics] == [3, 5]
    assert all(diag.reason for diag in loaded.diagnostics)
    assert all(diag.snippet for diag in loaded.diagnostics)


def test_recovered_trace_reestimates_with_degraded_coverage(
    finished_tool, tmp_path
):
    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool)
    _corrupt_lines(path, [2])
    loaded = load_measurement(path, recover=True)
    result = reestimate(loaded, marking=finished_tool.config.marking)
    assert result.coverage is not None
    assert result.coverage.usable_slots <= result.coverage.scheduled_slots
    full = reestimate(load_measurement_clean(finished_tool, tmp_path))
    assert result.coverage.usable_slots <= full.coverage.usable_slots


def load_measurement_clean(finished_tool, tmp_path):
    path = tmp_path / "clean.jsonl"
    save_measurement(path, finished_tool)
    return load_measurement(path)


def test_missing_trace_file_raises_trace_format_error(tmp_path):
    from repro.errors import TraceFormatError

    with pytest.raises(TraceFormatError) as excinfo:
        load_measurement(tmp_path / "no-such-trace.jsonl")
    assert "cannot read trace" in str(excinfo.value)


def test_recovery_does_not_hide_header_corruption(tmp_path):
    from repro.errors import TraceFormatError

    path = tmp_path / "bad-header.jsonl"
    path.write_text("not json at all\n")
    with pytest.raises(TraceFormatError) as excinfo:
        load_measurement(path, recover=True)
    assert excinfo.value.line_number == 1


def test_clean_trace_loads_identically_in_recovery_mode(finished_tool, tmp_path):
    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool)
    strict = load_measurement(path)
    recovered = load_measurement(path, recover=True)
    assert recovered.probes == strict.probes
    assert recovered.experiments == strict.experiments
    assert recovered.diagnostics == []


def test_reestimate_attaches_full_coverage_on_clean_trace(finished_tool, tmp_path):
    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool)
    result = reestimate(load_measurement(path), marking=finished_tool.config.marking)
    assert result.coverage is not None
    assert result.coverage.complete
    assert result.estimate.coverage is result.coverage
    assert result.validation.coverage is result.coverage


@pytest.mark.parametrize(
    "field, value",
    [
        ("slot", 1.5),
        ("t", math.nan),
        ("n", math.nan),
        ("slot", math.nan),
        ("slot", True),
        ("owds", [0.01, math.inf]),
        ("obl", math.nan),
        ("t", 10**400),
        ("owds", [0.01, -(10**400)]),
        ("obl", 10**400),
        ("t", True),
        ("owds", [0.01, True]),
        ("obl", False),
        ("owds", ""),
        ("owds", {}),
    ],
    ids=["fractional-slot", "nan-t", "nan-n", "nan-slot", "bool-slot", "inf-owd",
         "nan-obl", "huge-int-t", "huge-int-owd", "huge-int-obl", "bool-t",
         "bool-owd", "bool-obl", "string-owds", "object-owds"],
)
def test_non_integer_or_non_finite_probe_field_is_corrupt(
    finished_tool, tmp_path, capsys, field, value
):
    # The batch stages would truncate a fractional slot (moving F-hat), let
    # a NaN send time past the sort check, or crash on the int64 cast.
    from repro.cli import main
    from repro.errors import TraceFormatError

    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool)
    lines = open(path).readlines()
    record = json.loads(lines[2])
    record[field] = value
    _corrupt_lines(path, [3], json.dumps(record) + "\n")
    with pytest.raises(TraceFormatError) as excinfo:
        load_measurement(path)
    assert excinfo.value.line_number == 3
    recovered = load_measurement(path, recover=True)
    assert [diag.line_number for diag in recovered.diagnostics] == [3]
    assert len(recovered.probes) == len(lines) - 2
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 3" in err



@pytest.mark.parametrize(
    "experiment",
    [[0.5, 2], [1, 2.0], [True, 2]],
    ids=["fractional-start", "float-length", "bool-start"],
)
def test_non_integer_header_experiment_is_rejected(
    finished_tool, tmp_path, capsys, experiment
):
    # The batch stages would truncate a fractional start to its slot and
    # re-estimate without error.
    from repro.cli import main
    from repro.errors import TraceFormatError

    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool)
    header = json.loads(open(path).readline())
    header["experiments"][0] = experiment
    _corrupt_lines(path, [1], json.dumps(header) + "\n")
    with pytest.raises(TraceFormatError) as excinfo:
        load_measurement(path)
    assert excinfo.value.line_number == 1
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _header_field(name, value):
    def change(header):
        header[name] = value

    return change


def _probe_size(value):
    def change(header):
        header["metadata"]["probe_size"] = value

    return change


@pytest.mark.parametrize(
    "change, field",
    [
        (_header_field("slot_width", -0.005), "slot_width"),
        (_header_field("slot_width", 0), "slot_width"),
        (_header_field("slot_width", math.nan), "slot_width"),
        (_header_field("slot_width", math.inf), "slot_width"),
        (_header_field("slot_width", "0.005"), "slot_width"),
        (_header_field("n_slots", "40000"), "n_slots"),
        (_header_field("n_slots", 12_000.0), "n_slots"),
        (_header_field("n_slots", True), "n_slots"),
        (_header_field("n_slots", 1), "n_slots"),
        (_header_field("p", math.nan), "p must"),
        (_header_field("p", 7), "p must"),
        (_header_field("p", 0), "p must"),
        (_probe_size("big"), "probe_size"),
        (_probe_size(-600), "probe_size"),
        (_probe_size(None), "probe_size"),
        (_header_field("metadata", ["probe_size", 600]), "metadata"),
    ],
    ids=["negative-slot-width", "zero-slot-width", "nan-slot-width",
         "inf-slot-width", "string-slot-width", "string-n-slots",
         "float-n-slots", "bool-n-slots", "one-slot", "nan-p", "p-above-one",
         "zero-p", "string-probe-size", "negative-probe-size",
         "null-probe-size", "list-metadata"],
)
def test_header_outside_the_config_bounds_is_rejected(
    finished_tool, tmp_path, capsys, change, field
):
    # Each used to load: a negative or nan slot width gave a negative or
    # nan D-hat, p nan or 7 passed silently, a negative probe_size gave a
    # negative probe load, and a string n_slots or probe_size ended analyze
    # in a raw TypeError or ValueError traceback.
    import numpy as np

    from repro.cli import main
    from repro.errors import TraceFormatError
    from repro.io import load_measurement_binary, save_measurement_binary

    path = tmp_path / "trace.jsonl"
    save_measurement(path, finished_tool, metadata={"probe_size": 600})
    header = json.loads(open(path).readline())
    change(header)
    _corrupt_lines(path, [1], json.dumps(header) + "\n")
    for recover in (False, True):
        with pytest.raises(TraceFormatError, match=field) as excinfo:
            load_measurement(path, recover=recover)
        assert excinfo.value.line_number == 1
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "malformed header" in err

    packed = tmp_path / "trace.npz"
    save_measurement_binary(packed, finished_tool, metadata={"probe_size": 600})
    with np.load(packed) as archive:
        arrays = {key: archive[key] for key in archive.files}
    header = json.loads(bytes(arrays["header"]).decode("utf-8"))
    change(header)
    arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), np.uint8)
    with open(packed, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    with pytest.raises(TraceFormatError, match="malformed binary trace header"):
        load_measurement_binary(packed)


def test_binary_trace_header_that_is_not_an_object_is_rejected(
    finished_tool, tmp_path
):
    import numpy as np

    from repro.errors import TraceFormatError
    from repro.io import load_measurement_binary, save_measurement_binary

    path = tmp_path / "trace.npz"
    save_measurement_binary(path, finished_tool)
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays["header"] = np.frombuffer(b"[1, 2]", np.uint8)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    with pytest.raises(TraceFormatError, match="not a badabing-trace-npz"):
        load_measurement_binary(path)


def _set_entry(index, value, dtype=None):
    def change(column):
        column = column.astype(dtype or column.dtype)
        column[index] = value
        return column

    return change


@pytest.mark.parametrize(
    "name, change, message",
    [
        ("send_time", _set_entry(5, math.nan), "finite"),
        ("owds_flat", _set_entry(5, math.inf), "finite"),
        ("owd_before_loss", _set_entry(5, -math.inf), "finite"),
        ("exp_start", _set_entry(0, 0.5, float), "integers"),
        ("exp_length", lambda column: column.astype(bool), "integers"),
        ("slot", _set_entry(0, 1.5, float), "integers"),
    ],
    ids=["nan-send-time", "inf-owd", "inf-obl", "fractional-exp-start",
         "bool-exp-length", "fractional-slot"],
)
def test_binary_trace_column_with_bad_value_is_rejected(
    finished_tool, tmp_path, name, change, message
):
    # The JSONL loader refuses these per line; at the NPZ boundary a NaN
    # send time passed the sort check and re-estimation returned an F-hat.
    import numpy as np

    from repro.errors import TraceFormatError
    from repro.io import load_measurement_binary, save_measurement_binary

    path = tmp_path / "trace.npz"
    save_measurement_binary(path, finished_tool)
    assert load_measurement_binary(path).probes
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays[name] = change(arrays[name])
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    with pytest.raises(TraceFormatError, match=message):
        load_measurement_binary(path)
