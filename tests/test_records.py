"""Tests for probe records and experiment outcomes."""

import pytest

from repro.core.records import ExperimentOutcome, MeasurementLog, ProbeRecord
from repro.errors import ConfigurationError


def test_probe_record_loss_accounting():
    probe = ProbeRecord(slot=10, send_time=0.05, n_packets=3, owds=(0.1, 0.11))
    assert probe.lost_packets == 1
    assert probe.lost
    assert probe.max_owd == pytest.approx(0.11)


def test_probe_record_all_received():
    probe = ProbeRecord(slot=0, send_time=0.0, n_packets=3, owds=(0.1, 0.1, 0.1))
    assert not probe.lost
    assert probe.lost_packets == 0


def test_probe_record_all_lost():
    probe = ProbeRecord(slot=0, send_time=0.0, n_packets=3, owds=())
    assert probe.lost_packets == 3
    assert probe.max_owd is None


def test_probe_record_validation():
    with pytest.raises(ConfigurationError):
        ProbeRecord(slot=0, send_time=0.0, n_packets=0, owds=())
    with pytest.raises(ConfigurationError):
        ProbeRecord(slot=0, send_time=0.0, n_packets=1, owds=(0.1, 0.2))


def test_outcome_string_and_bits():
    outcome = ExperimentOutcome(7, (0, 1))
    assert outcome.as_string == "01"
    assert outcome.first_bit == 0
    assert outcome.is_basic
    assert not outcome.is_extended
    extended = ExperimentOutcome(9, (1, 1, 0))
    assert extended.as_string == "110"
    assert extended.is_extended
    assert extended.first_bit == 1


def test_outcome_validation():
    with pytest.raises(ConfigurationError):
        ExperimentOutcome(0, (1,))
    with pytest.raises(ConfigurationError):
        ExperimentOutcome(0, (1, 0, 1, 0))
    with pytest.raises(ConfigurationError):
        ExperimentOutcome(0, (0, 2))
    # A list of legal bits is refused up front: it would make hash() and
    # as_string raise TypeError later.
    with pytest.raises(ConfigurationError, match="tuple"):
        ExperimentOutcome(0, [0, 1])
    with pytest.raises(ConfigurationError):
        ExperimentOutcome(0, ([0], 1))


def test_outcomes_are_hashable_value_objects():
    assert ExperimentOutcome(1, (0, 1)) == ExperimentOutcome(1, (0, 1))
    assert len({ExperimentOutcome(1, (0, 1)), ExperimentOutcome(1, (0, 1))}) == 1


def test_measurement_log_defaults():
    log = MeasurementLog(slot_width=0.005, n_slots=100)
    assert log.probes == []
    assert log.outcomes == []
    assert log.blind_slots == 0
