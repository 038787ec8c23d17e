"""Tests for configuration dataclasses."""

import math

import pytest

from repro.config import BadabingConfig, MarkingConfig, ProbeConfig, TestbedConfig
from repro.errors import ConfigurationError
from repro.units import mbps, ms


def test_testbed_defaults_keep_paper_time_scales():
    config = TestbedConfig()
    assert config.buffer_time == pytest.approx(ms(100))
    assert config.prop_delay == pytest.approx(ms(50))
    assert config.base_rtt == pytest.approx(0.1004)
    assert config.mtu == 1500


def test_buffer_bytes_scales_with_rate():
    slow = TestbedConfig(bottleneck_bps=mbps(12), access_bps=mbps(120))
    fast = TestbedConfig(bottleneck_bps=mbps(155), access_bps=mbps(1000))
    assert slow.buffer_bytes == 150_000
    assert fast.buffer_bytes == int(0.1 * 155e6 / 8)


def test_probe_config_defaults_match_paper():
    probe = ProbeConfig()
    assert probe.slot == pytest.approx(0.005)
    assert probe.probe_size == 600
    assert probe.packets_per_probe == 3
    assert probe.intra_probe_gap == pytest.approx(30e-6)


def test_probe_train_must_fit_in_slot():
    with pytest.raises(ConfigurationError):
        ProbeConfig(packets_per_probe=200, intra_probe_gap=0.0001)


def test_probe_config_validation():
    with pytest.raises(ConfigurationError):
        ProbeConfig(slot=0)
    with pytest.raises(ConfigurationError):
        ProbeConfig(probe_size=0)
    with pytest.raises(ConfigurationError):
        ProbeConfig(packets_per_probe=0)
    with pytest.raises(ConfigurationError):
        ProbeConfig(intra_probe_gap=-1e-6)


def test_badabing_duration():
    config = BadabingConfig(p=0.3, n_slots=180_000)
    assert config.duration == pytest.approx(900.0)


def test_badabing_validation():
    with pytest.raises(ConfigurationError):
        BadabingConfig(p=0.0)
    with pytest.raises(ConfigurationError):
        BadabingConfig(p=1.0001)
    with pytest.raises(ConfigurationError):
        BadabingConfig(n_slots=1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("prop_delay", math.nan),
        ("access_delay", math.nan),
        ("buffer_time", math.nan),
        ("bottleneck_bps", math.nan),
        ("access_bps", math.nan),
        ("prop_delay", -0.001),
        ("access_delay", -0.001),
    ],
)
def test_testbed_rejects_nan_and_negative_inputs(field, value):
    with pytest.raises(ConfigurationError):
        TestbedConfig(**{field: value})


@pytest.mark.parametrize("tau", [math.nan, -0.01])
def test_marking_rejects_nan_or_negative_tau(tau):
    # A NaN tau would make every `distance <= tau` test false and silently
    # switch the §6.1 proximity rule off.
    with pytest.raises(ConfigurationError):
        MarkingConfig(tau=tau)


def test_marking_defaults():
    marking = MarkingConfig()
    assert marking.alpha == 0.1
    assert marking.tau == pytest.approx(0.080)
    assert marking.owd_history == 16


@pytest.mark.parametrize(
    "field, value",
    [
        ("slot", math.nan),
        ("slot", math.inf),
        ("probe_size", math.nan),
        ("intra_probe_gap", math.nan),
    ],
)
def test_probe_config_rejects_nan_and_infinite_slot(field, value):
    # NaN passes `x <= 0`; an infinite slot overflows every schedule time.
    with pytest.raises(ConfigurationError):
        ProbeConfig(**{field: value})
