"""Tests for the §6.1 loss + delay congestion marking."""

import pytest

from repro.config import MarkingConfig
from repro.core.marking import CongestionMarker, MarkingResult, _nearest_distance
from repro.core.records import ProbeRecord
from repro.errors import ConfigurationError


def probe(slot, send_time, owds, n_packets=3, owd_before_loss=None):
    return ProbeRecord(
        slot=slot,
        send_time=send_time,
        n_packets=n_packets,
        owds=tuple(owds),
        owd_before_loss=owd_before_loss,
    )


BASE = 0.0503  # one-way propagation floor in the scaled testbed
FULL = BASE + 0.100  # propagation + full queue


def test_lost_probe_always_marked():
    marker = CongestionMarker(MarkingConfig(alpha=0.1, tau=0.05))
    probes = [probe(0, 0.000, [BASE, BASE], owd_before_loss=FULL)]
    result = marker.mark(probes)
    assert result.slot_states == {0: True}
    assert result.marked_by_loss == 1


def test_high_delay_near_loss_marked():
    marker = CongestionMarker(MarkingConfig(alpha=0.1, tau=0.05))
    probes = [
        probe(0, 0.000, [FULL, FULL], owd_before_loss=FULL),  # lost
        probe(2, 0.010, [FULL - 0.002] * 3),  # near loss, delay ~ max
    ]
    result = marker.mark(probes)
    assert result.slot_states[2] is True
    assert result.marked_by_delay == 1


def test_high_delay_far_from_loss_not_marked():
    marker = CongestionMarker(MarkingConfig(alpha=0.1, tau=0.05))
    probes = [
        probe(0, 0.000, [FULL, FULL], owd_before_loss=FULL),
        probe(40, 0.200, [FULL - 0.002] * 3),  # same delay but 200 ms away
    ]
    result = marker.mark(probes)
    assert result.slot_states[40] is False


def test_low_delay_near_loss_not_marked():
    marker = CongestionMarker(MarkingConfig(alpha=0.1, tau=0.05))
    probes = [
        probe(0, 0.000, [FULL, FULL], owd_before_loss=FULL),
        probe(2, 0.010, [BASE] * 3),  # near the loss but queue empty
    ]
    result = marker.mark(probes)
    assert result.slot_states[2] is False


def test_delay_rule_works_before_the_loss_too():
    # "delimited by probes within tau seconds of an indication of a lost
    # packet" is symmetric in time.
    marker = CongestionMarker(MarkingConfig(alpha=0.1, tau=0.05))
    probes = [
        probe(0, 0.000, [FULL - 0.001] * 3),  # high delay, loss comes later
        probe(2, 0.010, [FULL, FULL], owd_before_loss=FULL),
    ]
    result = marker.mark(probes)
    assert result.slot_states[0] is True


def test_threshold_uses_mean_owd_history():
    cfg = MarkingConfig(alpha=0.1, tau=0.05, owd_history=2)
    marker = CongestionMarker(cfg)
    probes = [
        probe(0, 0.000, [BASE], owd_before_loss=FULL),
        probe(10, 0.050, [BASE], owd_before_loss=FULL + 0.02),
        # Threshold now (1-0.1) * mean(FULL, FULL+0.02) = 0.9 * 0.1603.
        probe(12, 0.060, [0.9 * (FULL + 0.01) + 0.001] * 3),
    ]
    result = marker.mark(probes)
    assert result.slot_states[12] is True
    assert result.owd_max_estimates == [FULL, FULL + 0.02]


def test_no_loss_anywhere_means_nothing_marked():
    marker = CongestionMarker()
    probes = [probe(i, i * 0.01, [FULL - 0.001] * 3) for i in range(5)]
    result = marker.mark(probes)
    assert not any(result.slot_states.values())
    assert result.marked == 0


def test_fallback_to_last_success_across_probes():
    # A fully lost probe with no owd_before_loss uses the latest delivery
    # seen in earlier probes as the OWD_max estimate.
    marker = CongestionMarker(MarkingConfig(alpha=0.1, tau=0.05))
    probes = [
        probe(0, 0.000, [FULL - 0.001] * 3),
        probe(2, 0.010, [], owd_before_loss=None),  # all packets lost
        probe(4, 0.020, [FULL - 0.002] * 3),
    ]
    result = marker.mark(probes)
    assert result.owd_max_estimates == [FULL - 0.001]
    assert result.slot_states[4] is True  # near loss + above threshold


def test_unsorted_probes_rejected():
    marker = CongestionMarker()
    probes = [probe(2, 0.010, [BASE]), probe(0, 0.000, [BASE])]
    with pytest.raises(ConfigurationError):
        marker.mark(probes)


def test_empty_input_gives_empty_result():
    result = CongestionMarker().mark([])
    assert isinstance(result, MarkingResult)
    assert result.slot_states == {}


def test_nearest_distance():
    times = [1.0, 5.0, 9.0]
    assert _nearest_distance(times, 1.0) == 0.0
    assert _nearest_distance(times, 2.9) == pytest.approx(1.9)
    assert _nearest_distance(times, 7.5) == pytest.approx(1.5)
    assert _nearest_distance(times, 20.0) == pytest.approx(11.0)


def test_marking_config_validation():
    with pytest.raises(ConfigurationError):
        MarkingConfig(alpha=0.0)
    with pytest.raises(ConfigurationError):
        MarkingConfig(alpha=1.0)
    with pytest.raises(ConfigurationError):
        MarkingConfig(tau=-0.01)
    with pytest.raises(ConfigurationError):
        MarkingConfig(owd_history=0)


def test_alpha_controls_permissiveness():
    loose = CongestionMarker(MarkingConfig(alpha=0.3, tau=0.05))
    tight = CongestionMarker(MarkingConfig(alpha=0.02, tau=0.05))
    probes = [
        probe(0, 0.000, [FULL], owd_before_loss=FULL),
        probe(2, 0.010, [0.8 * FULL] * 3),  # 80% of max delay
    ]
    assert loose.mark(probes).slot_states[2] is True
    assert tight.mark(probes).slot_states[2] is False


def test_owd_statistic_variants():
    cfg_max = MarkingConfig(alpha=0.1, tau=0.05, owd_statistic="max", owd_history=4)
    marker = CongestionMarker(cfg_max)
    probes = [
        probe(0, 0.000, [BASE], owd_before_loss=FULL - 0.05),
        probe(2, 0.010, [BASE], owd_before_loss=FULL),
        # Max-of-history threshold = 0.9*FULL; mean would be lower.
        probe(4, 0.020, [0.9 * FULL - 0.001] * 3),
    ]
    assert marker.mark(probes).slot_states[4] is False
    cfg_mean = MarkingConfig(alpha=0.1, tau=0.05, owd_statistic="mean", owd_history=4)
    assert CongestionMarker(cfg_mean).mark(probes).slot_states[4] is True


def test_median_statistic_is_order_statistic():
    cfg = MarkingConfig(alpha=0.1, tau=0.05, owd_statistic="median", owd_history=8)
    marker = CongestionMarker(cfg)
    probes = [
        probe(0, 0.00, [BASE], owd_before_loss=0.10),
        probe(2, 0.01, [BASE], owd_before_loss=0.10),
        probe(4, 0.02, [BASE], owd_before_loss=0.30),  # outlier
        # Median of {0.10, 0.10, 0.30} = 0.10; threshold 0.09.
        probe(6, 0.03, [0.095] * 3),
    ]
    assert marker.mark(probes).slot_states[6] is True


def test_invalid_statistic_rejected():
    with pytest.raises(ConfigurationError):
        MarkingConfig(owd_statistic="p99")


def test_noise_loss_filter_reclassifies_floor_losses():
    cfg = MarkingConfig(alpha=0.1, tau=0.05, filter_uncorrelated_losses=True)
    marker = CongestionMarker(cfg)
    probes = [
        # Establish the congestion threshold with a real full-queue loss.
        probe(0, 0.000, [FULL, FULL], owd_before_loss=FULL),
        # A later loss at floor delay: end-host noise, not congestion.
        probe(40, 0.200, [BASE, BASE], owd_before_loss=BASE),
        # Its neighbour at floor delay must not be delay-marked either.
        probe(42, 0.210, [BASE] * 3),
    ]
    result = marker.mark(probes)
    assert result.slot_states[0] is True
    assert result.slot_states[40] is False
    assert result.slot_states[42] is False
    assert result.noise_losses == 1
    # The noise estimate never entered the OWD_max history.
    assert result.owd_max_estimates == [FULL]


def test_noise_filter_off_by_default():
    marker = CongestionMarker(MarkingConfig(alpha=0.1, tau=0.05))
    probes = [
        probe(0, 0.000, [FULL, FULL], owd_before_loss=FULL),
        probe(40, 0.200, [BASE, BASE], owd_before_loss=BASE),
    ]
    result = marker.mark(probes)
    assert result.slot_states[40] is True  # paper behaviour: loss marks
    assert result.noise_losses == 0


def test_noise_verdict_is_per_probe_in_a_repeated_slot():
    # Slot 2 is probed twice: a loss at floor delay (noise), then a probe
    # lost whole whose OWD before the loss is full-queue delay. Each loss is
    # judged on its own, and the slot keeps its last probe's state.
    cfg = MarkingConfig(alpha=0.1, tau=0.05, filter_uncorrelated_losses=True)
    probes = [
        probe(0, 0.000, [FULL, FULL], owd_before_loss=FULL),
        probe(2, 0.010, [BASE, BASE], owd_before_loss=BASE),
        probe(2, 0.012, [], owd_before_loss=FULL),
        probe(4, 0.020, [FULL - 0.002] * 3),
    ]
    result = CongestionMarker(cfg).mark(probes)
    assert result.slot_states == {0: True, 2: True, 4: True}
    assert (result.marked_by_loss, result.marked_by_delay) == (2, 1)
    assert result.noise_losses == 1


def test_noise_filter_keeps_real_losses():
    # A loss with full-queue delay evidence stays a congestion loss even
    # with the filter on.
    cfg = MarkingConfig(alpha=0.1, tau=0.05, filter_uncorrelated_losses=True)
    marker = CongestionMarker(cfg)
    probes = [
        probe(0, 0.000, [FULL - 0.002], owd_before_loss=FULL),
        probe(2, 0.010, [FULL, FULL], owd_before_loss=FULL),
    ]
    result = marker.mark(probes)
    assert result.slot_states[2] is True
    assert result.noise_losses == 0
