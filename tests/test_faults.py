"""Tests for the fault-injection subsystem and graceful degradation."""

import math

import pytest

from repro.core.records import CoverageReport
from repro.errors import EstimationError, FaultInjectionError, SimulationError
from repro.experiments.runner import install_faults, run_badabing
from repro.net.faults import (
    FAULT_PROFILES,
    FaultInjector,
    FaultProfile,
    resolve_fault_profile,
)
from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import Packet
from repro.net.simulator import Simulator

RUN_KWARGS = dict(
    scenario="episodic_cbr",
    p=0.3,
    n_slots=1500,
    seed=3,
    warmup=2.0,
    scenario_kwargs={"mean_spacing": 2.0},
)


def _packet(n=0):
    return Packet(src="a", dst="b", size=100, protocol="t", port=n)


# ---------------------------------------------------------------------------
# FaultProfile validation and composition
# ---------------------------------------------------------------------------

def test_profile_rejects_bad_probabilities():
    with pytest.raises(FaultInjectionError):
        FaultProfile(drop_probability=1.5)
    with pytest.raises(FaultInjectionError):
        FaultProfile(duplicate_probability=-0.1)


def test_profile_rejects_half_configured_gilbert_and_flap():
    with pytest.raises(FaultInjectionError):
        FaultProfile(gilbert_b=0.1)
    with pytest.raises(FaultInjectionError):
        FaultProfile(flap_down=1.0)


def test_profile_rejects_inverted_outage_window():
    with pytest.raises(FaultInjectionError):
        FaultProfile(outage_windows=((5.0, 3.0),))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"reorder_delay": math.nan},
        {"reorder_jitter": math.nan},
        {"duplicate_lag": math.nan},
        {"flap_start": math.nan},
        {"outage_windows": ((math.nan, 3.0),)},
    ],
)
def test_profile_rejects_nan_times(kwargs):
    # A NaN delay fails mid-run in the scheduler; a NaN window silently
    # never opens. Both are refused up front.
    with pytest.raises(FaultInjectionError):
        FaultProfile(**kwargs)


def test_noop_detection_and_resolution():
    assert FaultProfile().is_noop
    assert not FaultProfile(drop_probability=0.1).is_noop
    assert resolve_fault_profile(None) is None
    assert resolve_fault_profile("none") is None
    assert resolve_fault_profile(FaultProfile()) is None
    assert resolve_fault_profile("chaos") is FAULT_PROFILES["chaos"]
    with pytest.raises(FaultInjectionError):
        resolve_fault_profile("not-a-profile")


def test_named_profiles_all_valid():
    for name, profile in FAULT_PROFILES.items():
        assert isinstance(profile, FaultProfile), name
        assert profile.is_noop == (name == "none")


def test_shifted_moves_absolute_times():
    profile = FaultProfile(
        flap_down=1.0, flap_up=2.0, flap_start=3.0, outage_windows=((1.0, 2.0),)
    )
    shifted = profile.shifted(10.0)
    assert shifted.flap_start == 13.0
    assert shifted.outage_windows == ((11.0, 12.0),)
    # non-time fields untouched
    assert shifted.flap_down == 1.0 and shifted.flap_up == 2.0


# ---------------------------------------------------------------------------
# Impairments on a bare link
# ---------------------------------------------------------------------------

def _link_with_injector(profile, bandwidth=8e6, delay=0.01):
    sim = Simulator(seed=7)
    link = Link(sim, bandwidth, delay, name="test")
    got = []
    link.connect(lambda packet: got.append((sim.now, packet)))
    injector = FaultInjector(sim, profile, label="test").attach_to_link(link)
    return sim, link, injector, got


def test_noop_profile_draws_no_rng_and_delivers_everything():
    sim, link, injector, got = _link_with_injector(FaultProfile())
    assert injector._rng is None
    for i in range(20):
        link.send(_packet(i))
    sim.run()
    assert len(got) == 20
    assert injector.stats.delivered == 20
    assert injector.stats.dropped == 0


def test_random_drop_loses_packets():
    sim, link, injector, got = _link_with_injector(FaultProfile(drop_probability=0.5))
    for i in range(400):
        link.send(_packet(i))
    sim.run()
    assert injector.stats.dropped_random > 0
    assert len(got) == 400 - injector.stats.dropped_random


def test_gilbert_burst_drop_is_bursty():
    profile = FaultProfile(gilbert_b=0.05, gilbert_g=0.2, gilbert_drop=1.0)
    sim, link, injector, got = _link_with_injector(profile)
    for i in range(2000):
        link.send(_packet(i))
    sim.run()
    assert injector.stats.dropped_burst > 0
    # losses with drop=1.0 in-state come in runs: fewer distinct loss runs
    # than lost packets.
    delivered_ports = [packet.port for _, packet in got]
    lost = sorted(set(range(2000)) - set(delivered_ports))
    runs = 1 + sum(1 for a, b in zip(lost, lost[1:]) if b != a + 1)
    assert runs < len(lost)


def test_duplication_delivers_extra_copies():
    sim, link, injector, got = _link_with_injector(
        FaultProfile(duplicate_probability=0.5)
    )
    for i in range(100):
        link.send(_packet(i))
    sim.run()
    assert injector.stats.duplicated > 0
    assert len(got) == 100 + injector.stats.duplicated


def test_reordering_swaps_arrival_order():
    profile = FaultProfile(reorder_probability=0.3, reorder_delay=0.05)
    sim, link, injector, got = _link_with_injector(profile, bandwidth=80e6)
    for i in range(200):
        link.send(_packet(i))
    sim.run()
    assert injector.stats.reordered > 0
    assert len(got) == 200  # reordering never loses packets
    arrival_ports = [packet.port for _, packet in got]
    assert arrival_ports != sorted(arrival_ports)


def test_flap_schedule_is_arithmetic_and_deterministic():
    profile = FaultProfile(flap_down=1.0, flap_up=3.0, flap_start=10.0)
    sim = Simulator(seed=1)
    injector = FaultInjector(sim, profile)
    assert injector._rng is None  # flap needs no randomness
    assert not injector.link_down(9.99)
    assert injector.link_down(10.0)
    assert injector.link_down(10.999)
    assert not injector.link_down(11.0)
    assert not injector.link_down(13.999)
    assert injector.link_down(14.0)  # next cycle


def test_flap_drops_in_flight_packets():
    profile = FaultProfile(flap_down=100.0, flap_up=1.0, flap_start=0.0)
    sim, link, injector, got = _link_with_injector(profile)
    for i in range(10):
        link.send(_packet(i))
    sim.run()
    assert got == []
    assert injector.stats.dropped_flap == 10


def test_same_seed_same_profile_is_bit_identical():
    results = []
    for _ in range(2):
        sim, link, injector, got = _link_with_injector(FAULT_PROFILES["chaos"])
        for i in range(500):
            link.send(_packet(i))
        sim.run()
        results.append(
            (injector.stats.as_dict(), [(t, p.port) for t, p in got])
        )
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Host-side collector outages
# ---------------------------------------------------------------------------

def test_host_inbound_filter_counts_outage_drops():
    sim = Simulator(seed=1)
    host = Host(sim, "h")
    seen = []
    host.bind("t", 1, seen.append)
    injector = FaultInjector(
        sim, FaultProfile(outage_windows=((1.0, 2.0),))
    ).attach_to_host(host)
    packet = Packet(src="x", dst="h", size=10, protocol="t", port=1)
    sim.schedule_at(0.5, host.receive, packet)
    sim.schedule_at(1.5, host.receive, packet)
    sim.schedule_at(2.5, host.receive, packet)
    sim.run()
    assert len(seen) == 2
    assert host.filtered_inbound == 1
    assert injector.stats.dropped_outage == 1


# ---------------------------------------------------------------------------
# End-to-end degradation through the runner
# ---------------------------------------------------------------------------

def test_faults_none_is_bit_identical_to_clean_run():
    clean, truth_clean = run_badabing(**RUN_KWARGS)
    nofault, truth_nofault = run_badabing(faults="none", **RUN_KWARGS)
    assert clean.frequency == nofault.frequency
    assert clean.estimate.counts == nofault.estimate.counts
    assert clean.probes == nofault.probes
    assert truth_clean.frequency == truth_nofault.frequency


def test_chaos_profile_runs_and_reports_injections():
    keep = {}
    result, _truth = run_badabing(faults="chaos", keep=keep, **RUN_KWARGS)
    injector = keep["fault_injector"]
    assert injector.stats.total_injected > 0
    assert result.coverage is not None
    assert 0.0 <= result.coverage.slot_fraction <= 1.0
    # The estimate survived duplicated/reordered/partial logs.
    assert 0.0 <= result.frequency <= 1.0


def test_duplicates_are_discarded_keeping_first_arrival():
    keep = {}
    result, _ = run_badabing(faults="duplicate", keep=keep, **RUN_KWARGS)
    assert keep["fault_injector"].stats.duplicated > 0
    assert result.duplicate_arrivals > 0
    # each probe record still has at most n_packets deliveries
    for probe in result.probes:
        assert len(probe.owds) <= probe.n_packets


def test_outage_degrades_coverage_not_estimate():
    profile = FaultProfile(outage_windows=((3.0, 5.0),))
    keep = {}
    result, _ = run_badabing(faults=profile, keep=keep, **RUN_KWARGS)
    assert keep["fault_injector"].stats.dropped_outage > 0
    assert result.coverage.slot_fraction < 1.0
    assert not result.coverage.complete
    assert result.validation.coverage is result.coverage


def test_total_outage_raises_estimation_error_with_coverage():
    profile = FaultProfile(outage_windows=((0.0, 1e6),))
    with pytest.raises(EstimationError) as excinfo:
        run_badabing(faults=profile, **RUN_KWARGS)
    assert "coverage" in str(excinfo.value)


def test_event_budget_exhaustion_raises_simulation_error():
    with pytest.raises(SimulationError) as excinfo:
        run_badabing(max_events=200, **RUN_KWARGS)
    assert "budget exhausted" in str(excinfo.value)


def test_install_faults_returns_none_for_noop():
    from repro.experiments.runner import build_testbed

    sim, testbed = build_testbed(seed=1)
    assert install_faults(sim, testbed, None) is None
    assert install_faults(sim, testbed, "none") is None
    assert install_faults(sim, testbed, "mild") is not None


# ---------------------------------------------------------------------------
# CoverageReport semantics
# ---------------------------------------------------------------------------

def test_coverage_report_fractions():
    report = CoverageReport(
        scheduled_slots=10, usable_slots=5,
        scheduled_experiments=4, usable_experiments=1,
    )
    assert report.slot_fraction == 0.5
    assert report.experiment_fraction == 0.25
    assert not report.complete
    assert "50.0%" in report.describe()


def test_coverage_report_empty_plan_is_complete():
    report = CoverageReport(0, 0, 0, 0)
    assert report.slot_fraction == 1.0
    assert report.experiment_fraction == 1.0
    assert report.complete


def test_coverage_report_rejects_inconsistent_counts():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        CoverageReport(5, 6, 2, 2)
    with pytest.raises(ConfigurationError):
        CoverageReport(5, 5, 2, 3)
