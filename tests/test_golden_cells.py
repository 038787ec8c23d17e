"""Same-seed pins for simulated paths the benchmark reference never runs.

``perfbench/reference.json`` pins clean infinite-TCP and mildly faulted web
cells. These four small cells pin the rest of the per-packet substrate: a
RED bottleneck (its ``_admit`` hook), every fault the injector has (flap,
collector outage, Gilbert bursts, random drop, reordering, duplication),
UDP CBR with cancelled timers, and a two-hop router chain. Each pin is the
dispatched-event count, ``repr`` of F̂ and D̂, and the metrics snapshot
digest; a change to the simulator's hot path must leave all of them
byte-identical.
"""

import dataclasses

import pytest

from repro.config import TestbedConfig
from repro.experiments.runner import run_badabing, run_badabing_multihop
from repro.net.faults import FAULT_PROFILES
from repro.obs.metrics import MetricsRegistry, snapshot_digest

SLOTS = 600

#: The chaos profile with its flap and outage moved inside the 3-s
#: measurement, so a short cell exercises them too.
CHAOS_IN_WINDOW = dataclasses.replace(
    FAULT_PROFILES["chaos"], flap_start=1.0, outage_windows=((2.0, 2.5),)
)

CELLS = {
    "red_infinite_tcp": lambda metrics: run_badabing(
        "infinite_tcp", 0.3, SLOTS, seed=3,
        testbed_config=TestbedConfig(red=True), metrics=metrics,
    ),
    "chaos_harpoon_web": lambda metrics: run_badabing(
        "harpoon_web", 0.5, SLOTS, seed=4, faults=CHAOS_IN_WINDOW, metrics=metrics,
    ),
    "episodic_cbr": lambda metrics: run_badabing(
        "episodic_cbr", 0.5, SLOTS, seed=5, metrics=metrics,
    ),
    "multihop_2": lambda metrics: run_badabing_multihop(
        2, 0.5, SLOTS, seed=6, metrics=metrics,
    ),
}

#: (events_processed, repr(F̂), repr(D̂ seconds), snapshot digest)
GOLDEN = {
    "red_infinite_tcp": (
        83476, "0.015625", "0.015",
        "295a0a551dedc083973f56a8d35056b83f1cddaf52e1eccdba36a54bf2a5a5dd",
    ),
    "chaos_harpoon_web": (
        82133, "0.25833333333333336", "0.08785714285714287",
        "c100d9d046a6783264c153d66faf801454eb0b096184e4e8082781dc14f98976",
    ),
    "episodic_cbr": (
        15840, "0.03986710963455149", "0.115",
        "10c522e5e2e2f08b8f66bfb80dc5365e4e4d69d2c9cea8aaa35d61255b53399e",
    ),
    "multihop_2": (
        18344, "0.09121621621621621", "0.135",
        "053bc0b2b2dbc552934c0e489f2d166459ebed969d3a53ea973e62fd908f341f",
    ),
}


#: Counters that must be non-zero in each cell, so a pin cannot pass
#: vacuously after a profile or scenario change stops exercising its path.
EXERCISED = {
    "red_infinite_tcp": ("queue.drops{cause=red-early,protocol=tcp,queue=bottleneck}",),
    "chaos_harpoon_web": tuple(
        f"faults.{what}{{injector=path}}"
        for what in (
            "dropped_flap", "dropped_outage", "dropped_burst", "dropped_random",
            "duplicated", "reordered",
        )
    ),
    "episodic_cbr": ("sim.events_cancelled",),
    "multihop_2": ("link.tx_packets{link=r1->r2}", "link.tx_packets{link=r2->probercv}"),
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_its_pin(name):
    metrics = MetricsRegistry()
    result, _ = CELLS[name](metrics)
    snapshot = metrics.snapshot()
    assert (
        result.manifest.events_processed,
        repr(result.frequency),
        repr(result.duration_seconds),
        snapshot_digest(snapshot),
    ) == GOLDEN[name]
    for counter in EXERCISED[name]:
        assert snapshot["counters"][counter] > 0, counter
