"""Experiment schedules (§5.2, §5.3).

The probe process is geometric in discrete time: at every slot ``i`` a coin
with bias ``p`` decides whether an experiment starts there. A *basic*
experiment probes slots ``i`` and ``i+1``; under the improved algorithm,
half the experiments (an independent fair coin) are *extended* and probe
``i, i+1, i+2``.

Experiments overlap freely (an experiment may start while another is in
flight); each slot is probed **at most once** — overlapping experiments
share the probe in a shared slot. This matches the actual BADABING tool's
behaviour and is what makes the paper's reported probe load (one 3-packet
probe per covered slot) come out right: the expected fraction of probed
slots is ``1-(1-p)^2`` for the basic design, not ``2p``.

The design property the estimators rely on is that experiment *starts* are
i.i.d. Bernoulli(p) across slots — "the performance of the accompanying
estimators relies on the total number of probes that are sent, but not on
their sending rate".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from repro import profiling as _profiling
from repro.core.records import CoverageReport, ExperimentOutcome
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Experiment:
    """A planned experiment: start slot and how many slots it spans."""

    start_slot: int
    length: int

    def __post_init__(self) -> None:
        if self.length not in (2, 3):
            raise ConfigurationError(f"experiment length must be 2 or 3: {self.length}")
        if self.start_slot < 0:
            raise ConfigurationError(f"start_slot must be >= 0: {self.start_slot}")

    @property
    def slots(self) -> Tuple[int, ...]:
        return tuple(range(self.start_slot, self.start_slot + self.length))


class GeometricSchedule:
    """The full experiment plan for one measurement of ``n_slots`` slots.

    Parameters
    ----------
    p:
        Per-slot probability of starting an experiment.
    n_slots:
        Total number of slots (the paper's N).
    rng:
        Random stream (seeded for determinism).
    improved:
        If True, each experiment is extended (3 slots) with probability 1/2
        (§5.3); otherwise all experiments are basic (2 slots).

    Start coins are drawn for *every* slot (the i.i.d. Bernoulli(p) design
    property), and the window edge is handled afterwards: an extended draw
    that would overflow the window degrades to a basic 2-slot experiment
    when that fits, and a start in the very last slot — where nothing fits
    — is dropped. Degrading (rather than discarding) keeps the effective
    start probability at slot N−2 equal to p under the improved design;
    discarding would silently halve it, biasing starts near the tail. The
    length coin is drawn either way, so seeds whose draws never overflow
    produce byte-identical schedules to the historical behaviour.
    """

    def __init__(
        self,
        p: float,
        n_slots: int,
        rng: random.Random,
        improved: bool = False,
    ):
        if not 0 < p <= 1:
            raise ConfigurationError(f"p must be in (0, 1], got {p}")
        if n_slots < 2:
            raise ConfigurationError(f"n_slots must be >= 2, got {n_slots}")
        self.p = p
        self.n_slots = n_slots
        self.improved = improved
        self.experiments: List[Experiment] = []
        probed = set()
        with _profiling.profile_stage("schedule.generate", n_slots=n_slots):
            for slot in range(n_slots):
                if rng.random() >= p:
                    continue
                length = 3 if improved and rng.random() < 0.5 else 2
                if slot + length > n_slots:
                    if slot + 2 > n_slots:
                        # Nothing fits in the final slot; the start is lost.
                        continue
                    # Degrade the overflowing extended draw to a basic
                    # experiment (keeps P(start at N-2) = p; the draw
                    # sequence is unchanged because the length coin was
                    # already consumed).
                    length = 2
                experiment = Experiment(slot, length)
                self.experiments.append(experiment)
                probed.update(experiment.slots)
            self.probe_slots = sorted(probed)

    # ------------------------------------------------------------- accounting
    @property
    def n_experiments(self) -> int:
        return len(self.experiments)

    @property
    def n_probes(self) -> int:
        """Number of probes actually sent (one per covered slot)."""
        return len(self.probe_slots)

    def probe_load_bps(self, packets_per_probe: int, probe_size: int, slot: float) -> float:
        """Average probe bit rate this schedule generates."""
        total_bits = self.n_probes * packets_per_probe * probe_size * 8
        return total_bits / (self.n_slots * slot)

    # -------------------------------------------------------------- outcomes
    def outcomes_from_states(
        self, slot_states: Mapping[int, bool]
    ) -> List[ExperimentOutcome]:
        """Materialize y_i for every experiment from measured slot states.

        ``slot_states`` maps probed slot -> congestion indication (the
        marking step's output). Every slot an experiment covers was probed
        by construction; a missing entry means the probe produced no usable
        report (should not happen — loss itself is a report) and the
        experiment is skipped defensively.
        """
        outcomes: List[ExperimentOutcome] = []
        for experiment in self.experiments:
            bits = []
            for slot in experiment.slots:
                state = slot_states.get(slot)
                if state is None:
                    break
                bits.append(int(state))
            else:
                outcomes.append(ExperimentOutcome(experiment.start_slot, tuple(bits)))
        return outcomes

    def coverage_from_states(self, slot_states: Mapping[int, bool]) -> CoverageReport:
        """Quantify how much of the plan the marked states actually cover."""
        return coverage_report(self.experiments, slot_states)


def coverage_report(
    experiments: Sequence[Experiment], slot_states: Mapping[int, bool]
) -> CoverageReport:
    """Scheduled-vs-usable accounting for any experiment plan.

    A slot is *usable* when the marking produced a state for it; an
    experiment is usable when every slot it spans is. Shared by the live
    tool (:class:`GeometricSchedule`) and offline traces
    (:class:`repro.io.traces.Measurement`).
    """
    scheduled: set = set()
    usable_experiments = 0
    for experiment in experiments:
        slots = experiment.slots
        scheduled.update(slots)
        if all(slot in slot_states for slot in slots):
            usable_experiments += 1
    usable_slots = sum(1 for slot in scheduled if slot in slot_states)
    return CoverageReport(
        scheduled_slots=len(scheduled),
        usable_slots=usable_slots,
        scheduled_experiments=len(experiments),
        usable_experiments=usable_experiments,
    )


def outcomes_from_true_states(
    experiments: Sequence[Experiment], states: Sequence[bool]
) -> List[ExperimentOutcome]:
    """Perfect-observation outcomes (p1 = p2 = 1) from a truth sequence.

    Used by the synthetic substrate and in tests; the virtual observer in
    :mod:`repro.synthetic.observer` degrades these according to the paper's
    assumption structure.
    """
    outcomes = []
    for experiment in experiments:
        bits = tuple(int(states[slot]) for slot in experiment.slots)
        outcomes.append(ExperimentOutcome(experiment.start_slot, bits))
    return outcomes
