"""Array-batched slot pipeline for offline re-estimation.

The paper's §7 accuracy guidance — StdDev(D̂) ≈ 1/√(p·N·L) — makes long
traces the route to accurate estimates, and the Fig. 9 sensitivity study
re-marks one trace over a whole (α, τ) grid (§6.1). Offline
re-estimation (:func:`repro.io.reestimate`, ``repro analyze``) is the one
place where the slot pipeline is the whole cost, so it always runs this
module. Simulated and live runs always run the scalar stages
(:class:`~repro.core.marking.CongestionMarker`,
:meth:`~repro.core.schedule.GeometricSchedule.outcomes_from_states`,
:func:`~repro.core.estimators.count_patterns`): there the event simulator
or the wire dominates, and the scalar stages are the reference
implementation this module is tested against. The choice follows the
entry point; no flag selects it.

Each stage of the middle of the pipeline is re-expressed over contiguous
NumPy arrays:

* **probe records** — structure-of-arrays (:class:`ProbeArrays`: slot,
  send_time, lost_packets, max_owd, last_owd, owd_before_loss) replaces
  per-object dispatch;
* **marking** — `mark_probe_arrays` reduces §6.1 to array threshold /
  ``searchsorted`` passes; only the loss events themselves (a small, data-
  sparse subset) are walked scalar, because the OWD_max history is a
  bounded deque whose aggregate must match the scalar `_aggregate`
  bit-for-bit;
* **estimator fold** — experiment outcomes become packed bit-codes and the
  whole §5/§5.4 pattern count is one ``np.bincount``, reconstructed into
  the exact `Counter` the scalar `count_patterns` produces.

Equivalence contract: for identical inputs the batch pipeline produces the
*same bits* as the scalar stages — same slot states, same pattern counter,
same estimates and coverage. `tests/test_batch.py` pins the two together
with hypothesis property tests.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro import profiling as _profiling
from repro.config import MarkingConfig
from repro.core.estimators import (
    _R_PATTERNS,
    _S_PATTERNS,
    _U_PATTERNS,
    _V_PATTERNS,
)
from repro.core.records import CoverageReport, ExperimentOutcome, ProbeRecord
from repro.errors import ConfigurationError


def experiment_arrays(
    experiments: Sequence["Experiment"],
) -> Tuple["np.ndarray", "np.ndarray"]:
    """(starts, lengths) int64 arrays from a scalar experiment plan.

    Bridges a schedule generated by the scalar loop (or loaded from a
    trace) into the batch pipeline.
    """
    starts = np.fromiter(
        (experiment.start_slot for experiment in experiments),
        dtype=np.int64,
        count=len(experiments),
    )
    lengths = np.fromiter(
        (experiment.length for experiment in experiments),
        dtype=np.int64,
        count=len(experiments),
    )
    return starts, lengths


# ---------------------------------------------------------------------------
# Probe records as structure-of-arrays
# ---------------------------------------------------------------------------

@dataclass
class ProbeArrays:
    """Structure-of-arrays form of a chronological probe stream.

    One entry per probe, in the order given; :func:`mark_probe_arrays`
    rejects a stream that is not sorted by ``send_time``.
    Missing optional values (``max_owd`` for all-lost probes, ``last_owd``
    for probes with no delivery, ``owd_before_loss`` when unattributable)
    are ``nan`` — the batch marker treats ``nan`` exactly as the scalar
    marker treats ``None``.
    """

    slot: "np.ndarray"  # int64
    send_time: "np.ndarray"  # float64
    lost_packets: "np.ndarray"  # int64
    max_owd: "np.ndarray"  # float64, nan = no delivery
    last_owd: "np.ndarray"  # float64, nan = no delivery (owds[-1] otherwise)
    owd_before_loss: "np.ndarray"  # float64, nan = None

    def __len__(self) -> int:
        return int(self.slot.shape[0])

    @property
    def lost(self) -> "np.ndarray":
        return self.lost_packets > 0

    @classmethod
    def from_records(cls, probes: Sequence[ProbeRecord]) -> "ProbeArrays":
        """Pack per-object records into contiguous arrays (one pass)."""
        n = len(probes)
        slot = np.empty(n, dtype=np.int64)
        send_time = np.empty(n, dtype=np.float64)
        lost_packets = np.empty(n, dtype=np.int64)
        max_owd = np.full(n, np.nan, dtype=np.float64)
        last_owd = np.full(n, np.nan, dtype=np.float64)
        owd_before_loss = np.full(n, np.nan, dtype=np.float64)
        for i, probe in enumerate(probes):
            slot[i] = probe.slot
            send_time[i] = probe.send_time
            owds = probe.owds
            lost_packets[i] = probe.n_packets - len(owds)
            if owds:
                max_owd[i] = max(owds)
                last_owd[i] = owds[-1]
            if probe.owd_before_loss is not None:
                owd_before_loss[i] = probe.owd_before_loss
        return cls(
            slot=slot,
            send_time=send_time,
            lost_packets=lost_packets,
            max_owd=max_owd,
            last_owd=last_owd,
            owd_before_loss=owd_before_loss,
        )


# ---------------------------------------------------------------------------
# §6.1 marking as array passes
# ---------------------------------------------------------------------------

@dataclass
class BatchMarkingResult:
    """Array-native marking output (twin of :class:`MarkingResult`).

    ``states`` carries the per-probe verdicts in probe order;
    ``dense_states`` (int8, −1 = unprobed) is keyed by slot index for O(1)
    y_i assembly. The diagnostic counts match the scalar marker exactly.
    """

    states: "np.ndarray"  # bool, probe order
    dense_states: "np.ndarray"  # int8 over slot indices, -1 = unknown
    marked_by_loss: int
    marked_by_delay: int
    noise_losses: int
    owd_max_estimates: List[float]

    @property
    def marked(self) -> int:
        return self.marked_by_loss + self.marked_by_delay


def _loss_pass(
    arrays: ProbeArrays, cfg: MarkingConfig
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray", List[float]]:
    """The only scalar sub-pass: walk the loss events in probe order.

    The OWD_max history is a bounded deque whose aggregate must match the
    scalar :func:`~repro.core.marking._aggregate` bit-for-bit, and noise
    classification feeds back into that history — so the loss events
    themselves (a sparse subset of probes) are folded scalar while every
    per-probe quantity stays an array pass. Returns ``(noise_mask,
    loss_times, change_positions, change_values, final_history)`` where the
    change arrays describe the per-probe threshold step function.
    """
    from repro.core.marking import _aggregate

    lossy = np.flatnonzero(arrays.lost)
    noise_mask = np.zeros(len(arrays), dtype=bool)
    loss_times: List[float] = []
    change_positions: List[int] = []
    change_values: List[float] = []
    if lossy.shape[0] == 0:
        return (
            noise_mask,
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            [],
        )

    # last_success_owd as of each lossy probe: the newest delivery strictly
    # before it, forward-filled without a per-probe loop.
    has_delivery = ~np.isnan(arrays.last_owd)
    indices = np.arange(len(arrays), dtype=np.int64)
    last_delivery_at = np.maximum.accumulate(np.where(has_delivery, indices, -1))
    prev_delivery = np.empty(len(arrays), dtype=np.int64)
    prev_delivery[0] = -1
    prev_delivery[1:] = last_delivery_at[:-1]

    history: Deque[float] = deque(maxlen=cfg.owd_history)
    one_minus_alpha = 1.0 - cfg.alpha
    filter_noise = cfg.filter_uncorrelated_losses
    statistic = cfg.owd_statistic
    send_time = arrays.send_time
    max_owd = arrays.max_owd
    owd_before_loss = arrays.owd_before_loss
    for i in lossy.tolist():
        current = (
            one_minus_alpha * _aggregate(history, statistic) if history else None
        )
        evidence = max_owd[i]
        if np.isnan(evidence):
            evidence = owd_before_loss[i]
        if (
            filter_noise
            and current is not None
            and not np.isnan(evidence)
            and evidence < current
        ):
            noise_mask[i] = True
            continue
        loss_times.append(float(send_time[i]))
        estimate = owd_before_loss[i]
        if np.isnan(estimate):
            fallback = prev_delivery[i]
            estimate = (
                arrays.last_owd[fallback] if fallback >= 0 else np.nan
            )
        if not np.isnan(estimate):
            history.append(float(estimate))
            change_positions.append(i)
            change_values.append(
                one_minus_alpha * _aggregate(history, statistic)
            )
    return (
        noise_mask,
        np.asarray(loss_times, dtype=np.float64),
        np.asarray(change_positions, dtype=np.int64),
        np.asarray(change_values, dtype=np.float64),
        list(history),
    )


def mark_probe_arrays(
    arrays: ProbeArrays, config: Optional[MarkingConfig] = None
) -> BatchMarkingResult:
    """§6.1 marking over a probe SoA — array threshold/searchsorted passes.

    Bit-identical to :meth:`CongestionMarker.mark` over the equivalent
    record list: the same loss/noise classification, the same per-probe
    OWD_max threshold (including the end-of-run fallback for probes that
    predate the first estimate), the same tau-proximity rule.
    """
    cfg = config if config is not None else MarkingConfig()
    with _profiling.profile_stage("marking.apply"):
        n = len(arrays)
        if n and bool(np.any(np.diff(arrays.send_time) < 0)):
            raise ConfigurationError("probes must be sorted by send time")
        if n and int(arrays.slot.min()) < 0:
            raise ConfigurationError("probe slots must be non-negative")

        noise_mask, loss_times, change_positions, change_values, final_history = (
            _loss_pass(arrays, cfg)
        )

        # Per-probe threshold: a step function that changes only at the
        # (sparse) history updates; probes before the first update fall
        # back to the end-of-run aggregate, exactly like the scalar pass.
        if change_values.shape[0]:
            final_value = change_values[-1]
            steps = np.concatenate(([final_value], change_values))
            which = np.searchsorted(change_positions, np.arange(n), side="right")
            thresholds = steps[which]
            have_threshold = np.ones(n, dtype=bool)
        else:
            thresholds = np.zeros(n, dtype=np.float64)
            have_threshold = np.zeros(n, dtype=bool)

        lost = arrays.lost
        hard_loss = lost & ~noise_mask

        # tau rule: distance to the nearest loss anchor, both directions.
        if loss_times.shape[0]:
            pos = np.searchsorted(loss_times, arrays.send_time)
            after = np.full(n, np.inf)
            valid = pos < loss_times.shape[0]
            after[valid] = loss_times[pos[valid]] - arrays.send_time[valid]
            before = np.full(n, np.inf)
            valid = pos > 0
            before[valid] = arrays.send_time[valid] - loss_times[pos[valid] - 1]
            near_loss = np.minimum(after, before) <= cfg.tau
        else:
            near_loss = np.zeros(n, dtype=bool)

        delay_marked = (
            have_threshold
            & near_loss
            & ~np.isnan(arrays.max_owd)
            & (arrays.max_owd > thresholds)
            & ~hard_loss
        )
        states = hard_loss | delay_marked

        max_slot = int(arrays.slot.max()) + 1 if n else 0
        dense = np.full(max_slot, -1, dtype=np.int8)
        dense[arrays.slot] = states  # duplicate slots: last write wins
        return BatchMarkingResult(
            states=states,
            dense_states=dense,
            marked_by_loss=int(np.count_nonzero(hard_loss)),
            marked_by_delay=int(np.count_nonzero(delay_marked)),
            noise_losses=int(np.count_nonzero(noise_mask)),
            owd_max_estimates=final_history,
        )


# ---------------------------------------------------------------------------
# y_i assembly and the §5 fold: packed bit-codes + one bincount
# ---------------------------------------------------------------------------

#: Packed-key layout: key = (length - 2) * 8 + code, where code packs the
#: congestion bits MSB-first. Basic experiments occupy keys 0..3, extended
#: ones keys 8..15; 16 keys total.
N_PATTERN_KEYS = 16

#: key -> (§5 pattern string, bits tuple); basic keys 4..7 are unused.
_KEY_TABLE: List[Optional[Tuple[str, Tuple[int, ...]]]] = [None] * N_PATTERN_KEYS
for _code in range(4):
    _bits = ((_code >> 1) & 1, _code & 1)
    _KEY_TABLE[_code] = ("".join(map(str, _bits)), _bits)
for _code in range(8):
    _bits = ((_code >> 2) & 1, (_code >> 1) & 1, _code & 1)
    _KEY_TABLE[8 + _code] = ("".join(map(str, _bits)), _bits)

def outcome_keys(
    starts: "np.ndarray",
    lengths: "np.ndarray",
    dense_states: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Packed outcome keys per experiment, plus the usable-experiment mask.

    An experiment is usable when every slot it covers has a marked state —
    the same rule as the scalar ``outcomes_from_states`` (which skips an
    experiment at its first unprobed slot). ``dense_states`` is int8 with
    −1 for unprobed slots; experiments reaching beyond it are unusable.
    """
    n_exp = starts.shape[0]
    size = dense_states.shape[0]
    if n_exp == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    padded = np.concatenate(
        [dense_states.astype(np.int64), np.full(3, -1, dtype=np.int64)]
    )
    idx0 = np.minimum(starts, size)
    idx1 = np.minimum(starts + 1, size)
    idx2 = np.minimum(starts + 2, size)
    b0 = padded[idx0]
    b1 = padded[idx1]
    b2 = padded[idx2]
    extended = lengths == 3
    valid = (b0 >= 0) & (b1 >= 0) & (~extended | (b2 >= 0))
    safe0 = np.maximum(b0, 0)
    safe1 = np.maximum(b1, 0)
    safe2 = np.maximum(b2, 0)
    keys = np.where(
        extended,
        8 + safe0 * 4 + safe1 * 2 + safe2,
        safe0 * 2 + safe1,
    )
    return keys.astype(np.int64), valid


def pattern_histogram(keys: "np.ndarray", valid: "np.ndarray") -> "np.ndarray":
    """Counts per packed key over the usable experiments (one bincount)."""
    with _profiling.profile_stage("estimator.fold"):
        return np.bincount(keys[valid], minlength=N_PATTERN_KEYS)


def counter_from_histogram(histogram: "np.ndarray") -> Counter:
    """Reconstruct the exact scalar pattern counter from a key histogram.

    Matches :func:`~repro.core.estimators.count_patterns` key-for-key: the
    per-pattern counts plus the derived M/Z/R/S/E/U/V totals, with keys
    that the scalar fold never touched left absent (M and Z are always
    present — the scalar fold writes them unconditionally).
    """
    counter: Counter = Counter()
    m = 0
    z = 0
    for key in range(N_PATTERN_KEYS):
        entry = _KEY_TABLE[key]
        if entry is None:
            continue
        count = int(histogram[key])
        if count == 0:
            continue
        pattern, bits = entry
        counter[pattern] += count
        m += count
        z += bits[0] * count
        if len(bits) == 2:
            if pattern in _R_PATTERNS:
                counter["R"] += count
            if pattern in _S_PATTERNS:
                counter["S"] += count
        else:
            counter["E"] += count
            if pattern in _U_PATTERNS:
                counter["U"] += count
            if pattern in _V_PATTERNS:
                counter["V"] += count
    counter["M"] = m
    counter["Z"] = z
    return counter


def materialize_outcomes(
    starts: "np.ndarray",
    keys: "np.ndarray",
    valid: "np.ndarray",
) -> List[ExperimentOutcome]:
    """Build the per-object outcome list from packed keys (interop only).

    The batch estimator fold never needs these objects; they exist for
    consumers of :class:`~repro.core.result.BadabingResult` (audit
    convergence replays, trace round-trips) that still speak per-object.
    """
    bits_for_key = [entry[1] if entry else None for entry in _KEY_TABLE]
    # Plain ints from ``tolist()``: indexing NumPy arrays one element at a
    # time would box a NumPy scalar per experiment.
    return [
        ExperimentOutcome(start, bits_for_key[key])
        for start, key in zip(starts[valid].tolist(), keys[valid].tolist())
    ]


def coverage_from_arrays(
    starts: "np.ndarray",
    lengths: "np.ndarray",
    dense_states: "np.ndarray",
    valid: "np.ndarray",
) -> CoverageReport:
    """Scheduled-vs-usable accounting, array twin of ``coverage_report``."""
    n_exp = int(starts.shape[0])
    if n_exp == 0:
        return CoverageReport(
            scheduled_slots=0,
            usable_slots=0,
            scheduled_experiments=0,
            usable_experiments=0,
        )
    reach = int((starts + lengths).max())
    span = np.zeros(reach + 1, dtype=np.int64)
    np.add.at(span, starts, 1)
    np.add.at(span, starts + lengths, -1)
    scheduled = np.cumsum(span[:-1]) > 0
    size = dense_states.shape[0]
    usable = scheduled.copy()
    if reach > size:
        usable[size:] = False
        usable[:size] &= dense_states >= 0
    else:
        usable &= dense_states[:reach] >= 0
    return CoverageReport(
        scheduled_slots=int(np.count_nonzero(scheduled)),
        usable_slots=int(np.count_nonzero(usable)),
        scheduled_experiments=n_exp,
        usable_experiments=int(np.count_nonzero(valid)),
    )


# ---------------------------------------------------------------------------
# The assembled pipeline
# ---------------------------------------------------------------------------

@dataclass
class BatchPipelineResult:
    """Everything the slot pipeline produced, array-native.

    The heavyweight consumers (estimate, validation) are materialized —
    they are O(1) summaries — while outcomes stay packed until a caller
    explicitly asks (:func:`materialize_outcomes`).
    """

    counter: Counter
    marking: BatchMarkingResult
    keys: "np.ndarray"
    valid: "np.ndarray"
    starts: "np.ndarray"
    lengths: "np.ndarray"
    coverage: CoverageReport


def run_slot_pipeline(
    starts: "np.ndarray",
    lengths: "np.ndarray",
    probes: ProbeArrays,
    marking: Optional[MarkingConfig] = None,
) -> BatchPipelineResult:
    """Marking → y_i assembly → pattern fold over arrays, start to finish.

    The batch twin of :func:`repro.core.result.assemble_result`'s middle:
    everything between a joined probe stream and the §5 estimators runs as
    array passes, and the resulting pattern counter plugs into the same
    estimator/validator arithmetic the scalar path uses.
    """
    marked = mark_probe_arrays(probes, marking)
    keys, valid = outcome_keys(starts, lengths, marked.dense_states)
    histogram = pattern_histogram(keys, valid)
    counter = counter_from_histogram(histogram)
    coverage = coverage_from_arrays(starts, lengths, marked.dense_states, valid)
    return BatchPipelineResult(
        counter=counter,
        marking=marked,
        keys=keys,
        valid=valid,
        starts=starts,
        lengths=lengths,
        coverage=coverage,
    )
