"""The paper's contribution: the BADABING probe process and estimators.

* :mod:`repro.core.records` — probe records and experiment outcomes,
* :mod:`repro.core.schedule` — the geometric experiment schedule (§5.2/§5.3),
* :mod:`repro.core.marking` — loss + one-way-delay congestion marking (§6.1),
* :mod:`repro.core.estimators` — frequency and duration estimators (§5.2.2,
  §5.3.1),
* :mod:`repro.core.validation` — the §5.4 validation tests and stopping rule,
* :mod:`repro.core.adaptive` — open-ended measurement driven by validation,
* :mod:`repro.core.result` — the measurement result and the one marking →
  estimation → validation path every backend ends in,
* :mod:`repro.core.badabing` — the BADABING tool running on the simulator,
* :mod:`repro.core.zing` — the ZING Poisson baseline (§4),
* :mod:`repro.core.pinglike` — fixed-interval PING-like baseline,
* :mod:`repro.core.jitter` — probe launch-time jitter models (host realism),
* :mod:`repro.core.clock` — backend-agnostic time sources (sim vs wall
  clock) plus clock offset/skew models and removal (§7).

Every name below resolves from here but loads its submodule on first
access (:mod:`repro._lazy`), so importing one ``repro.core`` module loads
only what that module imports: the simulated tools (adaptive, BADABING, ZING,
PING-like) build on :mod:`repro.net` and :mod:`repro.traffic`, which the
offline and live paths never import.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "ExperimentOutcome": "records",
        "ProbeRecord": "records",
        "GeometricSchedule": "schedule",
        "CongestionMarker": "marking",
        "MarkingResult": "marking",
        "LossEstimate": "estimators",
        "estimate_from_outcomes": "estimators",
        "predicted_duration_stddev": "estimators",
        "GilbertEstimate": "parametric",
        "estimate_gilbert": "parametric",
        "MeasurementPlan": "planning",
        "plan_measurement": "planning",
        "required_p": "planning",
        "required_slots": "planning",
        "WindowedEstimator": "streaming",
        "WindowPoint": "streaming",
        "detect_level_shift": "streaming",
        "BootstrapResult": "uncertainty",
        "bootstrap_estimates": "uncertainty",
        "ValidationReport": "validation",
        "SequentialValidator": "validation",
        "AdaptiveMeasurement": "adaptive",
        "AdaptiveOutcome": "adaptive",
        "BadabingResult": "result",
        "BadabingTool": "badabing",
        "ZingResult": "zing",
        "ZingTool": "zing",
        "PingLikeTool": "pinglike",
        "NoJitter": "jitter",
        "UniformJitter": "jitter",
        "GaussianJitter": "jitter",
        "SpikeJitter": "jitter",
        "AffineClock": "clock",
        "Clock": "clock",
        "MonotonicClock": "clock",
        "SimClock": "clock",
        "deskew_probe_records": "clock",
        "estimate_skew": "clock",
        "rebase_probe_owds": "clock",
        "remove_skew": "clock",
    },
)
