"""The paper's contribution: the BADABING probe process and estimators.

* :mod:`repro.core.records` — probe records and experiment outcomes,
* :mod:`repro.core.schedule` — the geometric experiment schedule (§5.2/§5.3),
* :mod:`repro.core.marking` — loss + one-way-delay congestion marking (§6.1),
* :mod:`repro.core.estimators` — frequency and duration estimators (§5.2.2,
  §5.3.1),
* :mod:`repro.core.validation` — the §5.4 validation tests and stopping rule,
* :mod:`repro.core.adaptive` — open-ended measurement driven by validation,
* :mod:`repro.core.badabing` — the BADABING tool running on the simulator,
* :mod:`repro.core.zing` — the ZING Poisson baseline (§4),
* :mod:`repro.core.pinglike` — fixed-interval PING-like baseline,
* :mod:`repro.core.jitter` — probe launch-time jitter models (host realism),
* :mod:`repro.core.clock` — backend-agnostic time sources (sim vs wall
  clock) plus clock offset/skew models and removal (§7).

The simulated tools (adaptive, BADABING, ZING, PING-like) build on
:mod:`repro.net` and :mod:`repro.traffic`, which sit above
:mod:`repro.analysis`, :mod:`repro.obs` and the rest of this package. Their
names resolve from here but load on first access, so importing any
``repro.core`` module from a lower layer does not close an import cycle.
"""

import importlib
from typing import Any

from repro.core.records import ExperimentOutcome, ProbeRecord
from repro.core.schedule import GeometricSchedule
from repro.core.marking import CongestionMarker, MarkingResult
from repro.core.estimators import LossEstimate, estimate_from_outcomes, predicted_duration_stddev
from repro.core.parametric import GilbertEstimate, estimate_gilbert
from repro.core.planning import MeasurementPlan, plan_measurement, required_p, required_slots
from repro.core.streaming import WindowedEstimator, WindowPoint, detect_level_shift
from repro.core.uncertainty import BootstrapResult, bootstrap_estimates
from repro.core.validation import ValidationReport, SequentialValidator
from repro.core.jitter import GaussianJitter, NoJitter, SpikeJitter, UniformJitter
from repro.core.clock import (
    AffineClock,
    Clock,
    MonotonicClock,
    SimClock,
    deskew_probe_records,
    estimate_skew,
    rebase_probe_owds,
    remove_skew,
)

__all__ = [
    "ExperimentOutcome",
    "ProbeRecord",
    "GeometricSchedule",
    "CongestionMarker",
    "MarkingResult",
    "LossEstimate",
    "estimate_from_outcomes",
    "predicted_duration_stddev",
    "GilbertEstimate",
    "estimate_gilbert",
    "MeasurementPlan",
    "plan_measurement",
    "required_p",
    "required_slots",
    "WindowedEstimator",
    "WindowPoint",
    "detect_level_shift",
    "BootstrapResult",
    "bootstrap_estimates",
    "ValidationReport",
    "SequentialValidator",
    "AdaptiveMeasurement",
    "AdaptiveOutcome",
    "BadabingResult",
    "BadabingTool",
    "ZingResult",
    "ZingTool",
    "PingLikeTool",
    "NoJitter",
    "UniformJitter",
    "GaussianJitter",
    "SpikeJitter",
    "AffineClock",
    "Clock",
    "MonotonicClock",
    "SimClock",
    "deskew_probe_records",
    "estimate_skew",
    "rebase_probe_owds",
    "remove_skew",
]

#: Simulated tools, by the submodule that defines them.
_TOOLS = {
    "AdaptiveMeasurement": "adaptive",
    "AdaptiveOutcome": "adaptive",
    "BadabingResult": "badabing",
    "BadabingTool": "badabing",
    "ZingResult": "zing",
    "ZingTool": "zing",
    "PingLikeTool": "pinglike",
}


def __getattr__(name: str) -> Any:
    module = _TOOLS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
