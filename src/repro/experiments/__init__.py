"""Paper-reproduction harness: scenarios, runner, tables, and figures.

Names resolve from here but load their submodule on first access
(:mod:`repro._lazy`). :class:`RunBudget` and :class:`RunOutcome` come from
the leaf :mod:`repro.experiments.budget`, which the live path imports
without the simulator.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "GroundTruth": "runner",
        "RunBudget": "budget",
        "RunOutcome": "budget",
        "build_testbed": "runner",
        "apply_scenario": "runner",
        "compute_ground_truth": "runner",
        "ground_truth_from_episodes": "runner",
        "default_marking_for": "runner",
        "install_faults": "runner",
        "run_badabing": "runner",
        "run_badabing_multihop": "runner",
        "run_protected": "runner",
        "run_zing": "runner",
        "sweep_badabing": "runner",
    },
)
