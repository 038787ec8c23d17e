"""Tests for protected runs: budgets, retries, structured sweep outcomes."""

import pytest

from repro.errors import ConfigurationError, EstimationError, ReproError, SimulationError
from repro.experiments.runner import (
    RunBudget,
    RunOutcome,
    accepts_kwarg,
    derive_retry_seed,
    run_badabing,
    run_badabing_multihop,
    run_protected,
    run_zing,
    sweep_badabing,
)

CELL = dict(
    scenario="episodic_cbr",
    p=0.3,
    n_slots=1500,
    warmup=2.0,
    scenario_kwargs={"mean_spacing": 2.0},
)


def test_budget_validation():
    with pytest.raises(ConfigurationError):
        RunBudget(max_attempts=0)
    with pytest.raises(ConfigurationError):
        RunBudget(max_events=0)


def test_derived_retry_seeds_are_deterministic_and_fresh():
    first = derive_retry_seed(42, 1)
    assert first == derive_retry_seed(42, 1)
    assert first != 42
    assert derive_retry_seed(42, 1) != derive_retry_seed(42, 2)
    assert derive_retry_seed(42, 1) != derive_retry_seed(43, 1)


def test_successful_run_returns_ok_outcome():
    outcome = run_protected(run_badabing, label="ok-cell", seed=3, **CELL)
    assert outcome.ok and not outcome.failed
    assert outcome.attempts == 1
    assert outcome.seeds == (3,)
    assert outcome.result is not None and outcome.truth is not None
    result, truth = outcome.unwrap()
    assert 0.0 <= result.frequency <= 1.0
    assert "ok" in outcome.describe()


def test_budget_exhaustion_is_captured_and_retried():
    budget = RunBudget(max_events=300, max_attempts=3)
    outcome = run_protected(
        run_badabing, label="starved", seed=3, budget=budget, **CELL
    )
    assert outcome.failed
    assert outcome.error_type == "BudgetExhaustedError"
    assert outcome.budget_exhausted
    assert outcome.attempts == 3
    assert len(set(outcome.seeds)) == 3  # fresh derived seed per retry
    assert "BudgetExhaustedError" in outcome.describe()
    with pytest.raises(ReproError):
        outcome.unwrap()


def test_non_retryable_error_is_captured_without_retry():
    def crashes(seed):
        raise EstimationError("nothing to estimate")

    outcome = run_protected(crashes, label="dead", seed=1, budget=RunBudget(max_attempts=5))
    assert outcome.failed
    assert outcome.error_type == "EstimationError"
    assert outcome.attempts == 1  # EstimationError is not in retry_on
    assert outcome.error_traceback and "EstimationError" in outcome.error_traceback


def test_plain_exception_is_captured_and_retried_only_when_listed():
    calls = []

    def buggy(seed):
        calls.append(seed)
        raise ValueError("not a ReproError")

    outcome = run_protected(buggy, label="bug", seed=1, budget=RunBudget(max_attempts=3))
    assert outcome.failed and not outcome.budget_exhausted
    assert outcome.error_type == "ValueError"
    assert outcome.error == "not a ReproError"
    assert "ValueError" in outcome.error_traceback
    assert outcome.attempts == 1 and len(calls) == 1
    retried = run_protected(
        buggy, label="bug", seed=1, budget=RunBudget(max_attempts=3, retry_on=(ValueError,))
    )
    assert retried.attempts == 3


def test_retry_recovers_from_transient_simulation_error():
    calls = []

    def flaky(seed):
        calls.append(seed)
        if len(calls) == 1:
            raise SimulationError("transient")
        return "result", None

    outcome = run_protected(flaky, label="flaky", seed=9, budget=RunBudget(max_attempts=2))
    assert outcome.ok
    assert outcome.attempts == 2
    assert calls[0] == 9 and calls[1] == derive_retry_seed(9, 1)


def test_wall_budget_stops_retries():
    def always_fails(seed):
        raise SimulationError("boom")

    outcome = run_protected(
        always_fails,
        label="slow",
        seed=1,
        budget=RunBudget(max_attempts=50, max_wall_seconds=0.0),
    )
    assert outcome.failed
    assert outcome.attempts == 1  # wall budget exhausted after first try


def test_sweep_completes_despite_crashing_cell():
    cells = [
        {"p": 0.3, "label": "healthy"},
        {"p": 0.5, "label": "starved", "max_events": 300},
        {"p": 0.7, "label": "healthy-2"},
    ]
    common = dict(CELL)
    common.pop("p")
    outcomes = sweep_badabing(cells, budget=RunBudget(max_attempts=1), **common)
    assert [outcome.label for outcome in outcomes] == [
        "healthy", "starved", "healthy-2",
    ]
    assert outcomes[0].ok
    assert outcomes[1].failed and outcomes[1].budget_exhausted
    assert outcomes[2].ok


def test_sweep_generates_labels_and_merges_common_kwargs():
    common = dict(CELL)
    common.pop("p")
    outcomes = sweep_badabing([{"p": 0.3, "seed": 5}], **common)
    assert len(outcomes) == 1
    assert "p=0.3" in outcomes[0].label
    assert outcomes[0].seeds == (5,)
    assert outcomes[0].ok


def test_outcome_defaults_represent_unrun_cell():
    outcome = RunOutcome(label="x", ok=False)
    assert outcome.failed
    assert outcome.attempts == 0
    assert outcome.seeds == ()


class TestCommonLabelSuffixing:
    """A label passed via **common must not stamp every cell identically."""

    def test_common_label_gets_cell_index_suffix(self):
        common = dict(CELL)
        common.pop("p")
        outcomes = sweep_badabing(
            [{"p": 0.3}, {"p": 0.5}], label="grid", **common
        )
        assert [o.label for o in outcomes] == ["grid[0]", "grid[1]"]

    def test_per_cell_label_still_wins_verbatim(self):
        common = dict(CELL)
        common.pop("p")
        outcomes = sweep_badabing(
            [{"p": 0.3, "label": "mine"}, {"p": 0.5}], label="grid", **common
        )
        assert [o.label for o in outcomes] == ["mine", "grid[1]"]


class TestAcceptsKwarg:
    def test_named_and_var_keyword_parameters(self):
        def named(seed, max_events=None):
            return seed

        def keyword_only(seed, *, max_events):
            return seed

        def catch_all(seed, **kwargs):
            return seed

        def without(seed):
            return seed

        assert accepts_kwarg(named, "max_events")
        assert accepts_kwarg(keyword_only, "max_events")
        assert accepts_kwarg(catch_all, "max_events")
        assert not accepts_kwarg(without, "max_events")

    def test_uninspectable_callable_defaults_to_true(self):
        assert accepts_kwarg(min, "max_events")  # C builtin without a signature

    def test_inspectable_builtin_without_the_kwarg(self):
        assert not accepts_kwarg(len, "max_events")


class TestProtectedBudgetForwarding:
    """run_protected must never crash a runner with an unexpected kwarg.

    Regression for the bug where ``budget=RunBudget(max_events=...)``
    injected ``max_events=`` into every runner, crashing run_zing and
    run_badabing_multihop with TypeError before a single event ran.
    """

    def test_protected_zing_exhausts_budget_structurally(self):
        outcome = run_protected(
            run_zing,
            budget=RunBudget(max_events=300, max_attempts=1),
            scenario="episodic_cbr",
            mean_interval=0.1,
            packet_size=256,
            duration=6.0,
            warmup=2.0,
            scenario_kwargs={"mean_spacing": 2.0},
        )
        assert outcome.failed
        assert outcome.error_type == "BudgetExhaustedError"
        assert outcome.budget_exhausted

    def test_protected_zing_completes_under_generous_budget(self):
        outcome = run_protected(
            run_zing,
            budget=RunBudget(max_events=2_000_000),
            scenario="episodic_cbr",
            mean_interval=0.1,
            packet_size=256,
            duration=6.0,
            warmup=2.0,
            scenario_kwargs={"mean_spacing": 2.0},
        )
        assert outcome.ok, outcome.error

    def test_protected_multihop_exhausts_budget_structurally(self):
        outcome = run_protected(
            run_badabing_multihop,
            budget=RunBudget(max_events=300, max_attempts=1),
            n_hops=2,
            p=0.3,
            n_slots=1500,
            warmup=2.0,
        )
        assert outcome.failed
        assert outcome.error_type == "BudgetExhaustedError"
        assert outcome.budget_exhausted

    def test_runner_without_max_events_is_not_crashed(self):
        # A runner with a strict signature must simply not receive the kwarg.
        def strict_runner(seed):
            return f"ran-{seed}", None

        outcome = run_protected(
            strict_runner, budget=RunBudget(max_events=10)
        )
        assert outcome.ok
        assert outcome.result == "ran-1"
