"""Run budgets and structured run outcomes.

:class:`RunBudget` caps one protected run and :class:`RunOutcome` records
what became of it (see :func:`repro.experiments.runner.run_protected`).
Both are plain data, imported by the simulated runner and by the live
sender, reflector fleet and runtime alike; this module imports nothing
from the simulator, so the live path can use them without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Tuple, Type

from repro.errors import ConfigurationError, ReproError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import GroundTruth


def check_max_events(max_events: Optional[int]) -> None:
    """Refuse an event budget below one (``None`` means unlimited)."""
    if max_events is not None and max_events < 1:
        raise ConfigurationError(f"max_events must be >= 1, got {max_events}")


@dataclass(frozen=True)
class RunBudget:
    """Resource limits for one sweep cell.

    Attributes
    ----------
    max_events:
        Simulator event budget per attempt (None = unlimited). A run that
        exhausts it raises :class:`~repro.errors.BudgetExhaustedError`,
        which the protected runner turns into a structured failure.
    max_attempts:
        Total tries per cell. Attempts after the first rerun with a fresh
        seed derived deterministically from the original, so one unlucky
        draw (or a budget-busting schedule) gets a bounded second chance.
    max_wall_seconds:
        Soft wall-clock budget across attempts: once exceeded, no further
        retries are made (the in-flight attempt is never interrupted).
    retry_on:
        Exception types that trigger a retry; any other exception is
        captured without retrying.
    """

    max_events: Optional[int] = None
    max_attempts: int = 2
    max_wall_seconds: Optional[float] = None
    retry_on: Tuple[Type[BaseException], ...] = (SimulationError,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        check_max_events(self.max_events)


@dataclass
class RunOutcome:
    """What happened to one protected run: a result *or* a captured error.

    A sweep over many cells returns a list of these; failed cells carry
    the error class, message, and traceback instead of killing the sweep.
    """

    label: str
    ok: bool
    result: Optional[Any] = None
    truth: Optional[GroundTruth] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    error_traceback: Optional[str] = None
    attempts: int = 0
    seeds: Tuple[int, ...] = ()
    budget_exhausted: bool = False
    elapsed_seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return not self.ok

    def describe(self) -> str:
        """One-line summary for sweep logs."""
        if self.ok:
            return f"{self.label}: ok ({self.attempts} attempt(s))"
        return (
            f"{self.label}: FAILED after {self.attempts} attempt(s) — "
            f"{self.error_type}: {self.error}"
        )

    def unwrap(self) -> Tuple[Any, Optional[GroundTruth]]:
        """Return (result, truth), re-raising the captured error if failed."""
        if not self.ok:
            raise ReproError(
                f"{self.label}: {self.error_type}: {self.error}"
            )
        return self.result, self.truth
