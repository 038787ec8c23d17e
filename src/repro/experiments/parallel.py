"""Process pool for sweeps: submit, wait under the deadline, contain crashes.

The paper's headline tables and figures are grids of runs over
``(p, duration, scenario, seed)`` cells, each cell an independent seeded
simulation. :func:`~repro.experiments.runner.sweep_badabing` with
``workers`` > 1 hands its prepared cells to :func:`execute_parallel_sweep`,
which runs :func:`~repro.experiments.runner.run_cell` — the same cell
function a serial sweep calls in-process — in a ``ProcessPoolExecutor``
and hands every result to the sweep's finish step **in cell order**,
regardless of completion order. Everything that decides what a sweep
records lives in the runner and is shared by both modes, so the parallel
sweep is byte-identical to the serial one on the same seeds; this module
holds only the pool mechanics.

Failure containment mirrors the protected-run philosophy: a worker that
dies *hard* (``BrokenProcessPool`` from a segfault/``os._exit``/OOM-kill,
an unpicklable payload or result) is converted into a structured failed
``RunOutcome`` for the cell being waited on, the pool is rebuilt, and the
remaining cells are resubmitted — the sweep always returns its full
shape. A sweep-level ``max_wall_seconds`` deadline cancels cells that
have not started yet and reports them as budget-exhausted; in-flight
cells are never interrupted (matching
:class:`~repro.experiments.runner.RunBudget.max_wall_seconds` semantics).

The worker entry point is a top-level function and payloads are plain
picklable dataclasses, so the engine is safe under the ``spawn`` start
method (the only one that is fork-safety-proof across platforms).
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    CellPayload,
    CellResult,
    RunOutcome,
    deadline_outcome,
    failed_outcome,
    run_cell,
)

#: How many times one cell may be the observed victim of a broken pool
#: before it is permanently failed. Two lets an *innocent* cell that was
#: merely co-resident with a crashing one get a fresh chance, while a
#: cell that reliably kills its worker converges to a structured failure.
MAX_POOL_BREAK_BLAME = 2


def _await_cell(future, deadline: Optional[float]) -> Tuple[str, Any]:
    """Wait for one cell future under the sweep deadline.

    Returns ``("ok", CellResult)``, ``("deadline", None)`` for a cell
    cancelled before it started, or ``("error", exception)`` for a hard
    worker failure. A cell already running at the deadline is allowed to
    finish — only not-yet-started cells are cancelled.
    """
    timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
    try:
        return "ok", future.result(timeout=timeout)
    except FuturesTimeoutError:
        if future.cancel():
            return "deadline", None
        try:  # in flight: never interrupted
            return "ok", future.result()
        except CancelledError:
            return "deadline", None
        except BaseException as exc:  # noqa: BLE001 — contained per-cell
            return "error", exc
    except CancelledError:
        return "deadline", None
    except BaseException as exc:  # noqa: BLE001 — contained per-cell
        return "error", exc


def execute_parallel_sweep(
    payloads: Sequence[CellPayload],
    workers: int,
    max_wall_seconds: Optional[float] = None,
    finish: Optional[Callable[[CellPayload, CellResult], RunOutcome]] = None,
) -> List[RunOutcome]:
    """Run prepared cells across ``workers`` processes, finishing in cell order.

    Returns one ``RunOutcome`` per payload, in payload order. Each cell's
    :class:`~repro.experiments.runner.CellResult` — the worker's, or a
    stand-in carrying a crash or deadline outcome — goes to
    ``finish(payload, cell)`` strictly in cell order, and ``finish``
    returns the outcome to report; without ``finish`` the cell's outcome
    is reported as is.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    started = time.monotonic()
    deadline = started + max_wall_seconds if max_wall_seconds is not None else None
    results: List[Optional[CellResult]] = [None] * len(payloads)
    outcomes: List[RunOutcome] = []
    blame: Dict[int, int] = {}
    context = get_context("spawn")
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    try:
        futures = {
            payload.index: pool.submit(run_cell, payload) for payload in payloads
        }
        deadline_swept = False
        for payload in payloads:
            while results[payload.index] is None:
                if (
                    deadline is not None
                    and not deadline_swept
                    and time.monotonic() >= deadline
                ):
                    # Cancel everything still pending in one sweep, before the
                    # executor's feeder thread can promote more cells into the
                    # call queue as running ones complete. Cells already fed
                    # refuse the cancel and are allowed to finish.
                    for future in futures.values():
                        future.cancel()
                    deadline_swept = True
                status, value = _await_cell(futures[payload.index], deadline)
                if status == "ok":
                    results[payload.index] = value
                elif status == "deadline":
                    results[payload.index] = CellResult(
                        deadline_outcome(payload.label, max_wall_seconds)
                    )
                elif isinstance(value, BrokenProcessPool):
                    # The pool died under some worker; we can only observe it
                    # at the cell we are waiting on. Blame it (bounded), then
                    # rebuild the pool and resubmit everything unfinished so
                    # innocent co-resident cells still complete.
                    blame[payload.index] = blame.get(payload.index, 0) + 1
                    if blame[payload.index] >= MAX_POOL_BREAK_BLAME:
                        results[payload.index] = _crash_result(payload, value, started)
                    pool, futures = _rebuild_pool(
                        pool, context, workers, payloads, futures, results
                    )
                    deadline_swept = False  # resubmitted cells need the sweep too
                else:
                    results[payload.index] = _crash_result(payload, value, started)
            cell = results[payload.index]
            outcomes.append(cell.outcome if finish is None else finish(payload, cell))
    finally:
        pool.shutdown(wait=False)
    return outcomes


def _crash_result(
    payload: CellPayload, exc: BaseException, started: float
) -> CellResult:
    """A failed cell whose worker died hard: one attempt, no shards."""
    return CellResult(
        failed_outcome(
            payload.label, exc, (payload.seed,), time.monotonic() - started
        )
    )


def _rebuild_pool(
    pool: ProcessPoolExecutor,
    context,
    workers: int,
    payloads: Sequence[CellPayload],
    futures: Dict[int, Any],
    results: List[Optional[CellResult]],
):
    """Replace a broken pool; resubmit every cell still owed a result.

    Cells whose futures already completed successfully keep their results;
    cells already finalized into ``results`` are skipped.
    """
    pool.shutdown(wait=False)
    fresh = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    rebuilt = dict(futures)
    for payload in payloads:
        if results[payload.index] is not None:
            continue
        future = futures[payload.index]
        if future.done() and not future.cancelled() and future.exception() is None:
            continue  # finished before the break; result is intact
        rebuilt[payload.index] = fresh.submit(run_cell, payload)
    return fresh, rebuilt
