"""Discrete-event simulation engine.

A deliberately small, fast event loop built on :mod:`heapq`. Everything in
the network substrate (links, queues, traffic sources, probe tools) schedules
callbacks on a shared :class:`Simulator`.

Determinism
-----------
Events scheduled for the same timestamp fire in scheduling order (a
monotonically increasing sequence number breaks ties), and all randomness is
drawn from :class:`random.Random` instances handed out by
:meth:`Simulator.rng`, each seeded from the simulator's master seed and a
caller-supplied label. Two runs with the same seed and the same scenario are
therefore bit-identical, which is what makes the paper's "repeatable lab
tests" property hold in this reproduction.
"""

from __future__ import annotations

import random
import time
from heapq import heappop, heappush
from math import inf, isnan
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry

Callback = Callable[..., None]


class _Event:
    """Handle for a scheduled callback. Cancellation just flips a flag (lazy
    deletion): the heap entry stays queued and is skipped when popped."""

    __slots__ = ("callback", "args", "cancelled")

    def __init__(self, callback: Callback, args: Tuple[Any, ...]):
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        self.cancelled = True


#: A heap entry. ``seq`` is unique, so ``heapq`` orders entries by comparing
#: ``(time, seq)`` in C and never reaches the event.
_Entry = Tuple[float, int, _Event]


class Simulator:
    """Event-driven simulator with a virtual clock.

    Parameters
    ----------
    seed:
        Master seed for all randomness in the simulation. Component RNGs are
        derived from it via :meth:`rng` so that adding a new random component
        does not perturb the streams of existing ones.
    """

    def __init__(
        self,
        seed: int = 1,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self._queue: List[_Entry] = []
        self._now = 0.0
        self._seq = 0
        self._running = False
        self.seed = seed
        self._rngs: Dict[str, random.Random] = {}
        #: Metrics registry shared by every component built on this
        #: simulator. On by default (cheap); pass a
        #: :class:`~repro.obs.metrics.NullRegistry` to disable.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # A sweep may share one registry across several simulators, so the
        # per-sim view subtracts the counter value seen at construction.
        self._events_counter = self.metrics.counter("sim.events_processed")
        self._events_base = self._events_counter.value
        self._cancelled_counter = self.metrics.counter("sim.events_cancelled")
        #: Deepest the event heap has ever been (plain int: hot path).
        self.heap_peak = 0
        #: Cumulative wall-clock seconds spent inside :meth:`run`.
        self.wall_seconds = 0.0
        #: True when the most recent :meth:`run` stopped because it hit its
        #: ``max_events`` budget (rather than draining or reaching ``until``).
        #: Runaway simulations are detectable by checking this after run().
        self.budget_exhausted = False
        if self.metrics.enabled:
            self.metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        # Point-in-time reading: ``sample`` pins the peak so a mid-run
        # exporter scrape cannot perturb the snapshot digest.
        registry.gauge("sim.pending_events").sample(self.pending())
        registry.gauge("sim.heap_peak").set(self.heap_peak)
        registry.gauge("sim.now_seconds").set(self._now)

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events dispatched by this simulator, backed by the metrics
        counter (shared registries subtract the pre-existing total)."""
        return self._events_counter.value - self._events_base

    # ------------------------------------------------------------------- rng
    def rng(self, label: str) -> random.Random:
        """Return a named, deterministically seeded random stream.

        Repeated calls with the same label return the same instance, so
        components can call ``sim.rng("tcp-7")`` freely.
        """
        stream = self._rngs.get(label)
        if stream is None:
            # hash(str) is randomized per-process, so derive the per-label
            # seed with a deterministic digest instead.
            stream = random.Random(_stable_seed(self.seed, label))
            self._rngs[label] = stream
        return stream

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callback, *args: Any) -> _Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callback, *args: Any) -> _Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``.

        Every callback enters the queue here; :meth:`schedule` delegates to
        this method.
        """
        if not time >= self._now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        self._seq = seq = self._seq + 1
        event = _Event(callback, args)
        queue = self._queue
        heappush(queue, (time, seq, event))
        if len(queue) > self.heap_peak:
            self.heap_peak = len(queue)
        return event

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Dispatch events until the queue empties or ``until`` is reached.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire.
        At return, the clock is advanced to ``until`` (if given), even if the
        queue drained earlier, so repeated ``run`` calls compose naturally.

        Returns the number of events dispatched by this call. When the call
        stops because ``max_events`` was exhausted (with work still pending),
        :attr:`budget_exhausted` is set so callers can tell a completed run
        from a truncated one. A NaN ``until`` raises :class:`SimulationError`.
        """
        if until is not None and isnan(until):
            raise SimulationError("run(until=nan): until must be a time or None")
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self.budget_exhausted = False
        horizon = inf if until is None else until
        budget = inf if max_events is None else max_events
        queue = self._queue
        dispatched = 0
        cancelled = 0
        wall_start = time.perf_counter()
        try:
            while queue and queue[0][0] <= horizon:
                when, _, event = heappop(queue)
                if event.cancelled:
                    cancelled += 1
                    continue
                self._now = when
                event.callback(*event.args)
                dispatched += 1
                if dispatched >= budget:
                    self.budget_exhausted = self.has_runnable(horizon)
                    break
        finally:
            self._running = False
            self._events_counter.inc(dispatched)
            self._cancelled_counter.inc(cancelled)
            self.wall_seconds += time.perf_counter() - wall_start
        if until is not None and self._now < until and not self.budget_exhausted:
            self._now = until
        return dispatched

    def has_runnable(self, horizon: float) -> bool:
        """Whether any live event at or before ``horizon`` remains queued."""
        return any(
            not event.cancelled and when <= horizon for when, _, event in self._queue
        )

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)


def _stable_seed(master_seed: int, label: str) -> int:
    """Deterministic seed derivation independent of PYTHONHASHSEED."""
    acc = 0xCBF29CE484222325  # FNV-1a 64-bit offset basis
    for byte in f"{master_seed}:{label}".encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc
