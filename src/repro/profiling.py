"""Process-global active-profiler state (hot-path shim).

This lives at the package root rather than inside :mod:`repro.obs`
because the instrumented hot modules — §6.1 marking, the §5 estimator
fold, wire codecs, the runner's phases — must be able to read the
active profiler without importing ``repro.obs.__init__``, whose audit
layer imports ``repro.analysis`` and ``repro.core``.
The real profiler implementation, documents, and CLI plumbing live in
:mod:`repro.obs.profile`, which re-exports everything here; user code
should import from there.

A warm (per-run, per-phase) site opens a *scoped frame*, which is also a
trace span with its attributes while the active profiler carries a
tracer::

    with _profiling.profile_stage("marking.apply", n_probes=len(probes)):
        ...

A per-item site pays a single module-attribute read plus a ``None``
check, and opens a manual frame that stays aggregate only::

    from repro import profiling as _profiling

    prof = _profiling.ACTIVE
    frame = prof.start("wire.encode") if prof is not None else None
    try:
        ...
    finally:
        if prof is not None:
            prof.stop(frame)

With no profiler active (the default everywhere outside ``repro bench``
and ``--trace-out``) that is the entire cost, so profiling support adds
nothing measurable to un-profiled runs and *never* touches a metrics
registry — snapshot digests are byte-identical whether a profiler is
active or not.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

#: The process-global active profiler, or None. Read directly by hot
#: paths (``_profiling.ACTIVE``); set via :func:`set_active_profiler` /
#: :func:`profiling`.
ACTIVE: Optional[Any] = None


def active_profiler() -> Optional[Any]:
    """Return the active :class:`~repro.obs.profile.StageProfiler`, if any."""
    return ACTIVE


def active_tracer() -> Optional[Any]:
    """Return the :class:`~repro.obs.tracing.Tracer` of the active profiler,
    if one is active and carries a tracer."""
    prof = ACTIVE
    return prof.tracer if prof is not None else None


def set_active_profiler(profiler: Optional[Any]) -> Optional[Any]:
    """Install ``profiler`` as the process-global profiler.

    Returns the previously active profiler (which may be ``None``).
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = profiler
    return previous


@contextmanager
def profiling(profiler: Optional[Any]) -> Iterator[Optional[Any]]:
    """Scope ``profiler`` as the active profiler; restores the previous one.

    Nesting is safe: a sweep cell activating its own profiler inside a
    bench run shadows the bench profiler for the cell's duration and the
    bench profiler resumes afterwards.
    """
    global ACTIVE
    previous = set_active_profiler(profiler)
    try:
        yield ACTIVE
    finally:
        ACTIVE = previous


@contextmanager
def profile_stage(name: str, **attrs: Any) -> Iterator[Optional[Any]]:
    """Scoped frame on the active profiler; free no-op when none.

    The frame is also a span carrying ``attrs`` when the profiler has a
    tracer. For warm (per-run, per-phase) sites; per-item sites use the
    manual ``start``/``stop`` pattern from the module docstring instead,
    so an unprofiled call skips the generator and a traced one records
    no span.
    """
    prof = ACTIVE
    if prof is None:
        yield None
        return
    frame = prof.start(name, attrs)
    try:
        yield frame
    finally:
        prof.stop(frame)


def trace_event(name: str, **attrs: Any) -> None:
    """Record an instantaneous event on the active profiler's tracer.

    A no-op without a tracing profiler. It opens no frame, so any thread
    may call it (the telemetry exporter's does).
    """
    prof = ACTIVE
    if prof is not None:
        prof.event(name, attrs)
