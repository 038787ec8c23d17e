"""The event loop behind every synchronous live entry point.

The default loop that ``asyncio.run`` builds waits in epoll, whose timeout
is a whole number of milliseconds, rounded up: a probe train due at an
absolute deadline would leave 0–1 ms after it however fast the host is.
:func:`run` runs a coroutine on a :class:`asyncio.SelectorEventLoop` over
``select(2)`` instead, whose timeval timeout carries microseconds, so a sleep
to a train's deadline wakes within the kernel's timer slack.

That slack is 50 µs for a normal thread by default, and Linux adds it to
every ``select(2)`` timeout. :func:`run` sets the calling thread's slack to
1 ns with ``prctl(PR_SET_TIMERSLACK)`` for as long as the loop runs and
restores the previous value on the way out; where ``prctl`` does not exist,
the slack stays as it is.

``select(2)`` watches only descriptors below ``FD_SETSIZE`` (1024). A live
process opens one UDP socket per session, plus the loop's own self-pipe and
an exporter's listening socket; the 50-session fleet soak holds about 60
(DESIGN.md §10).

Teardown is ``asyncio.run``'s: tasks still pending are cancelled and
awaited, async generators and the default executor shut down, and the loop
closed. Only Python 3.9 API is used.
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Awaitable, TypeVar

T = TypeVar("T")

#: ``prctl(2)`` options from ``<linux/prctl.h>``.
PR_SET_TIMERSLACK = 29
PR_GET_TIMERSLACK = 30


def run(main: Awaitable[T]) -> T:
    """Run ``main`` to completion on a fresh ``select(2)`` loop, then close it.

    The calling thread's timer slack is 1 ns while the loop runs.
    """
    prctl = _prctl()
    slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0) if prctl is not None else -1
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        if slack > 0:
            prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0)
        asyncio.set_event_loop(loop)
        return loop.run_until_complete(main)
    finally:
        try:
            _cancel_pending(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            asyncio.set_event_loop(None)
            loop.close()
            if slack > 0:
                prctl(PR_SET_TIMERSLACK, slack, 0, 0, 0)


def _prctl():
    """The C library's ``prctl``, or None where there is none (not Linux)."""
    import ctypes

    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError, TypeError):
        return None
    prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    prctl.restype = ctypes.c_int
    return prctl


def _cancel_pending(loop: asyncio.AbstractEventLoop) -> None:
    """Cancel and await every task left on ``loop``; report any that failed."""
    pending = asyncio.all_tasks(loop)
    if not pending:
        return
    for task in pending:
        task.cancel()
    loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
    for task in pending:
        if not task.cancelled() and task.exception() is not None:
            loop.call_exception_handler(
                {
                    "message": "unhandled exception during live loop shutdown",
                    "exception": task.exception(),
                    "task": task,
                }
            )
