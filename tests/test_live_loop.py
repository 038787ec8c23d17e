"""The live event loop: microsecond timers, one path, ``asyncio.run`` teardown."""

import asyncio
import statistics
import sys
import time

import pytest

from repro.experiments import fleetrun
from repro.live import fleet, runtime
from repro.live import loop as live_loop


def test_sleeps_wake_within_half_a_millisecond():
    """A 4.1 ms sleep: epoll rounds it up to 5 ms, about 0.9 ms late."""

    async def median_lateness():
        late = []
        for _ in range(20):
            started = time.perf_counter()
            await asyncio.sleep(0.0041)
            late.append(time.perf_counter() - started - 0.0041)
        return statistics.median(late)

    assert live_loop.run(median_lateness()) < 0.5e-3


@pytest.mark.parametrize(
    "module, wrapper, args, coroutine",
    [
        (runtime, "live_send", ("127.0.0.1", 9), "run_live_send"),
        (runtime, "live_reflect", (), "run_live_reflector"),
        (runtime, "live_loopback", (), "run_live_loopback"),
        (fleet, "fleet_loopback", (None,), "run_fleet_loopback"),
        (fleetrun, "fleet_run", ((),), "run_fleet"),
    ],
)
def test_sync_entry_points_run_on_the_live_loop(
    monkeypatch, module, wrapper, args, coroutine
):
    ran = []

    def fake_run(main):
        ran.append(main.cr_code.co_name)
        main.close()
        return "finished"

    monkeypatch.setattr(live_loop, "run", fake_run)
    assert getattr(module, wrapper)(*args) == "finished"
    assert ran == [coroutine]


def test_teardown_cancels_leftover_tasks_and_closes_the_loop():
    leftovers = []

    async def main():
        leftovers.append(asyncio.ensure_future(asyncio.sleep(3600)))
        return asyncio.get_running_loop()

    loop = live_loop.run(main())
    assert leftovers[0].cancelled()
    assert loop.is_closed()


def test_teardown_closes_async_generators():
    closed = []

    async def ticks():
        try:
            while True:
                yield
        finally:
            closed.append(True)

    async def main():
        generator = ticks()
        await generator.__anext__()
        return generator

    live_loop.run(main())
    assert closed == [True]


def test_an_error_propagates_and_the_loop_still_closes():
    loops = []

    async def main():
        loops.append(asyncio.get_running_loop())
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        live_loop.run(main())
    assert loops[0].is_closed()


def _timer_slack():
    return live_loop._prctl()(live_loop.PR_GET_TIMERSLACK, 0, 0, 0, 0)


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="timer slack is a Linux setting"
)
def test_the_loop_thread_runs_at_one_nanosecond_timer_slack():
    """Linux adds a thread's timer slack, 50 µs by default, to every select
    timeout; the loop drops it to 1 ns and puts back what it found."""
    prctl = live_loop._prctl()
    original = _timer_slack()
    seen = []

    async def read_slack():
        seen.append(_timer_slack())

    async def fail():
        await read_slack()
        raise ValueError("boom")

    try:
        prctl(live_loop.PR_SET_TIMERSLACK, 73_000, 0, 0, 0)
        live_loop.run(read_slack())
        after_return = _timer_slack()
        with pytest.raises(ValueError, match="boom"):
            live_loop.run(fail())
        after_raise = _timer_slack()
    finally:
        prctl(live_loop.PR_SET_TIMERSLACK, original, 0, 0, 0)
    assert seen == [1, 1]
    assert after_return == after_raise == 73_000


def test_the_loop_runs_where_prctl_does_not_exist(monkeypatch):
    async def main():
        await asyncio.sleep(0.001)
        return "ran"

    monkeypatch.setattr(live_loop, "_prctl", lambda: None)
    assert live_loop.run(main()) == "ran"
