"""The live event loop: microsecond timers, one path, ``asyncio.run`` teardown."""

import asyncio
import statistics
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
