"""Live-wire probing runtime: BADABING over real UDP sockets.

Everything else in this repository measures a *simulated* path; this
subpackage runs the identical geometric probe process against a real
network using asyncio UDP endpoints and the monotonic wall clock:

* :mod:`repro.live.wire` — the compact binary wire format (30-byte
  header, fuzz-resistant decoding),
* :mod:`repro.live.session` — spec quantization, schedule regeneration,
  and the send/receive log join shared by both ends,
* :mod:`repro.live.sender` — the schedule walker (absolute-deadline
  pacing, graceful budget/Ctrl-C degradation),
* :mod:`repro.live.reflector` — the crash-proof echo/sink far end,
* :mod:`repro.live.fleet` — the multi-tenant hardening layer (admission
  control, idle eviction, token-bucket backpressure, session watchdog)
  and the many-session loopback soak harness,
* :mod:`repro.live.impair` — deterministic receiver-side loss emulation
  for loopback testing,
* :mod:`repro.live.runtime` — orchestration, streaming validation, and
  the synchronous ``live_send`` / ``live_reflect`` / ``live_loopback``
  entry points behind the CLI,
* :mod:`repro.live.loop` — the ``select(2)`` event loop, with microsecond
  timers, that every synchronous entry point runs on,
* :mod:`repro.live.controller` — the adaptive fleet controller: a
  deterministic, fake-clock-drivable rebalancing loop that spends one
  global probe budget across a roster of paths, weighted toward the
  ones whose §5.4 validator signals have not converged (asyncio driver
  in :mod:`repro.experiments.fleetrun`).

Estimation never forks: live records funnel into the same
:func:`repro.core.result.assemble_result` path as simulator runs, so a
live result is a plain :class:`~repro.core.result.BadabingResult` that
``analyze``, ``obs audit``, and the report tooling consume unchanged.
Names resolve from here but load their submodule on first access
(:mod:`repro._lazy`); no live module imports the runner, the traffic
models or the simulated topology.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "CONTROLLER_SCHEMA": "controller",
        "ControllerPolicy": "controller",
        "FleetController": "controller",
        "LaunchDirective": "controller",
        "PathTarget": "controller",
        "read_controller_events": "controller",
        "shard_label": "controller",
        "validate_controller_file": "controller",
        "validate_controller_record": "controller",
        "FleetLoopbackResult": "fleet",
        "FleetPolicy": "fleet",
        "FleetReflectorProtocol": "fleet",
        "LiveRunResult": "runtime",
        "LiveSender": "sender",
        "SessionReport": "fleet",
        "TokenBucket": "fleet",
        "fleet_loopback": "fleet",
        "run_fleet_loopback": "fleet",
        "start_fleet_reflector": "fleet",
        "ProbeHeader": "wire",
        "ReceiverImpairment": "impair",
        "ReflectorProtocol": "reflector",
        "ReflectorSession": "reflector",
        "ReflectorSummary": "runtime",
        "SenderProtocol": "sender",
        "SenderStats": "sender",
        "SessionSpec": "wire",
        "StreamingMonitor": "runtime",
        "bernoulli_drop": "impair",
        "build_impairment": "impair",
        "config_from_spec": "session",
        "live_loopback": "runtime",
        "live_reflect": "runtime",
        "live_send": "runtime",
        "make_session_id": "session",
        "open_sender": "sender",
        "probe_records_from_arrivals": "session",
        "probe_records_from_logs": "session",
        "run_live_loopback": "runtime",
        "run_live_reflector": "runtime",
        "run_live_send": "runtime",
        "schedule_from_spec": "session",
        "spec_for": "session",
        "start_reflector": "reflector",
    },
)
