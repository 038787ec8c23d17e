"""Per-layer self time, measured from outside the program.

The traced run of the benchmark wraps the public entry points of each
layer, and ``Simulator.schedule_at``, in spans kept by a :class:`SpanClock`.
Every callback the event loop dispatches then runs inside a span named for
the module that owns it, which also covers private callbacks such as
``Link._finish_transmission``. A layer's self time is the time during which
its span is the innermost open one.

Nothing here is imported by the untraced run, and nothing under ``src/``
is edited: the wrappers are installed on the imported classes and modules
and removed again by :meth:`Tracer.uninstall`. Wrapped code runs unchanged,
so simulated results stay bit-identical under tracing.
"""

from __future__ import annotations

import asyncio
import collections.abc
import functools
import importlib
import inspect
import selectors
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Layer:
    """One layer of the program, as the traced run sees it."""

    name: str
    #: Per-layer metric that reports this layer's self time.
    metric: str
    #: Module-name prefixes whose callbacks belong to this layer.
    modules: Tuple[str, ...]
    #: Public entry points wrapped in this layer's span, ``module:qualname``.
    entries: Tuple[str, ...]
    #: The end-to-end metric and workload a change to this layer should move.
    moves: str


LAYERS: Tuple[Layer, ...] = (
    Layer(
        "sim.dispatch",
        "sim.dispatch_self_s",
        ("repro.net.simulator",),
        ("repro.net.simulator:Simulator.run",),
        "cost_ms_p50 on sim_tcp and sim_web_faults",
    ),
    Layer(
        "net.link",
        "net.link.self_s",
        ("repro.net.link",),
        ("repro.net.link:Link.send",),
        "cost_ms_p50 on sim_tcp (most packets) and sim_web_faults",
    ),
    Layer(
        "net.queue",
        "net.queue.self_s",
        ("repro.net.queues",),
        ("repro.net.queues:DropTailQueue.offer", "repro.net.queues:DropTailQueue.take"),
        "cost_ms_p50 on sim_tcp and sim_web_faults",
    ),
    Layer(
        "net.node",
        "net.node.self_s",
        ("repro.net.node", "repro.net.topology", "repro.net.packet", "repro.net.multihop"),
        (
            "repro.net.node:Node.receive",
            "repro.net.node:Node.forward",
            "repro.net.node:Host.receive",
            "repro.net.node:Host.send",
        ),
        "cost_ms_p50 on sim_tcp and sim_web_faults",
    ),
    Layer(
        "net.monitor",
        "net.monitor.self_s",
        ("repro.net.monitor",),
        (
            "repro.net.monitor:QueueMonitor.on_enqueue",
            "repro.net.monitor:QueueMonitor.on_drop",
            "repro.net.monitor:QueueMonitor.on_dequeue",
        ),
        "cost_ms_p50 on sim_tcp and sim_web_faults",
    ),
    Layer(
        "net.faults",
        "net.faults.self_s",
        ("repro.net.faults",),
        ("repro.net.faults:FaultInjector.deliver", "repro.net.faults:FaultInjector.admit"),
        "cost_ms_p50 on sim_web_faults only; reads 0 on sim_tcp",
    ),
    Layer(
        "traffic",
        "traffic.self_s",
        ("repro.traffic",),
        (),
        "cost_ms_p50 on sim_tcp (ACK clocking, RTO re-arms) and sim_web_faults (flow churn)",
    ),
    Layer(
        "probe",
        "probe.self_s",
        ("repro.core.badabing", "repro.core.clock", "repro.core.jitter"),
        ("repro.core.badabing:BadabingTool.result", "repro.core.badabing:BadabingTool.probe_records"),
        "cost_ms_p50 on the sim workloads (small share); F-hat and D-hat must not move",
    ),
    Layer(
        "truth",
        "truth.self_s",
        ("repro.analysis",),
        (
            "repro.experiments.runner:compute_ground_truth",
            "repro.analysis.episodes:episodes_from_monitor",
        ),
        "cost_ms_p50 on the sim workloads",
    ),
    Layer(
        "audit",
        "audit.self_s",
        ("repro.obs.audit",),
        ("repro.obs.audit:audit_run", "repro.obs.audit:publish_audit"),
        "cost_ms_p50 on the sim workloads",
    ),
    Layer(
        "runner",
        "runner.build_self_s",
        ("repro.experiments",),
        (
            "repro.experiments.runner:sweep_badabing",
            "repro.experiments.runner:run_badabing",
        ),
        "cost_ms_p50 and setup_s on the sim workloads",
    ),
    Layer(
        "pipeline.mark",
        "pipeline.mark.self_s",
        ("repro.core.marking", "repro.core.schedule", "repro.core.batch"),
        (
            "repro.core.marking:CongestionMarker.mark",
            "repro.core.batch:mark_probe_arrays",
        ),
        "cost_ms_p50 on offline_remark; no measurable change on the sim workloads",
    ),
    Layer(
        "pipeline.fold",
        "pipeline.fold.self_s",
        ("repro.core.estimators", "repro.core.validation", "repro.core.streaming"),
        (
            "repro.io.traces:reestimate",
            "repro.io.traces:Measurement.outcomes",
            "repro.core.schedule:coverage_report",
            "repro.core.estimators:estimate_from_outcomes",
            "repro.core.estimators:estimate_from_counter",
            "repro.core.validation:validate_outcomes",
            "repro.core.validation:report_from_counter",
        ),
        "cost_ms_p50 on offline_remark",
    ),
    Layer(
        "io.load",
        "io.load.self_s",
        ("repro.io",),
        ("repro.io.traces:load_measurement", "repro.io.traces:load_measurement_binary"),
        "cost_ms_p50 on offline_remark only",
    ),
    Layer(
        "live.wire",
        "live.wire.self_s",
        ("repro.live.wire",),
        (
            "repro.live.wire:encode_probe",
            "repro.live.wire:encode_echo",
            "repro.live.wire:decode_header",
            "repro.live.wire:decode_echo",
            "repro.live.wire:encode_hello",
            "repro.live.wire:decode_hello",
            "repro.live.wire:encode_control",
        ),
        "cost_ms_p50 (launch lateness) on live_loopback; CPU per train is printed, not gated",
    ),
    Layer(
        "live.sender",
        "live.sender.self_s",
        ("repro.live.sender", "repro.live.runtime", "repro.live.session"),
        (
            "repro.live.sender:SenderProtocol.datagram_received",
            "repro.live.sender:LiveSender.probe_records",
        ),
        "cost_ms_p50 (launch lateness) on live_loopback; CPU per train is printed, not gated",
    ),
    Layer(
        "live.reflector",
        "live.reflector.self_s",
        ("repro.live.reflector", "repro.live.fleet", "repro.live.impair"),
        (
            "repro.live.reflector:ReflectorProtocol.datagram_received",
            "repro.live.reflector:ReflectorProtocol.result_for",
        ),
        "cost_ms_p50 (launch lateness) on live_loopback; CPU per train is printed, not gated",
    ),
    Layer(
        "live.idle",
        "live.idle.self_s",
        (),
        (),
        "none: time the event loop waits in select() for the next due train",
    ),
)

#: Callbacks whose owner no layer claims; their time counts as unattributed.
UNMAPPED = "unmapped"
#: Time outside every span (benchmark code between operations).
OUTSIDE = "outside"


class SpanClock:
    """Self time and call counts per layer, kept on an explicit span stack."""

    def __init__(self, names: List[str]):
        self.names = list(names) + [UNMAPPED, OUTSIDE]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self._stack = [self.index[OUTSIDE]]
        self._last = perf_counter()

    def reset(self) -> None:
        """Zero the totals; call only while no span is open."""
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self._stack = [self.index[OUTSIDE]]
        self._last = perf_counter()

    def snapshot(self) -> Dict[str, Tuple[float, int]]:
        """``{layer: (self seconds, calls)}`` including time up to now."""
        totals = list(self.self_s)
        totals[self._stack[-1]] += perf_counter() - self._last
        return {
            name: (totals[i], self.calls[i]) for i, name in enumerate(self.names)
        }

    def dispatch(self, layer: int, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self._stack
        now = perf_counter()
        self.self_s[stack[-1]] += now - self._last
        self._last = now
        stack.append(layer)
        self.calls[layer] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            now = perf_counter()
            self.self_s[stack.pop()] += now - self._last
            self._last = now

    def wrap(self, fn: Callable[..., Any], layer: int) -> Callable[..., Any]:
        """``fn`` with every call run inside a span of ``layer``."""
        dispatch = self.dispatch

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            return dispatch(layer, fn, *args, **kwargs)

        return span


class _SpanCoroutine(collections.abc.Coroutine):
    """A coroutine whose every step runs inside a span (asyncio task steps)."""

    def __init__(self, coro: Any, clock: SpanClock, layer: int):
        self._coro = coro
        self._send = clock.wrap(coro.send, layer)
        self._throw = clock.wrap(coro.throw, layer)

    def send(self, value: Any) -> Any:
        return self._send(value)

    def throw(self, *exc: Any) -> Any:
        return self._throw(*exc)

    def close(self) -> None:
        self._coro.close()

    def __await__(self):
        return self._coro.__await__()


class Tracer:
    """Installs the layer spans on the imported program and removes them."""

    def __init__(self, layers: Tuple[Layer, ...] = LAYERS):
        self.layers = layers
        self.clock = SpanClock([layer.name for layer in layers])
        self._owners: Dict[Any, int] = {}
        self._undo: List[Tuple[Any, str, Any]] = []
        #: Entry points named in the table that this program does not have.
        self.missing: List[str] = []
        self._prefixes = sorted(
            (
                (prefix, self.clock.index[layer.name])
                for layer in layers
                for prefix in layer.modules
            ),
            key=lambda item: -len(item[0]),
        )
        self._unmapped = self.clock.index[UNMAPPED]
        #: Every ``TcpSender`` built while installed (traffic flows).
        self.tcp_senders: List[Any] = []

    # ------------------------------------------------------------- owners
    def layer_of_module(self, module: Optional[str]) -> int:
        for prefix, layer in self._prefixes:
            if module == prefix or (module or "").startswith(prefix + "."):
                return layer
        return self._unmapped

    def owner(self, callback: Any) -> int:
        """Layer of the module that owns ``callback`` (cached per code object)."""
        fn = getattr(callback, "__func__", callback)
        key = getattr(fn, "__code__", None) or type(fn)
        layer = self._owners.get(key)
        if layer is None:
            module = getattr(fn, "__module__", None) or type(fn).__module__
            layer = self.layer_of_module(module)
            self._owners[key] = layer
        return layer

    # ------------------------------------------------------------ install
    def _set(self, target: Any, attr: str, value: Any) -> None:
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        """Wrap every entry point of the program.

        ``repro.experiments.runner`` is imported before anything in
        ``repro.net`` or ``repro.traffic``: importing either of those first
        fails on a circular import.
        """
        import repro.experiments.runner  # noqa: F401

        for layer in self.layers:
            for entry in layer.entries:
                self._wrap_entry(entry, self.clock.index[layer.name])
        from repro.net.node import Host
        from repro.net.simulator import Simulator
        from repro.traffic.tcp import TcpSender

        clock, owner = self.clock, self.owner
        schedule_at = Simulator.__dict__["schedule_at"]
        dispatch = clock.dispatch

        def traced_schedule_at(sim, time, callback, *args):
            return schedule_at(sim, time, dispatch, owner(callback), callback, *args)

        self._set(Simulator, "schedule_at", traced_schedule_at)
        bind = Host.__dict__["bind"]

        def traced_bind(host, protocol, port, receiver):
            return bind(host, protocol, port, clock.wrap(receiver, owner(receiver)))

        self._set(Host, "bind", traced_bind)
        sender_init = TcpSender.__dict__["__init__"]
        senders = self.tcp_senders

        @functools.wraps(sender_init)
        def counted_init(sender, *args, **kwargs):
            sender_init(sender, *args, **kwargs)
            senders.append(sender)

        self._set(TcpSender, "__init__", counted_init)
        asyncio.set_event_loop_policy(_TracedLoopPolicy(self))

    def _wrap_entry(self, entry: str, layer: int) -> None:
        module_name, _, qualname = entry.partition(":")
        try:
            target: Any = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(entry)
            return
        parts = qualname.split(".")
        for part in parts[:-1]:
            target = getattr(target, part, None)
        attr = parts[-1]
        original = getattr(target, "__dict__", {}).get(attr)
        if not inspect.isfunction(original):
            self.missing.append(entry)
            return
        wrapped = self.clock.wrap(original, layer)
        if inspect.isclass(target):
            self._set(target, attr, wrapped)
            return
        # A module-level function is also bound by name in every module
        # that imported it; rebind each of those references.
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
        asyncio.set_event_loop_policy(None)


class _TimedSelector(selectors.DefaultSelector):
    """The default selector, with each wait in ``select`` spanned as idle."""

    def __init__(self, clock: SpanClock):
        super().__init__()
        self._traced_select = clock.wrap(super().select, clock.index["live.idle"])

    def select(self, timeout=None):
        return self._traced_select(timeout)


class _TracedLoopPolicy(asyncio.DefaultEventLoopPolicy):
    """Event loops whose task steps and selector waits run inside spans."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def new_event_loop(self):
        tracer = self._tracer
        loop = asyncio.SelectorEventLoop(_TimedSelector(tracer.clock))

        def task_factory(loop, coro, context=None):
            frame = getattr(coro, "cr_frame", None)
            module = frame.f_globals.get("__name__") if frame is not None else None
            layer = tracer.layer_of_module(module)
            return asyncio.Task(
                _SpanCoroutine(coro, tracer.clock, layer), loop=loop, context=context
            )

        loop.set_task_factory(task_factory)
        return loop

