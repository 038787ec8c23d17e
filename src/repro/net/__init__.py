"""Packet-level discrete-event network simulator.

This subpackage is the substrate that replaces the paper's hardware testbed
(Cisco GSR routers, OC3 bottleneck, Endace DAG capture cards). It provides:

* :mod:`repro.net.simulator` — the event loop,
* :mod:`repro.net.packet` — packets,
* :mod:`repro.net.queues` — drop-tail (and RED) byte-limited FIFO queues,
* :mod:`repro.net.link` — serializing transmitters with propagation delay,
* :mod:`repro.net.node` — hosts and routers with static routing,
* :mod:`repro.net.topology` — topology builders, including the dumbbell
  testbed replica of the paper's Figure 3,
* :mod:`repro.net.monitor` — DAG-equivalent lossless queue taps used to
  establish ground truth,
* :mod:`repro.net.faults` — deterministic, composable fault injection
  (drop, bursty loss, reordering, duplication, flaps, collector outages).

Names resolve from here but load their submodule on first access
(:mod:`repro._lazy`).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "FAULT_PROFILES": "faults",
        "FaultInjector": "faults",
        "FaultProfile": "faults",
        "FaultStats": "faults",
        "resolve_fault_profile": "faults",
        "Simulator": "simulator",
        "Packet": "packet",
        "DropTailQueue": "queues",
        "REDQueue": "queues",
        "Link": "link",
        "Host": "node",
        "Router": "node",
        "Node": "node",
        "Topology": "topology",
        "DumbbellTestbed": "topology",
        "MultiHopTestbed": "multihop",
        "QueueMonitor": "monitor",
        "QueueSampler": "monitor",
    },
)
