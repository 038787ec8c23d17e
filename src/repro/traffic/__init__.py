"""Traffic generators (the Iperf / infinite-TCP / Harpoon substrate).

* :mod:`repro.traffic.base` — application plumbing,
* :mod:`repro.traffic.udp` — datagram sources and sinks,
* :mod:`repro.traffic.cbr` — constant-bit-rate sources and the episodic
  overload driver that engineers constant-duration loss episodes (the
  paper's modified-Iperf scenarios),
* :mod:`repro.traffic.tcp` — a from-scratch TCP Reno/NewReno model,
* :mod:`repro.traffic.harpoon` — heavy-tailed web-like session traffic.

Names resolve from here but load their submodule on first access
(:mod:`repro._lazy`).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "Application": "base",
        "UdpSink": "udp",
        "UdpSource": "udp",
        "CbrSource": "cbr",
        "EpisodicCbrTraffic": "cbr",
        "TcpReceiver": "tcp",
        "TcpSender": "tcp",
        "start_tcp_flow": "tcp",
        "HarpoonWebTraffic": "harpoon",
    },
)
