"""Packets.

A :class:`Packet` models one IP datagram. Headers are not serialized — fields
that a real header would carry (source, destination, protocol demux key,
sequence numbers, timestamps) are plain attributes. ``size`` is the full
on-the-wire size in bytes and is what links and queues account.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

#: Global monotonically increasing packet id source. Per-packet identity is
#: used by the monitors to match ingress/egress observations exactly the way
#: the paper matched DAG traces by header content.
_packet_ids = itertools.count(1)


class Packet:
    """One simulated datagram.

    Parameters
    ----------
    src, dst:
        Node names (strings). Routing is by ``dst``.
    size:
        On-the-wire size in bytes, including all headers.
    protocol:
        Demultiplexing key at the destination host (e.g. ``"udp"``/``"tcp"``).
    port:
        Application demux key within the protocol.
    payload:
        Arbitrary application data. Traffic generators and probe tools attach
        dataclasses/dicts here; the network layers never inspect it.
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "size",
        "protocol",
        "port",
        "payload",
        "flow",
        "created_at",
        "enqueued_at",
        "metadata",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        size: int,
        protocol: str = "udp",
        port: int = 0,
        payload: Any = None,
        flow: Optional[str] = None,
    ):
        if not size > 0:  # also rejects NaN
            raise ValueError(f"packet size must be positive, got {size}")
        self.pid = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.size = size
        self.protocol = protocol
        self.port = port
        self.payload = payload
        #: Flow label for per-flow accounting (defaults to src->dst pair).
        self.flow = flow if flow is not None else f"{src}->{dst}"
        #: Stamped by the sending application (virtual time).
        self.created_at: float = -1.0
        #: Stamped by the queue currently holding the packet.
        self.enqueued_at: float = -1.0
        #: Free-form per-packet annotations (used sparingly; costs memory).
        self.metadata: Optional[Dict[str, Any]] = None

    def note(self, key: str, value: Any) -> None:
        """Attach an annotation, creating the metadata dict lazily."""
        if self.metadata is None:
            self.metadata = {}
        self.metadata[key] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(pid={self.pid}, {self.src}->{self.dst}, {self.size}B, "
            f"{self.protocol}:{self.port}, flow={self.flow!r})"
        )
