"""The border router's wired uplink and the cloud endpoint.

In the paper's application study (§9.2), nodes send data through the
border router to a server on Amazon EC2; the wired RTT is about 12 ms,
negligible against the ~300 ms in-mesh RTT.  :class:`WiredLink` models
that path as a fixed one-way delay with an injectable uniform packet
loss rate — the §9.4 "loss injected at the border router" knob.

:class:`CloudHost` is the Linux/EC2 endpoint: it exposes the same
``register``/``send`` surface as a mesh node's network layer so the
same TCP and CoAP implementations run unmodified on it (the paper runs
an actual Linux TCP stack and Californium there; we run TCPlp with
full-scale buffer sizes, which the paper argues is protocol-equivalent).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.net.ipv6 import Ipv6Packet, register_once
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder


class WiredLink:
    """A symmetric fixed-delay link with injectable packet loss."""

    def __init__(
        self,
        sim: Simulator,
        rng: RngStreams,
        one_way_delay: float = 0.006,
        loss_rate: float = 0.0,
        stream: str = "wired-loss",
        loss_direction: str = "both",  # "both", "to_cloud", "to_mesh"
    ):
        self.sim = sim
        self.rng = rng
        self.one_way_delay = one_way_delay
        self.loss_rate = loss_rate
        self.stream = stream
        self.loss_direction = loss_direction
        self.cloud_ids: set = set()
        self._receivers: Dict[int, Callable[[Ipv6Packet], None]] = {}
        self.packets_dropped = 0
        self.packets_delivered = 0

    def connect(self, node_id: int, receiver: Callable[[Ipv6Packet], None]) -> None:
        """Attach an endpoint."""
        self._receivers[node_id] = receiver

    def send(self, packet: Ipv6Packet, toward: int) -> None:
        """Send a packet to the endpoint registered as ``toward``.

        This is where §9.4's uniform loss is injected: it applies to
        whole packets (after link retries and 6LoWPAN reassembly), in
        both directions.
        """
        receiver = self._receivers.get(toward)
        if receiver is None:
            raise ValueError(f"no wired endpoint {toward}")
        if self.loss_rate > 0 and self._loss_applies(toward):
            if self.rng.random(self.stream) < self.loss_rate:
                self.packets_dropped += 1
                return
        self.packets_delivered += 1
        self.sim.schedule(self.one_way_delay, receiver, packet)

    def _loss_applies(self, toward: int) -> bool:
        if self.loss_direction == "both":
            return True
        toward_cloud = toward in self.cloud_ids
        if self.loss_direction == "to_cloud":
            return toward_cloud
        if self.loss_direction == "to_mesh":
            return not toward_cloud
        raise ValueError(f"bad loss_direction {self.loss_direction}")


class CloudHost:
    """An unconstrained server endpoint behind the border router."""

    def __init__(self, sim: Simulator, node_id: int, trace: Optional[TraceRecorder] = None):
        self.sim = sim
        self.node_id = node_id
        self.trace = trace or TraceRecorder()
        self.wired: Optional[WiredLink] = None
        self.gateway_id: Optional[int] = None
        self._handlers: Dict[int, Callable[[Ipv6Packet], None]] = {}

    def attach(self, wired: WiredLink, gateway_id: int) -> None:
        """Connect this host to the border router via ``wired``."""
        self.wired = wired
        self.gateway_id = gateway_id
        wired.cloud_ids.add(self.node_id)
        wired.connect(self.node_id, self.deliver)

    def register(self, next_header: int, handler: Callable[[Ipv6Packet], None]) -> None:
        """Register the transport handler for a protocol number (the
        same surface and one-per-protocol rule as Ipv6Layer)."""
        register_once(self._handlers, self.node_id, next_header, handler)

    def send(
        self,
        dst: int,
        next_header: int,
        payload: object,
        payload_bytes: int,
        ecn: int = 0,
        dst_is_cloud: bool = False,
    ) -> None:
        """Originate a packet toward the mesh (or another cloud host)."""
        if self.wired is None or self.gateway_id is None:
            raise RuntimeError("cloud host not attached to a wired link")
        packet = Ipv6Packet(
            src=self.node_id,
            dst=dst,
            next_header=next_header,
            payload=payload,
            payload_bytes=payload_bytes,
            ecn=ecn,
            src_is_cloud=True,
            dst_is_cloud=dst_is_cloud,
        )
        self.trace.counters.incr("cloud.sent")
        self.wired.send(packet, toward=self.gateway_id)

    def deliver(self, packet: Ipv6Packet) -> None:
        """A packet arrived over the wired link."""
        handler = self._handlers.get(packet.next_header)
        if handler is None:
            self.trace.counters.incr("cloud.no_handler")
            return
        self.trace.counters.incr("cloud.delivered")
        handler(packet)
