"""IPv6 packets and the per-node network layer.

Packets carry ECN codepoints (RFC 3168) so the RED/ECN experiments of
Appendix A work end to end: TCPlp sets ECT(0) on data segments, RED
relays set CE instead of dropping, and the receiver echoes ECE.

The layer decides, per packet, whether it is travelling inside the mesh
(both addresses covered by the 6LoWPAN context — the cheap case of
Table 6) or to/from the cloud (destination carried inline), and hands
the compressed datagram to the 6LoWPAN adaptation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.lowpan.iphc import (
    PROTO_TCP,  # noqa: F401  (re-exported: repro.net's canonical home)
    PROTO_UDP,  # noqa: F401  (re-exported: repro.net's canonical home)
    CompressionContext,
    compressed_ipv6_bytes,
)
from repro.net.addr import cloud_address, mesh_address
from repro.sim.trace import TraceRecorder

# ECN codepoints (RFC 3168)
ECN_NOT_ECT = 0b00
ECN_ECT1 = 0b01
ECN_ECT0 = 0b10
ECN_CE = 0b11

IPV6_HEADER_BYTES = 40


@dataclass
class Ipv6Packet:
    """An IPv6 packet moving through the simulator.

    ``payload_bytes`` is the wire size of the transport header plus
    application data; the (compressed) IPv6 header is added by the
    network layer when computing the datagram size.
    """

    src: int  # simulator node id
    dst: int
    next_header: int
    payload: object
    payload_bytes: int
    hop_limit: int = 64
    ecn: int = ECN_NOT_ECT
    src_is_cloud: bool = False
    dst_is_cloud: bool = False

    def _compression_context(self) -> CompressionContext:
        """How much of this packet's header a mesh node can elide."""
        return CompressionContext(
            src_prefix_context=not self.src_is_cloud,
            src_iid_from_mac=not self.src_is_cloud,
            dst_prefix_context=not self.dst_is_cloud,
            dst_iid_from_mac=not self.dst_is_cloud,
            hop_limit_compressible=self.hop_limit in (1, 64, 255),
            ecn_present=self.ecn != ECN_NOT_ECT,
        )

    def _compressed_header_bytes(self) -> int:
        """Wire size of the IPHC-compressed IPv6 header."""
        return compressed_ipv6_bytes(self.next_header, self._compression_context())

    def datagram_bytes(self) -> int:
        """Compressed header + payload: the 6LoWPAN datagram size."""
        return self._compressed_header_bytes() + self.payload_bytes

    # ------------------------------------------------------------------
    # byte codec (uncompressed form, used on the wired side and by tests)
    # ------------------------------------------------------------------
    def encode_header(self) -> bytes:
        """Serialise the full 40-byte IPv6 header."""
        src = cloud_address(self.src) if self.src_is_cloud else mesh_address(self.src)
        dst = cloud_address(self.dst) if self.dst_is_cloud else mesh_address(self.dst)
        vtc_flow = (6 << 28) | (self.ecn << 20)
        return struct.pack(
            "!IHBB16s16s",
            vtc_flow,
            self.payload_bytes & 0xFFFF,
            self.next_header,
            self.hop_limit,
            src.packed,
            dst.packed,
        )


def decode_header(data: bytes) -> Ipv6Packet:
    """Parse a 40-byte IPv6 header back into a packet shell."""
    from repro.net.addr import is_mesh, node_id_of
    import ipaddress

    if len(data) < IPV6_HEADER_BYTES:
        raise ValueError("short IPv6 header")
    vtc_flow, length, nh, hl, src_raw, dst_raw = struct.unpack_from(
        "!IHBB16s16s", data, 0
    )
    if vtc_flow >> 28 != 6:
        raise ValueError("not an IPv6 packet")
    src = ipaddress.IPv6Address(src_raw)
    dst = ipaddress.IPv6Address(dst_raw)
    return Ipv6Packet(
        src=node_id_of(src),
        dst=node_id_of(dst),
        next_header=nh,
        payload=None,
        payload_bytes=length,
        hop_limit=hl,
        ecn=(vtc_flow >> 20) & 0x3,
        src_is_cloud=not is_mesh(src),
        dst_is_cloud=not is_mesh(dst),
    )


def register_once(handlers: Dict[int, Callable[[Ipv6Packet], None]],
                  node_id: int, next_header: int,
                  handler: Callable[[Ipv6Packet], None]) -> None:
    """Install ``handler`` for ``next_header``; an endpoint has one
    transport stack per protocol."""
    if next_header in handlers:
        raise ValueError(f"node {node_id} already has a handler for "
                         f"protocol {next_header}")
    handlers[next_header] = handler


class Ipv6Layer:
    """The network layer of one mesh node."""

    def __init__(self, sim, node_id: int, routing, trace: Optional[TraceRecorder] = None):
        self.sim = sim
        self.node_id = node_id
        self.routing = routing
        self.trace = trace or TraceRecorder()
        self.adaptation = None  # set by Node after construction
        self.wired_links: Dict[int, object] = {}  # neighbor id -> WiredLink
        self._handlers: Dict[int, Callable[[Ipv6Packet], None]] = {}
        #: optional packet queue for per-hop forwarding (RED, Appendix A)
        self.forward_queue = None
        self._forward_busy = False
        #: optional hook observing every packet sent (loss injection, tests)
        self.pre_route_hook: Optional[Callable[[Ipv6Packet], bool]] = None
        #: optional skewed timestamp clock (sim-seconds -> 32-bit ms);
        #: picked up by TCP connections built over this layer
        self.ts_clock: Optional[Callable[[float], int]] = None
        #: TCP stacks bound to this layer (fault injection crashes them)
        self.tcp_stacks: List[object] = []
        self._bus = getattr(sim, "trace_bus", None)

    def register(self, next_header: int, handler: Callable[[Ipv6Packet], None]) -> None:
        """Register the transport handler for a protocol number: one per
        protocol, so a second stack on this node raises."""
        register_once(self._handlers, self.node_id, next_header, handler)

    # ------------------------------------------------------------------
    # origination
    # ------------------------------------------------------------------
    def send(
        self,
        dst: int,
        next_header: int,
        payload: object,
        payload_bytes: int,
        ecn: int = ECN_NOT_ECT,
        dst_is_cloud: bool = False,
    ) -> None:
        """Originate a packet from this node."""
        packet = Ipv6Packet(
            src=self.node_id,
            dst=dst,
            next_header=next_header,
            payload=payload,
            payload_bytes=payload_bytes,
            ecn=ecn,
            dst_is_cloud=dst_is_cloud,
        )
        self.route_out(packet)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route_out(self, packet: Ipv6Packet) -> None:
        """Send a packet toward its destination (origination or forward)."""
        if self.pre_route_hook is not None and not self.pre_route_hook(packet):
            self.trace.counters.incr("ipv6.hook_drops")
            return
        next_hop = self.routing.next_hop(self.node_id, packet.dst)
        if next_hop is None:
            self.trace.counters.incr("ipv6.no_route")
            return
        wired = self.wired_links.get(next_hop)
        if wired is not None:
            self.trace.counters.incr("ipv6.sent_wired")
            wired.send(packet, toward=next_hop)
            return
        if self.adaptation is None:
            raise RuntimeError("network layer not bound to an adaptation layer")
        self.trace.counters.incr("ipv6.sent_mesh")
        self.adaptation.send_packet(
            packet, packet.datagram_bytes(), next_hop, packet.dst
        )

    # ------------------------------------------------------------------
    # reception (from 6LoWPAN or the wired link)
    # ------------------------------------------------------------------
    def deliver(self, packet: Ipv6Packet) -> None:
        """A packet reassembled at this node: demux or forward."""
        if packet.dst == self.node_id and not packet.dst_is_cloud:
            handler = self._handlers.get(packet.next_header)
            if handler is None:
                self.trace.counters.incr("ipv6.no_handler")
                return
            self.trace.counters.incr("ipv6.delivered")
            handler(packet)
            return
        self.forward(packet)

    def forward(self, packet: Ipv6Packet) -> None:
        """Forward a whole packet (per-hop reassembly or wired ingress)."""
        packet.hop_limit -= 1
        if packet.hop_limit <= 0:
            self.trace.counters.incr("ipv6.hop_limit_exceeded")
            return
        self.trace.counters.incr("ipv6.forwards")
        if self.forward_queue is not None:
            self._enqueue_forward(packet)
        else:
            self.route_out(packet)

    def _enqueue_forward(self, packet: Ipv6Packet) -> None:
        action = self.forward_queue.enqueue(packet)
        if action == "drop":
            self.trace.counters.incr("ipv6.queue_drops")
            if self._bus is not None:
                self._bus.emit("net", self.node_id, "queue_drop",
                               src=packet.src, dst=packet.dst)
            return
        if action == "mark":
            self.trace.counters.incr("ipv6.ecn_marks")
        self._pump_forward()

    def _pump_forward(self) -> None:
        if self._forward_busy or self.forward_queue is None:
            return
        packet = self.forward_queue.dequeue()
        if packet is None:
            return
        self._forward_busy = True
        next_hop = self.routing.next_hop(self.node_id, packet.dst)
        if next_hop is None:
            self.trace.counters.incr("ipv6.no_route")
            self._forward_busy = False
            self._pump_forward()
            return
        self.adaptation.send_packet(
            packet,
            packet.datagram_bytes(),
            next_hop,
            packet.dst,
            on_done=self._forward_done,
        )

    def _forward_done(self, success: bool) -> None:
        self._forward_busy = False
        self._pump_forward()
