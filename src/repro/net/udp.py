"""UDP: datagrams and a minimal per-node stack.

CoAP (the paper's §9 comparison protocol) rides on this.  The header is
8 bytes on the wire; inside the mesh it compresses through 6LoWPAN NHC
(see :func:`repro.lowpan.iphc.compressed_udp_bytes`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.lowpan.iphc import compressed_udp_bytes
from repro.net.ipv6 import PROTO_UDP, Ipv6Packet

UDP_HEADER_BYTES = 8


@dataclass
class UdpDatagram:
    """A UDP datagram: ports plus an opaque payload."""

    src_port: int
    dst_port: int
    payload: object
    payload_bytes: int

    def _wire_bytes(self, compressed: bool = True) -> int:
        """Wire size of header + payload."""
        if compressed:
            header = compressed_udp_bytes(self.src_port, self.dst_port)
        else:
            header = UDP_HEADER_BYTES
        return header + self.payload_bytes

    def encode_header(self) -> bytes:
        """Serialise the full 8-byte UDP header."""
        return struct.pack(
            "!HHHH",
            self.src_port,
            self.dst_port,
            (UDP_HEADER_BYTES + self.payload_bytes) & 0xFFFF,
            0,  # checksum placeholder
        )


def decode_header(data: bytes) -> Tuple[int, int, int]:
    """Parse a UDP header; returns (src_port, dst_port, length)."""
    if len(data) < UDP_HEADER_BYTES:
        raise ValueError("short UDP header")
    src, dst, length, _ = struct.unpack_from("!HHHH", data, 0)
    return src, dst, length


class UdpStack:
    """Port demultiplexing over an IPv6 layer (mesh node or cloud host)."""

    def __init__(self, network) -> None:
        """``network`` must provide send(...) and register(...)."""
        self.network = network
        self._ports: Dict[int, Callable[[UdpDatagram, Ipv6Packet], None]] = {}
        network.register(PROTO_UDP, self._on_packet)

    def bind(self, port: int, handler: Callable[[UdpDatagram, Ipv6Packet], None]) -> None:
        """Receive datagrams addressed to ``port``."""
        if port in self._ports:
            raise ValueError(f"port {port} already bound")
        self._ports[port] = handler

    def unbind(self, port: int) -> None:
        """Stop receiving on ``port``."""
        self._ports.pop(port, None)

    def send(
        self,
        dst: int,
        src_port: int,
        dst_port: int,
        payload: object,
        payload_bytes: int,
        dst_is_cloud: bool = False,
    ) -> None:
        """Send a datagram."""
        dgram = UdpDatagram(src_port, dst_port, payload, payload_bytes)
        self.network.send(
            dst,
            PROTO_UDP,
            dgram,
            dgram._wire_bytes(compressed=not dst_is_cloud),
            dst_is_cloud=dst_is_cloud,
        )

    def _on_packet(self, packet: Ipv6Packet) -> None:
        dgram = packet.payload
        if not isinstance(dgram, UdpDatagram):
            return
        handler = self._ports.get(dgram.dst_port)
        if handler is not None:
            handler(dgram, packet)
