"""Pcap export: write simulated traffic as real capture files.

Attach a :class:`PcapWriter` to the border router's wired link and the
packets crossing it are serialised — genuine IPv6/TCP/UDP/ICMPv6 bytes
via the layer codecs — into a classic pcap file (LINKTYPE_RAW) that
Wireshark or tcpdump will open.  This is both a debugging tool and a
standing proof that the simulator's headers are wire-real.

Packets whose payload has no byte codec (bare test objects) are
zero-filled to their declared size, so lengths and timing stay exact
even then.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Optional

from repro.net.icmpv6 import IcmpEcho
from repro.net.ipv6 import Ipv6Packet
from repro.net.udp import UdpDatagram

PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_RAW = 101  # raw IP; the version nibble selects v4/v6


def _encode_payload(payload: object, declared_bytes: int) -> bytes:
    """Best-effort byte encoding of a transport payload."""
    # imported lazily: repro.core/app import repro.net, so a module-level
    # import here would close a cycle through the package __init__s
    from repro.app.coap import CoapMessage
    from repro.core.segment import Segment

    if isinstance(payload, Segment):
        return payload.encode()
    if isinstance(payload, UdpDatagram):
        inner = payload.payload
        if isinstance(inner, CoapMessage):
            body = inner.encode()
        elif isinstance(inner, (bytes, bytearray)):
            body = bytes(inner)
        else:
            body = bytes(payload.payload_bytes)
        return payload.encode_header() + body
    if isinstance(payload, IcmpEcho):
        return payload.encode()
    return bytes(declared_bytes)


def _encode_packet(packet: Ipv6Packet) -> bytes:
    """Full wire bytes of one (uncompressed) IPv6 packet."""
    return packet.encode_header() + _encode_payload(
        packet.payload, packet.payload_bytes
    )


class PcapWriter:
    """Streams packets into a pcap file."""

    def __init__(self, path: str, sim):
        self.path = path
        self.sim = sim
        self.packets_written = 0
        self._fh: Optional[BinaryIO] = open(path, "wb")
        self._fh.write(struct.pack(
            "<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, LINKTYPE_RAW
        ))

    def write(self, packet: Ipv6Packet) -> None:
        """Append one packet, timestamped with simulated time."""
        if self._fh is None:
            raise RuntimeError("capture already closed")
        data = _encode_packet(packet)
        seconds = int(self.sim.now)
        micros = int((self.sim.now - seconds) * 1e6)
        self._fh.write(struct.pack(
            "<IIII", seconds, micros, len(data), len(data)
        ))
        self._fh.write(data)
        self.packets_written += 1

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- attachment helpers -------------------------------------------
    def attach_wired(self, wired) -> None:
        """Capture everything offered to a WiredLink (including packets
        the link's loss injection then drops — they were on the wire)."""
        original = wired.send

        def tapped(packet, toward):
            self.write(packet)
            original(packet, toward)

        wired.send = tapped

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_pcap(path: str):
    """Parse a pcap file back into (header_dict, [(ts, bytes), ...]).

    Used by tests and handy for quick inspection without external tools.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 24:
        raise ValueError("truncated pcap file header")
    magic, major, minor, _tz, _sig, snaplen, network = struct.unpack_from(
        "<IHHiIII", raw, 0
    )
    if magic != PCAP_MAGIC:
        raise ValueError("not a (native-endian classic) pcap file")
    header = {"major": major, "minor": minor, "snaplen": snaplen,
              "network": network}
    records = []
    offset = 24
    while offset < len(raw):
        if offset + 16 > len(raw):
            raise ValueError("truncated pcap record header")
        sec, usec, incl, _orig = struct.unpack_from("<IIII", raw, offset)
        offset += 16
        if offset + incl > len(raw):
            raise ValueError("truncated pcap record")
        records.append((sec + usec / 1e6, raw[offset: offset + incl]))
        offset += incl
    return header, records
