"""TCP segments: flags, header arithmetic, and a byte codec.

Segments carry real application bytes through the simulator so tests
can assert end-to-end data integrity.  ``wire_bytes`` of a segment
without data is the exact header size (20 + padded options) — this is
what Table 6's "TCP: 20 B to 44 B" row measures (20 base + 12
timestamps + 12 for one SACK block hits the 44-byte maximum the paper
reports).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.core.options import TcpOptions

TCP_BASE_HEADER_BYTES = 20

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
FLAG_URG = 0x20
FLAG_ECE = 0x40
FLAG_CWR = 0x80


@dataclass(slots=True)
class Segment:
    """One TCP segment."""

    src_port: int
    dst_port: int
    seq: int
    ack: int = 0
    flags: int = 0
    window: int = 0
    options: TcpOptions = field(default_factory=TcpOptions)
    data: bytes = b""

    # -- flag helpers ---------------------------------------------------
    @property
    def syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & FLAG_RST)

    @property
    def ack_flag(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def psh(self) -> bool:
        return bool(self.flags & FLAG_PSH)

    @property
    def ece(self) -> bool:
        return bool(self.flags & FLAG_ECE)

    @property
    def cwr(self) -> bool:
        return bool(self.flags & FLAG_CWR)

    # -- sizes ----------------------------------------------------------
    @property
    def wire_bytes(self) -> int:
        """Header (20 + padded options) plus payload: what the segment
        costs on the wire."""
        return (TCP_BASE_HEADER_BYTES + self.options.wire_bytes()
                + len(self.data))

    @property
    def seg_len(self) -> int:
        """Sequence space consumed: data plus SYN/FIN."""
        return len(self.data) + (1 if self.syn else 0) + (1 if self.fin else 0)

    def _flag_names(self) -> str:
        """Human-readable flags for traces, e.g. 'SYN|ACK'."""
        names = []
        for bit, name in [
            (FLAG_SYN, "SYN"), (FLAG_FIN, "FIN"), (FLAG_RST, "RST"),
            (FLAG_PSH, "PSH"), (FLAG_ACK, "ACK"), (FLAG_ECE, "ECE"),
            (FLAG_CWR, "CWR"),
        ]:
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "-"

    # -- codec ----------------------------------------------------------
    def encode(self) -> bytes:
        """Serialise to wire bytes (checksum left zero)."""
        opt_bytes = self.options.encode()
        data_offset_words = (TCP_BASE_HEADER_BYTES + len(opt_bytes)) // 4
        off_flags = (data_offset_words << 12) | (self.flags & 0x0FFF)
        header = struct.pack(
            "!HHIIHHHH",
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            off_flags,
            self.window & 0xFFFF,
            0,  # checksum placeholder
            0,  # urgent pointer (unsupported, per §4.1)
        )
        return header + opt_bytes + self.data

    @classmethod
    def decode(cls, wire: bytes) -> "Segment":
        """Parse wire bytes back into a segment."""
        if len(wire) < TCP_BASE_HEADER_BYTES:
            raise ValueError("short TCP header")
        (src, dst, seq, ack, off_flags, window, _csum, _urg) = struct.unpack_from(
            "!HHIIHHHH", wire, 0
        )
        header_len = (off_flags >> 12) * 4
        if header_len < TCP_BASE_HEADER_BYTES or header_len > len(wire):
            raise ValueError("bad TCP data offset")
        options = TcpOptions.decode(wire[TCP_BASE_HEADER_BYTES:header_len])
        return cls(
            src_port=src,
            dst_port=dst,
            seq=seq,
            ack=ack,
            flags=off_flags & 0x0FFF,
            window=window,
            options=options,
            data=wire[header_len:],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Seg {self.src_port}->{self.dst_port} {self._flag_names()} "
            f"seq={self.seq} ack={self.ack} len={len(self.data)} wnd={self.window}>"
        )
