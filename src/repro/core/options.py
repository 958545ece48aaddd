"""TCP header options: MSS, SACK, timestamps (RFC 793/2018/7323).

TCPlp retains the option set that matters in LLNs (Table 1): the MSS
option to negotiate frame-aligned segments, TCP timestamps so RTT can
be measured even on retransmissions, and selective acknowledgments.
Window scaling is deliberately absent — §4.1 notes buffers never grow
past 64 KiB on these platforms.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

KIND_EOL = 0
KIND_NOP = 1
KIND_MSS = 2
KIND_SACK_PERMITTED = 4
KIND_SACK = 5
KIND_TIMESTAMPS = 8


@dataclass(slots=True)
class TcpOptions:
    """Options attached to one segment."""

    mss: Optional[int] = None  # SYN only
    sack_permitted: bool = False  # SYN only
    sack_blocks: List[Tuple[int, int]] = field(default_factory=list)
    ts_val: Optional[int] = None
    ts_ecr: Optional[int] = None

    @property
    def has_timestamps(self) -> bool:
        return self.ts_val is not None

    def wire_bytes(self) -> int:
        """Encoded size with per-option NOP alignment (FreeBSD layout:
        each option starts on a 4-byte boundary, e.g. NOP NOP TS = 12)."""
        size = 0
        if self.mss is not None:
            size += 4
        if self.sack_permitted:
            size += 4  # NOP NOP SACK-permitted
        if self.ts_val is not None:  # has_timestamps
            size += 12  # NOP NOP timestamps
        if self.sack_blocks:
            size += 4 + 8 * len(self.sack_blocks)  # NOP NOP SACK hdr blocks
        return size

    def encode(self) -> bytes:
        """Serialise with FreeBSD-style per-option NOP alignment."""
        out = bytearray()
        if self.mss is not None:
            out += struct.pack("!BBH", KIND_MSS, 4, self.mss)
        if self.sack_permitted:
            out += bytes([KIND_NOP, KIND_NOP])
            out += struct.pack("!BB", KIND_SACK_PERMITTED, 2)
        if self.has_timestamps:
            out += bytes([KIND_NOP, KIND_NOP])
            out += struct.pack(
                "!BBII", KIND_TIMESTAMPS, 10, self.ts_val & 0xFFFFFFFF,
                (self.ts_ecr or 0) & 0xFFFFFFFF,
            )
        if self.sack_blocks:
            out += bytes([KIND_NOP, KIND_NOP])
            out += struct.pack("!BB", KIND_SACK, 2 + 8 * len(self.sack_blocks))
            for left, right in self.sack_blocks:
                out += struct.pack("!II", left & 0xFFFFFFFF, right & 0xFFFFFFFF)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "TcpOptions":
        """Parse an options blob back into structured form."""
        opts = cls()
        i = 0
        while i < len(data):
            kind = data[i]
            if kind == KIND_EOL:
                break
            if kind == KIND_NOP:
                i += 1
                continue
            if i + 1 >= len(data):
                raise ValueError("truncated TCP option")
            length = data[i + 1]
            if length < 2 or i + length > len(data):
                raise ValueError("malformed TCP option length")
            if (kind == KIND_MSS and length != 4
                    or kind == KIND_TIMESTAMPS and length != 10
                    or kind == KIND_SACK and (length - 2) % 8):
                raise ValueError(f"bad length {length} for TCP option {kind}")
            body = data[i + 2 : i + length]
            if kind == KIND_MSS:
                (opts.mss,) = struct.unpack("!H", body)
            elif kind == KIND_SACK_PERMITTED:
                opts.sack_permitted = True
            elif kind == KIND_TIMESTAMPS:
                opts.ts_val, opts.ts_ecr = struct.unpack("!II", body)
            elif kind == KIND_SACK:
                opts.sack_blocks = [
                    struct.unpack_from("!II", body, off)
                    for off in range(0, len(body), 8)
                ]
            i += length
        return opts
