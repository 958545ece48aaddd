"""IEEE 802.15.4 frame formats and byte codec.

The paper's Table 6 charges 23 bytes of 802.15.4 overhead per data
frame.  That is the long-address data frame layout::

    FCF(2) + Seq(1) + Dst PAN(2) + Dst64(8) + Src64(8) + FCS(2) = 23

Immediate ACKs are 5-byte MPDUs (FCF + Seq + FCS) and data-request MAC
commands add a 1-byte command identifier.  The simulator carries frames
as objects (``payload`` is the upper-layer fragment) but the codec
serialises real bytes so header arithmetic is checked, not assumed.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Optional

# The broadcast short address: the radio's address filter knows it
# too, so the one definition lives below the MAC.
from repro.phy.params import BROADCAST

DATA_HEADER_BYTES = 23  # includes the 2-byte FCS trailer
ACK_FRAME_BYTES = 5
COMMAND_ID_BYTES = 1

_FCF_KIND = {0x1: "data", 0x2: "ack", 0x3: "command"}
_KIND_FCF = {v: k for k, v in _FCF_KIND.items()}


class FrameKind(enum.Enum):
    """Frame types the MAC uses."""

    DATA = "data"
    ACK = "ack"
    DATA_REQUEST = "command"  # the only MAC command we use


@dataclass(init=False, slots=True)
class Frame:
    """A MAC frame in flight.

    ``payload`` is an upper-layer object (a 6LoWPAN fragment);
    ``payload_bytes`` is its wire size, which together with the MAC
    header determines air time.
    """

    kind: FrameKind
    src: int
    dst: int
    seq: int = 0
    pending: bool = False  # "frame pending" bit (indirect-queue signal)
    ack_request: bool = True
    payload: object = None
    payload_bytes: int = 0
    #: filled by MAC for tracing: retries used to deliver this frame
    retries_used: int = field(default=0, compare=False)
    #: MPDU size in bytes (drives air time); computed once at creation —
    #: kind and payload size are fixed, and the MAC/PHY consult this for
    #: every load, CCA and delivery
    byte_size: int = field(init=False, repr=False, compare=False)
    #: an Imm-ACK carries no addresses on the wire (``src``/``dst`` are
    #: simulator bookkeeping): the radio's address filter matches it by
    #: sequence number instead of by ``dst``
    is_ack: bool = field(init=False, repr=False, compare=False)

    # Written out (the dataclass still generates __eq__ and __repr__)
    # so a frame costs one call to build, not __init__ + __post_init__.
    def __init__(self, kind: FrameKind, src: int, dst: int, seq: int = 0,
                 pending: bool = False, ack_request: bool = True,
                 payload: object = None, payload_bytes: int = 0,
                 retries_used: int = 0) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.seq = seq
        self.pending = pending
        self.ack_request = ack_request
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.retries_used = retries_used
        is_ack = self.is_ack = kind is FrameKind.ACK
        if is_ack:
            self.byte_size = ACK_FRAME_BYTES
        elif kind is FrameKind.DATA_REQUEST:
            self.byte_size = DATA_HEADER_BYTES + COMMAND_ID_BYTES
        else:
            self.byte_size = DATA_HEADER_BYTES + payload_bytes

    def encode(self, payload_bytes: Optional[bytes] = None) -> bytes:
        """Serialise to wire bytes.

        For DATA frames the caller may supply the encoded payload; if
        omitted, ``payload_bytes`` zero bytes are emitted (the simulator
        usually only needs sizes).
        """
        fcf = _KIND_FCF[self.kind.value]
        if self.pending:
            fcf |= 1 << 4
        if self.ack_request:
            fcf |= 1 << 5
        # dst/src addressing mode: 64-bit extended (0b11) in both slots
        fcf |= (0b11 << 10) | (0b11 << 14)
        if self.kind is FrameKind.ACK:
            body = struct.pack("<HB", fcf, self.seq & 0xFF)
            return body + b"\x00\x00"  # FCS placeholder
        head = struct.pack(
            "<HBHQQ",
            fcf,
            self.seq & 0xFF,
            0xFACE,  # PAN id
            _extended_addr(self.dst),
            _extended_addr(self.src),
        )
        if self.kind is FrameKind.DATA_REQUEST:
            body = head + b"\x04"  # data-request command id
        else:
            if payload_bytes is None:
                payload_bytes = bytes(self.payload_bytes)
            body = head + payload_bytes
        return body + b"\x00\x00"  # FCS placeholder


def _extended_addr(short: int) -> int:
    """Map a simulator node id to a stable EUI-64."""
    if short == BROADCAST:
        return 0xFFFFFFFFFFFFFFFF
    return 0x00124B0000000000 | (short & 0xFFFF)


def _short_addr(ext: int) -> int:
    if ext == 0xFFFFFFFFFFFFFFFF:
        return BROADCAST
    return ext & 0xFFFF


def decode_frame(data: bytes) -> Frame:
    """Parse wire bytes back into a :class:`Frame` (payload as bytes)."""
    if len(data) < ACK_FRAME_BYTES:
        raise ValueError("frame too short")
    fcf, seq = struct.unpack_from("<HB", data, 0)
    kind_bits = fcf & 0x7
    kind_name = _FCF_KIND.get(kind_bits)
    if kind_name is None:
        raise ValueError(f"unknown frame type bits {kind_bits:#x}")
    pending = bool(fcf & (1 << 4))
    ack_request = bool(fcf & (1 << 5))
    if kind_name == "ack":
        return Frame(
            kind=FrameKind.ACK, src=0, dst=0, seq=seq,
            pending=pending, ack_request=False,
        )
    if len(data) < DATA_HEADER_BYTES:
        raise ValueError("frame too short for its addressing header")
    _, _, _, dst_ext, src_ext = struct.unpack_from("<HBHQQ", data, 0)
    payload = data[21:-2]
    if kind_name == "command":
        kind = FrameKind.DATA_REQUEST
        payload = payload[COMMAND_ID_BYTES:]
    else:
        kind = FrameKind.DATA
    return Frame(
        kind=kind,
        src=_short_addr(src_ext),
        dst=_short_addr(dst_ext),
        seq=seq,
        pending=pending,
        ack_request=ack_request,
        payload=bytes(payload),
        payload_bytes=len(payload),
    )
