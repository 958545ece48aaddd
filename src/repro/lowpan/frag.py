"""6LoWPAN fragmentation and reassembly (RFC 4944 §5.3).

A compressed datagram larger than one 802.15.4 payload is split into a
FRAG1 fragment (4-byte header) and FRAGN fragments (5-byte headers, the
extra byte being the offset).  Fragment payloads are multiples of 8
bytes except the last.  Reassembly is keyed by (origin, tag, size) and
garbage-collected on a timeout — a single lost frame therefore costs
the entire packet, which is the §6.1 MSS trade-off.

The simulator passes payloads by reference: only the FRAG1 carries the
packet object, FRAGNs carry byte ranges.  This mirrors the real wire
format's property that only the first fragment contains the compressed
IPv6 header (and therefore the routing information).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.sim.trace import TraceRecorder

FRAG1_HEADER_BYTES = 4
FRAGN_HEADER_BYTES = 5

#: MAC payload available to 6LoWPAN (127 B frame - 23 B MAC header).
MAX_FRAME_PAYLOAD = 104


@dataclass(slots=True)
class Fragment:
    """One 6LoWPAN fragment (or an unfragmented datagram)."""

    origin: int  # node id of the datagram's originator
    tag: int  # datagram tag (per-origin counter)
    datagram_size: int  # total compressed datagram bytes
    offset: int  # byte offset of this fragment's payload
    length: int  # payload bytes in this fragment
    is_first: bool
    #: bytes this fragment occupies in a MAC payload (its FRAG1/FRAGN
    #: header and ``length``); set when it is made, as the MAC reads it
    #: for every send
    wire_bytes: int
    fragmented: bool = True
    packet: object = None  # carried only when is_first (simulator reference)
    final_dst: int = -1  # network destination (from the compressed header)


class Fragmenter:
    """Splits datagrams into fragments sized for 802.15.4 payloads."""

    def __init__(self, node_id: int, max_frame_payload: int = MAX_FRAME_PAYLOAD):
        self.node_id = node_id
        self.max_frame_payload = max_frame_payload
        self._tag = 0

    def _max_first_payload(self) -> int:
        """Largest FRAG1 payload (multiple of 8)."""
        return (self.max_frame_payload - FRAG1_HEADER_BYTES) // 8 * 8

    def _max_next_payload(self) -> int:
        """Largest FRAGN payload (multiple of 8)."""
        return (self.max_frame_payload - FRAGN_HEADER_BYTES) // 8 * 8

    def fragment(self, packet: object, datagram_bytes: int, final_dst: int) -> List[Fragment]:
        """Fragment ``packet`` (of compressed size ``datagram_bytes``)."""
        if datagram_bytes <= 0:
            raise ValueError("datagram must have positive size")
        self._tag = (self._tag + 1) & 0xFFFF
        if datagram_bytes <= self.max_frame_payload:
            return [
                Fragment(
                    origin=self.node_id,
                    tag=self._tag,
                    datagram_size=datagram_bytes,
                    offset=0,
                    length=datagram_bytes,
                    is_first=True,
                    wire_bytes=datagram_bytes,
                    fragmented=False,
                    packet=packet,
                    final_dst=final_dst,
                )
            ]
        frags: List[Fragment] = []
        first_len = self._max_first_payload()
        frags.append(
            Fragment(
                origin=self.node_id,
                tag=self._tag,
                datagram_size=datagram_bytes,
                offset=0,
                length=first_len,
                is_first=True,
                wire_bytes=FRAG1_HEADER_BYTES + first_len,
                packet=packet,
                final_dst=final_dst,
            )
        )
        offset = first_len
        per_next = self._max_next_payload()
        while offset < datagram_bytes:
            length = min(per_next, datagram_bytes - offset)
            frags.append(
                Fragment(
                    origin=self.node_id,
                    tag=self._tag,
                    datagram_size=datagram_bytes,
                    offset=offset,
                    length=length,
                    is_first=False,
                    wire_bytes=FRAGN_HEADER_BYTES + length,
                    final_dst=final_dst,
                )
            )
            offset += length
        return frags


@dataclass(slots=True)
class _PartialDatagram:
    size: int
    received: Set[Tuple[int, int]] = field(default_factory=set)
    packet: object = None
    bytes_received: int = 0
    timer: Optional[Timer] = None


class Reassembler:
    """Collects fragments back into datagrams, with timeout GC."""

    def __init__(
        self,
        sim: Simulator,
        timeout: float = 5.0,
        trace: Optional[TraceRecorder] = None,
        max_buffers: int = 8,
        node_id: int = -1,
    ):
        self.sim = sim
        self.timeout = timeout
        self.trace = trace or TraceRecorder()
        self.max_buffers = max_buffers
        self.node_id = node_id
        self._partials: Dict[Tuple[int, int], _PartialDatagram] = {}
        self._bus = getattr(sim, "trace_bus", None)
        self._counts = self.trace.counters._counts  # a count is one dict store

    def add(self, frag: Fragment) -> Optional[object]:
        """Insert a fragment of a fragmented datagram (an unfragmented
        one is whole already); returns the packet when it completes."""
        key = (frag.origin, frag.tag)
        part = self._partials.get(key)
        if part is None:
            if len(self._partials) >= self.max_buffers:
                # deterministic memory bound: drop the new datagram
                self._counts["lowpan.reassembly_overflow"] += 1
                return None
            part = _PartialDatagram(size=frag.datagram_size)
            part.timer = Timer(
                self.sim, functools.partial(self._expire, key), "reasm")
            part.timer.start(self.timeout)
            self._partials[key] = part
        span = (frag.offset, frag.length)
        if span in part.received:
            self._counts["lowpan.duplicate_fragments"] += 1
            return None
        part.received.add(span)
        part.bytes_received += frag.length
        if frag.is_first:
            part.packet = frag.packet
        if part.bytes_received >= part.size and part.packet is not None:
            if part.timer is not None:
                part.timer.stop()
            del self._partials[key]
            self._counts["lowpan.reassembled"] += 1
            return part.packet
        return None

    def pending(self) -> int:
        """Number of incomplete datagrams buffered."""
        return len(self._partials)

    def clear(self) -> None:
        """Discard all partial datagrams and their GC timers (node crash)."""
        for part in self._partials.values():
            if part.timer is not None:
                part.timer.stop()
        self._partials.clear()

    def _expire(self, key: Tuple[int, int]) -> None:
        if key in self._partials:
            del self._partials[key]
            self._counts["lowpan.reassembly_timeouts"] += 1
            if self._bus is not None:
                self._bus.emit("lowpan", self.node_id, "reassembly_timeout",
                               origin=key[0], tag=key[1])
