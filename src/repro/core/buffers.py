"""TCP data buffering for memory-constrained nodes (paper §4.3).

:class:`SendBuffer` models the zero-copy send buffer: a bounded byte
store from which segments are *referenced*, never copied (§4.3.1 —
zero-copy matters here for memory, not CPU).

:class:`ReceiveBuffer` is the flat circular receive buffer with an
**in-place reassembly queue** (§4.3.2, Figure 1b): out-of-order bytes
are written into the same circular array, past the in-sequence data,
with a bitmap recording which bytes are present.  Memory use is
deterministic — exactly ``capacity`` bytes plus the bitmap once the
first byte arrives, and neither before it (a bulk sender never receives
a data byte) — unlike FreeBSD's mbuf chains, whose overhead depends on
packetisation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.seqnum import seq_add


class SendBuffer:
    """A bounded FIFO byte store for unacknowledged outgoing data."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data = bytearray()

    @property
    def used(self) -> int:
        """Bytes buffered (sent-but-unacked plus not-yet-sent)."""
        return len(self._data)

    @property
    def free(self) -> int:
        """Bytes of space available to the application."""
        return self.capacity - len(self._data)

    def write(self, data: bytes) -> int:
        """Append as much of ``data`` as fits; returns bytes accepted."""
        accepted = min(len(data), self.free)
        if accepted:
            self._data += data[:accepted]
        return accepted

    def peek(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting ``offset`` bytes past the
        oldest unacknowledged byte (used to build segments, including
        retransmissions — data is referenced in place)."""
        if offset < 0:
            raise ValueError("negative offset")
        return bytes(self._data[offset : offset + length])

    def ack(self, nbytes: int) -> None:
        """Release ``nbytes`` acknowledged bytes from the front."""
        if nbytes < 0 or nbytes > len(self._data):
            raise ValueError(f"cannot ack {nbytes} of {len(self._data)} bytes")
        del self._data[:nbytes]


class ReceiveBuffer:
    """Circular receive buffer with in-place reassembly (Figure 1b)."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        # the ring and its reassembly bitmap, both empty until the first
        # in-window byte arrives; an empty bitmap reads as all-absent
        self._buf = bytearray()
        self._present = bytearray()
        self._read_pos = 0  # physical index of first unread in-seq byte
        self._unread = 0  # in-sequence bytes the app has not read yet
        self._out_of_order = 0  # bitmap bytes set past rcv_nxt

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def available(self) -> int:
        """In-sequence bytes ready for the application."""
        return self._unread

    @property
    def window(self) -> int:
        """Receive window to advertise: free space past rcv_nxt.

        This is the Figure 1a relationship: window = capacity - buffered
        in-sequence data.
        """
        return self.capacity - self._unread

    def out_of_order_bytes(self) -> int:
        """Bytes parked in the reassembly region (diagnostics)."""
        return self._out_of_order

    # ------------------------------------------------------------------
    # writing (from the network)
    # ------------------------------------------------------------------
    def write(self, rel_offset: int, data: bytes) -> int:
        """Insert ``data`` whose first byte is ``rel_offset`` bytes past
        rcv_nxt (0 = exactly the next expected byte).

        Bytes before rcv_nxt (retransmitted overlap) and beyond the
        window are trimmed.  Returns how many bytes rcv_nxt advanced —
        the caller moves its sequence state by exactly this amount.
        """
        if rel_offset < 0:
            data = data[-rel_offset:]
            rel_offset = 0
        limit = self.capacity - self._unread  # the advertised window
        if rel_offset >= limit:
            return 0
        data = data[: limit - rel_offset]
        n = len(data)
        if not n:
            return 0  # the byte at rcv_nxt is absent, so nothing advances
        cap = self.capacity
        buf = self._buf
        if not buf:
            buf = self._buf = bytearray(cap)
            self._present = bytearray(cap)
        present = self._present
        nxt = (self._read_pos + self._unread) % cap
        # copy in at most two ring segments (slice ops, not a byte loop)
        start = (nxt + rel_offset) % cap
        first = min(n, cap - start)
        rest = n - first
        fresh = n - present.count(1, start, start + first)
        buf[start:start + first] = data[:first]
        present[start:start + first] = b"\x01" * first
        if rest:
            fresh -= present.count(1, 0, rest)
            buf[:rest] = data[first:]
            present[:rest] = b"\x01" * rest
        # absorb any now-contiguous prefix into the in-sequence region:
        # scan for the first gap across the (at most two) ring segments
        head = min(limit, cap - nxt)
        gap = present.find(0, nxt, nxt + head)
        if gap >= 0:
            advanced = gap - nxt
        else:
            advanced = head
            tail = limit - head
            if tail:
                gap = present.find(0, 0, tail)
                advanced += tail if gap < 0 else gap
        self._unread += advanced
        self._out_of_order += fresh - advanced
        return advanced

    # ------------------------------------------------------------------
    # reading (by the application)
    # ------------------------------------------------------------------
    def read(self, max_bytes: Optional[int] = None) -> bytes:
        """Consume up to ``max_bytes`` in-sequence bytes (all if None)."""
        n = self._unread if max_bytes is None else min(max_bytes, self._unread)
        cap = self.capacity
        rp = self._read_pos
        first = min(n, cap - rp)
        if first < n:  # wraps: two ring segments
            out = bytes(self._buf[rp:rp + first]) + bytes(self._buf[:n - first])
            self._present[rp:rp + first] = bytes(first)
            self._present[:n - first] = bytes(n - first)
        else:
            out = bytes(self._buf[rp:rp + n])
            self._present[rp:rp + n] = bytes(n)
        self._read_pos = (rp + n) % cap
        self._unread -= n
        return out

    # ------------------------------------------------------------------
    # SACK generation
    # ------------------------------------------------------------------
    def sack_ranges(self, rcv_nxt: int, max_blocks: int = 3) -> List[Tuple[int, int]]:
        """SACK blocks for the out-of-order runs past rcv_nxt.

        Returned in buffer order (the connection layer reorders for
        recency if it cares); each block is [left, right) in sequence
        space.
        """
        blocks: List[Tuple[int, int]] = []
        present = self._present
        nxt = (self._read_pos + self._unread) % self.capacity
        limit = self.capacity - self._unread
        # the window is at most two ring segments: ``head`` bytes from
        # ``nxt`` up to the physical end, then the rest from index 0
        head = min(limit, self.capacity - nxt)

        def edge(value: int, off: int) -> int:
            """First window offset >= ``off`` whose bitmap byte is
            ``value``, or ``limit``."""
            if off < head:
                at = present.find(value, nxt + off, nxt + head)
                if at >= 0:
                    return at - nxt
                off = head
            at = present.find(value, off - head, limit - head)
            return limit if at < 0 else at + head

        left = edge(1, 0)
        while left < limit and len(blocks) < max_blocks:
            right = edge(0, left)
            blocks.append((seq_add(rcv_nxt, left), seq_add(rcv_nxt, right)))
            left = edge(1, right)
        return blocks
