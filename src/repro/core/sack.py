"""SACK scoreboard (RFC 2018, with RFC 6675-style hole selection).

The sender records which byte ranges above the cumulative ACK the
receiver reports holding, retransmits the holes during recovery, and
never retransmits SACKed data.  Figure 9b of the paper attributes part
of TCPlp's efficiency under loss to exactly this: retransmissions
triggered without waiting for timeouts, and only for missing bytes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.seqnum import seq_ge, seq_gt, seq_le, seq_lt, seq_max, seq_min


class SackScoreboard:
    """Disjoint, sorted SACKed ranges above snd_una."""

    def __init__(self) -> None:
        self._ranges: List[Tuple[int, int]] = []  # [left, right), sorted

    def clear(self) -> None:
        """Drop all state (connection reset / timeout resync)."""
        self._ranges = []

    @property
    def ranges(self) -> List[Tuple[int, int]]:
        """Snapshot of the SACKed ranges."""
        return list(self._ranges)

    def update(self, blocks: List[Tuple[int, int]], snd_una: int) -> None:
        """Merge the SACK blocks of one ACK; prune below snd_una."""
        for left, right in blocks:
            if seq_ge(left, right):
                continue  # malformed block
            self._insert(left, right)
        self.advance(snd_una)

    def _insert(self, left: int, right: int) -> None:
        merged: List[Tuple[int, int]] = []
        for lo, hi in self._ranges:
            if seq_lt(hi, left) or seq_gt(lo, right):
                merged.append((lo, hi))
            else:
                left = seq_min(left, lo)
                right = seq_max(right, hi)
        merged.append((left, right))
        # All ranges sit within one window of snd_una, far from the wrap
        # point relative to each other, so sorting by raw left edge is safe.
        merged.sort(key=lambda pair: pair[0])
        self._ranges = merged

    def advance(self, snd_una: int) -> None:
        """Discard ranges at or below the new cumulative ACK point."""
        kept = []
        for lo, hi in self._ranges:
            if seq_le(hi, snd_una):
                continue
            kept.append((seq_max(lo, snd_una), hi))
        self._ranges = kept

    def first_hole(
        self, snd_una: int, snd_nxt: int, mss: int
    ) -> Optional[Tuple[int, int]]:
        """The first unSACKed range at/above snd_una worth retransmitting.

        Returns [start, end) clamped to one MSS, or None when everything
        up to the highest SACKed byte is covered.
        """
        if not self._ranges:
            return None
        cursor = snd_una
        for lo, hi in self._ranges:
            if seq_lt(cursor, lo):
                end = seq_min(lo, snd_nxt)
                if seq_lt(cursor, end):
                    length = (end - cursor) % (1 << 32)
                    return cursor, (cursor + min(length, mss)) % (1 << 32)
            cursor = seq_max(cursor, hi)
        return None
