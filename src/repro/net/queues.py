"""The relays' packet queue: RED with ECN marking.

Appendix A of the paper shows that with 7-segment windows, two
competing TCP flows share a relay unfairly because of tail drops, and
that Random Early Detection (RED) on the relays — used with Explicit
Congestion Notification — restores fairness and keeps RTT near 1 s.
:class:`RedQueue` is the classic Floyd/Jacobson gentle-less RED with
the count-based drop-probability correction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.net.ipv6 import ECN_CE, ECN_ECT0, ECN_ECT1, Ipv6Packet
from repro.sim.rng import RngStreams


@dataclass
class RedParams:
    """Classic RED knobs (Floyd & Jacobson 1993)."""

    min_th: float = 2.0  # packets
    max_th: float = 6.0  # packets
    max_p: float = 0.1
    wq: float = 0.2  # EWMA weight (high: LLN queues are short and bursty)
    capacity: int = 12  # hard limit (packets)
    use_ecn: bool = True  # mark ECT packets instead of dropping


class RedQueue:
    """RED queue with optional ECN marking."""

    def __init__(self, params: RedParams, rng: RngStreams, stream: str = "red"):
        self.params = params
        self.rng = rng
        self.stream = stream
        self._queue: Deque[Ipv6Packet] = deque()
        self.avg = 0.0
        self._count = -1  # packets since last mark/drop
        self.drops = 0
        self.marks = 0

    def enqueue(self, packet: Ipv6Packet) -> str:
        """Returns "enqueue", "mark" (enqueued with CE), or "drop"."""
        p = self.params
        self.avg = (1 - p.wq) * self.avg + p.wq * len(self._queue)
        if len(self._queue) >= p.capacity:
            self.drops += 1
            return "drop"
        if self.avg < p.min_th:
            self._count = -1
            self._queue.append(packet)
            return "enqueue"
        if self.avg >= p.max_th:
            return self._mark_or_drop(packet, forced=True)
        self._count += 1
        pb = p.max_p * (self.avg - p.min_th) / (p.max_th - p.min_th)
        denom = 1.0 - self._count * pb
        pa = pb / denom if denom > 0 else 1.0
        if self.rng.random(self.stream) < pa:
            return self._mark_or_drop(packet)
        self._queue.append(packet)
        return "enqueue"

    def _mark_or_drop(self, packet: Ipv6Packet, forced: bool = False) -> str:
        self._count = 0
        ect = packet.ecn in (ECN_ECT0, ECN_ECT1)
        if self.params.use_ecn and ect:
            packet.ecn = ECN_CE
            self.marks += 1
            self._queue.append(packet)
            return "mark"
        self.drops += 1
        return "drop"

    def dequeue(self) -> Optional[Ipv6Packet]:
        """Pop the head packet, or None if empty."""
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)
