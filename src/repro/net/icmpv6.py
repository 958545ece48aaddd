"""ICMPv6 echo (ping): the network layer's diagnostic surface.

The paper's measurement methodology leans on RTT measurements through
the mesh (§9.2 quotes the in-mesh RTT at ~300 ms against ~12 ms to the
cloud); a ping implementation makes the same measurement available to
library users and exercises the IPv6 path without any transport.

Only echo request/reply is implemented — the simulator has no use for
unreachable/parameter-problem signalling (drops are the norm in an
LLN, and TCP/CoAP carry their own recovery).
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.sim.timers import Timer
from repro.sim.trace import TraceRecorder

PROTO_ICMPV6 = 58
TYPE_ECHO_REQUEST = 128
TYPE_ECHO_REPLY = 129
ICMP_HEADER_BYTES = 8  # type, code, checksum, identifier, sequence


@dataclass
class IcmpEcho:
    """An echo request or reply."""

    icmp_type: int
    identifier: int
    sequence: int
    payload_bytes: int = 8

    @property
    def _wire_bytes(self) -> int:
        return ICMP_HEADER_BYTES + self.payload_bytes

    def encode(self) -> bytes:
        """Serialise header + zero payload."""
        return struct.pack(
            "!BBHHH", self.icmp_type, 0, 0, self.identifier, self.sequence
        ) + bytes(self.payload_bytes)

    @classmethod
    def decode(cls, data: bytes) -> "IcmpEcho":
        if len(data) < ICMP_HEADER_BYTES:
            raise ValueError("short ICMPv6 message")
        t, _code, _csum, ident, seq = struct.unpack_from("!BBHHH", data, 0)
        if t not in (TYPE_ECHO_REQUEST, TYPE_ECHO_REPLY):
            raise ValueError(f"unsupported ICMPv6 type {t}")
        return cls(t, ident, seq, payload_bytes=len(data) - ICMP_HEADER_BYTES)


class IcmpStack:
    """Echo responder + ping client bound to one network layer."""

    def __init__(self, sim, network, trace: Optional[TraceRecorder] = None):
        self.sim = sim
        self.network = network
        self.trace = trace or TraceRecorder()
        self._next_ident = 1
        #: (identifier, sequence) -> (sent_at, callback, timer)
        self._pending: Dict[tuple, tuple] = {}
        network.register(PROTO_ICMPV6, self._on_packet)

    def ping(
        self,
        dst: int,
        on_reply: Callable[[Optional[float]], None],
        payload_bytes: int = 8,
        timeout: float = 10.0,
        dst_is_cloud: bool = False,
    ) -> None:
        """Send one echo request; ``on_reply`` gets the RTT in seconds,
        or None on timeout."""
        ident = self._next_ident
        self._next_ident += 1
        echo = IcmpEcho(TYPE_ECHO_REQUEST, ident, 1, payload_bytes)
        key = (ident, 1)
        timer = Timer(self.sim, functools.partial(self._timeout, key), "ping")
        timer.start(timeout)
        self._pending[key] = (self.sim.now, on_reply, timer)
        self.trace.counters.incr("icmp.echo_requests")
        self.network.send(dst, PROTO_ICMPV6, echo, echo._wire_bytes,
                          dst_is_cloud=dst_is_cloud)

    def _timeout(self, key) -> None:
        entry = self._pending.pop(key, None)
        if entry is not None:
            self.trace.counters.incr("icmp.echo_timeouts")
            entry[1](None)

    def _on_packet(self, packet) -> None:
        echo = packet.payload
        if not isinstance(echo, IcmpEcho):
            return
        if echo.icmp_type == TYPE_ECHO_REQUEST:
            self.trace.counters.incr("icmp.echo_responses")
            reply = IcmpEcho(TYPE_ECHO_REPLY, echo.identifier, echo.sequence,
                             echo.payload_bytes)
            self.network.send(
                packet.src, PROTO_ICMPV6, reply, reply._wire_bytes,
                dst_is_cloud=packet.src_is_cloud,
            )
            return
        key = (echo.identifier, echo.sequence)
        entry = self._pending.pop(key, None)
        if entry is None:
            self.trace.counters.incr("icmp.stray_replies")
            return
        sent_at, on_reply, timer = entry
        timer.stop()
        self.trace.counters.incr("icmp.echo_replies")
        on_reply(self.sim.now - sent_at)
