"""CoAP (RFC 7252) over UDP, with loss-tolerant blockwise batching.

This is the §9 comparison protocol.  The pieces that matter for the
paper's experiments are faithfully modelled:

* **Confirmable exchanges**: ACK_TIMEOUT = 2 s scaled by a random
  factor in [1, 1.5], doubled across up to MAX_RETRANSMIT = 4
  retransmissions; on give-up the client *resets its RTO to the 3 s
  default and moves to the next message* (§9.4 — this is why CoAP
  keeps its reliability above TCP's at >15 % loss).
* **Pluggable RTO estimation** so CoCoA (:mod:`repro.app.cocoa`) can
  replace the fixed timer.
* **Nonconfirmable mode** for the unreliable rows of Table 8.
* **Blockwise batching** that survives individual block failures (the
  paper reimplemented blockwise because Californium's dropped an
  entire batch when one block exhausted its retries) — each block is
  its own confirmable exchange sized like a TCP segment (five frames).

Message encoding is real enough to give exact wire sizes (4-byte
header, token, block option, payload marker).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Tuple

from collections import deque

from repro.net.udp import UdpStack
from repro.sim.rng import RngStreams
from repro.sim.timers import Timer
from repro.sim.trace import TraceRecorder

COAP_PORT = 5683

CODE_POST = 2  # 0.02
CODE_CHANGED = 68  # 2.04
CODE_CONTENT = 69  # 2.05


class CoapType(enum.IntEnum):
    """CoAP message types."""

    CON = 0
    NON = 1
    ACK = 2
    RST = 3


@dataclass
class CoapMessage:
    """One CoAP message (simplified but size-exact)."""

    mtype: CoapType
    code: int
    message_id: int
    token: int = 0
    payload: bytes = b""
    #: Block1 option as (num, more, size_exponent) or None
    block: Optional[Tuple[int, bool, int]] = None

    @property
    def _wire_bytes(self) -> int:
        """Bytes on the wire (UDP payload)."""
        size = 4 + 2  # header + 2-byte token
        if self.block is not None:
            size += 4  # Block1 option (ext delta + len byte + 2 value bytes)
        if self.payload:
            size += 1 + len(self.payload)  # 0xFF marker + payload
        return size

    def encode(self) -> bytes:
        """Serialise (token length 2, single Block1 option)."""
        ver_type_tkl = (1 << 6) | (int(self.mtype) << 4) | 2
        out = bytearray(
            struct.pack("!BBH", ver_type_tkl, self.code, self.message_id)
        )
        out += struct.pack("!H", self.token & 0xFFFF)
        if self.block is not None:
            num, more, szx = self.block
            value = (num << 4) | ((1 if more else 0) << 3) | (szx & 0x7)
            out += bytes([(13 << 4) | 2, 27 - 13])  # option 27 (Block1), len 2
            out += struct.pack("!H", value & 0xFFFF)
        if self.payload:
            out += b"\xff" + self.payload
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "CoapMessage":
        """Parse wire bytes."""
        if len(data) < 4:
            raise ValueError("short CoAP header")
        vtt, code, mid = struct.unpack_from("!BBH", data, 0)
        if vtt >> 6 != 1:
            raise ValueError("bad CoAP version")
        mtype = CoapType((vtt >> 4) & 0x3)
        tkl = vtt & 0xF
        token = int.from_bytes(data[4 : 4 + tkl], "big") if tkl else 0
        i = 4 + tkl
        block = None
        while i < len(data) and data[i] != 0xFF:
            delta_len = data[i]
            i += 1
            if (delta_len >> 4) == 13:
                i += 1  # extended delta byte
            opt_len = delta_len & 0xF
            value = int.from_bytes(data[i : i + opt_len], "big")
            block = (value >> 4, bool(value & 0x8), value & 0x7)
            i += opt_len
        payload = data[i + 1 :] if i < len(data) else b""
        return cls(mtype, code, mid, token, bytes(payload), block)


@dataclass
class CoapParams:
    """RFC 7252 transmission parameters."""

    ack_timeout: float = 2.0
    ack_random_factor: float = 1.5
    max_retransmit: int = 4
    give_up_rto_reset: float = 3.0  # §9.4: RTO resets to 3 s on give-up
    nstart: int = 1  # one outstanding exchange


class _Exchange:
    __slots__ = (
        "message", "on_result", "attempts", "rto", "first_tx_at",
        "last_tx_at", "retransmitted",
    )

    def __init__(self, message: CoapMessage, on_result):
        self.message = message
        self.on_result = on_result
        self.attempts = 0
        self.rto = 0.0
        self.first_tx_at = 0.0
        self.last_tx_at = 0.0
        self.retransmitted = False


class CoapClient:
    """A CoAP client bound to one node's UDP stack (NSTART = 1)."""

    def __init__(
        self,
        sim,
        udp: UdpStack,
        rng: RngStreams,
        server_id: int,
        server_port: int = COAP_PORT,
        local_port: int = 0xF0B1,  # NHC-compressible source port
        params: Optional[CoapParams] = None,
        rto_estimator=None,  # CoCoA plug-in; None = RFC 7252 fixed timer
        dst_is_cloud: bool = True,
        trace: Optional[TraceRecorder] = None,
        on_ack_waiting: Optional[Callable[[bool], None]] = None,
    ):
        self.sim = sim
        self.udp = udp
        self.rng = rng
        self.server_id = server_id
        self.server_port = server_port
        self.local_port = local_port
        self.params = params or CoapParams()
        self.rto_estimator = rto_estimator
        self.dst_is_cloud = dst_is_cloud
        self.trace = trace or TraceRecorder()
        self.on_ack_waiting = on_ack_waiting
        self._queue: Deque[_Exchange] = deque()
        self._current: Optional[_Exchange] = None
        self._timer = Timer(sim, self._on_timeout, "coap-rto")
        self._mid = 0
        self._token = 0
        udp.bind(local_port, self._on_datagram)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def post(
        self,
        payload: bytes,
        confirmable: bool = True,
        block: Optional[Tuple[int, bool, int]] = None,
        on_result: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Queue a POST carrying ``payload``.

        ``on_result`` fires with True on an ACKed exchange, False when
        the client gives up after MAX_RETRANSMIT; nonconfirmable posts
        complete immediately with True (fire-and-forget).
        """
        self._mid = (self._mid + 1) & 0xFFFF
        self._token = (self._token + 1) & 0xFFFF
        msg = CoapMessage(
            mtype=CoapType.CON if confirmable else CoapType.NON,
            code=CODE_POST,
            message_id=self._mid,
            token=self._token,
            payload=payload,
            block=block,
        )
        if not confirmable:
            self.trace.counters.incr("coap.non_sent")
            self._transmit(msg)
            if on_result is not None:
                on_result(True)
            return
        self._queue.append(_Exchange(msg, on_result))
        self._pump()

    def pending(self) -> int:
        """Queued plus in-flight exchanges."""
        return len(self._queue) + (1 if self._current else 0)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _initial_rto(self) -> float:
        if self.rto_estimator is not None:
            return self.rto_estimator.current_rto(self.sim.now)
        p = self.params
        return p.ack_timeout * self.rng.uniform(
            "coap-rto", 1.0, p.ack_random_factor
        )

    def _backoff_factor(self) -> float:
        if self.rto_estimator is not None:
            return self.rto_estimator.backoff_factor()
        return 2.0

    def _pump(self) -> None:
        if self._current is not None or not self._queue:
            return
        ex = self._queue.popleft()
        self._current = ex
        ex.attempts = 1
        ex.rto = self._initial_rto()
        ex.first_tx_at = self.sim.now
        ex.last_tx_at = self.sim.now
        self._transmit(ex.message)
        self._timer.start(ex.rto)
        if self.on_ack_waiting is not None:
            self.on_ack_waiting(True)

    def _transmit(self, msg: CoapMessage) -> None:
        self.trace.counters.incr("coap.messages_sent")
        self.udp.send(
            self.server_id,
            self.local_port,
            self.server_port,
            msg,
            msg._wire_bytes,
            dst_is_cloud=self.dst_is_cloud,
        )

    def _on_timeout(self) -> None:
        ex = self._current
        if ex is None:
            return
        if ex.attempts > self.params.max_retransmit:
            # give up: reset the timer state and move on (§9.4)
            self.trace.counters.incr("coap.give_ups")
            if self.rto_estimator is not None:
                self.rto_estimator.on_give_up()
            self._finish(ex, False)
            return
        ex.attempts += 1
        ex.retransmitted = True
        ex.rto *= self._backoff_factor()
        ex.last_tx_at = self.sim.now
        self.trace.counters.incr("coap.retransmissions")
        self._transmit(ex.message)
        self._timer.start(ex.rto)

    def _on_datagram(self, dgram, packet) -> None:
        msg = dgram.payload
        if not isinstance(msg, CoapMessage):
            return
        ex = self._current
        if ex is None or msg.mtype is not CoapType.ACK:
            return
        if msg.message_id != ex.message.message_id:
            self.trace.counters.incr("coap.stale_acks")
            return
        self._timer.stop()
        if self.rto_estimator is not None:
            # CoCoA weak samples are measured from the FIRST transmission
            self.rto_estimator.on_sample(
                self.sim.now - ex.first_tx_at,
                weak=ex.retransmitted,
                now=self.sim.now,
            )
        self._finish(ex, True)

    def _finish(self, ex: _Exchange, success: bool) -> None:
        self._current = None
        if ex.on_result is not None:
            ex.on_result(success)
        self._pump()  # may immediately start the next queued exchange
        if self.on_ack_waiting is not None:
            self.on_ack_waiting(self._current is not None)


class CoapServer:
    """Server endpoint (Californium stand-in): ACKs CONs, dedups MIDs."""

    def __init__(
        self,
        sim,
        udp: UdpStack,
        port: int = COAP_PORT,
        trace: Optional[TraceRecorder] = None,
    ):
        self.sim = sim
        self.udp = udp
        self.port = port
        self.trace = trace or TraceRecorder()
        #: (src, message_id) of recently seen messages (dedup window)
        self._seen: Deque[Tuple[int, int]] = deque(maxlen=64)
        self._seen_set: set = set()
        self.on_payload: Optional[Callable[[bytes, object], None]] = None
        self.udp.bind(port, self._on_datagram)

    def _on_datagram(self, dgram, packet) -> None:
        msg = dgram.payload
        if not isinstance(msg, CoapMessage):
            return
        key = (packet.src, msg.message_id)
        duplicate = key in self._seen_set
        if msg.mtype is CoapType.CON:
            ack = CoapMessage(
                mtype=CoapType.ACK,
                code=CODE_CHANGED,
                message_id=msg.message_id,
                token=msg.token,
            )
            self.udp.send(
                packet.src, self.port, dgram.src_port, ack, ack._wire_bytes,
                dst_is_cloud=packet.src_is_cloud,
            )
        if duplicate:
            self.trace.counters.incr("coap.duplicates")
            return
        self._seen.append(key)
        self._seen_set.add(key)
        while len(self._seen_set) > self._seen.maxlen:
            # keep the set in lockstep with the bounded deque
            self._seen_set = set(self._seen)
        self.trace.counters.incr("coap.requests")
        if self.on_payload is not None:
            self.on_payload(msg.payload, packet)
