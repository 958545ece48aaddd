"""The anemometer application of §3/§9.

Each sensor produces an 82-byte reading every second and must ship it
to a cloud server through the LLN mesh.  Readings wait in a bounded
application-layer queue (64 for TCP, 104 for CoAP — the extra 40 fit
in TCP's send buffer); queue overflow is the *only* loss mechanism,
which is how the paper turns transport stalls into a reliability
number (§9.2).

Two sending disciplines (§9.3):

* **no batching** — every reading is handed to the transport as it is
  sampled;
* **batching** — readings accumulate until the queue holds
  ``batch_size`` (64), then the transport drains it to empty.

Transports are adapters over TCPlp sockets and CoAP clients; both
integrate with the sleepy device's fast-poll (§9.2).
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.app.coap import CoapClient, CoapServer
from repro.core.params import TcpParams
from repro.core.socket_api import TcpStack
from repro.net.udp import UdpStack
from repro.sim.timers import Timer
from repro.sim.trace import TraceRecorder

READING_BYTES = 82


@dataclass
class AnemometerConfig:
    """Sensing workload parameters (§9.2/§9.3)."""

    reading_bytes: int = READING_BYTES
    sample_interval: float = 1.0
    queue_capacity: int = 64  # 104 for CoAP
    batching: bool = True
    batch_size: int = 64
    readings_per_message: int = 5  # CoAP block sized like a 5-frame segment


class AnemometerNode:
    """The sensing application on one leaf node."""

    def __init__(
        self,
        sim,
        transport: "_TransportAdapter",
        config: Optional[AnemometerConfig] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        self.sim = sim
        self.transport = transport
        self.config = config or AnemometerConfig()
        self.trace = trace or TraceRecorder()
        self.queue: Deque[bytes] = deque()
        self.generated = 0
        self.overflowed = 0
        self._draining = not self.config.batching
        self._timer = Timer(sim, self._sample, "anemometer")
        transport.attach(self)

    def start(self, phase: float = 0.0) -> None:
        """Begin sampling, optionally offset by ``phase`` seconds.

        Real deployments' nodes boot at different times, so their batch
        drains do not synchronise; experiments stagger leaves with this.
        """
        self._timer.start(self.config.sample_interval + phase)

    def stop(self) -> None:
        """Halt sampling."""
        self._timer.stop()

    # ------------------------------------------------------------------
    def _sample(self) -> None:
        self.generated += 1
        reading = self.generated.to_bytes(4, "big") + bytes(
            self.config.reading_bytes - 4
        )
        if len(self.queue) >= self.config.queue_capacity:
            self.overflowed += 1
            self.trace.counters.incr("app.overflow")
        else:
            self.queue.append(reading)
        if self.config.batching:
            if len(self.queue) >= self.config.batch_size:
                self._draining = True
        if self._draining:
            self.transport.pull()
        self._timer.start(self.config.sample_interval)

    # ------------------------------------------------------------------
    # transport-facing interface
    # ------------------------------------------------------------------
    def _can_send(self) -> bool:
        """True while the transport should keep pulling readings."""
        if not self.queue:
            if self.config.batching:
                self._draining = False
            return False
        return self._draining

    def _pop_readings(self, max_count: int) -> bytes:
        """Remove up to ``max_count`` readings and return their bytes."""
        out = bytearray()
        for _ in range(min(max_count, len(self.queue))):
            out += self.queue.popleft()
        if not self.queue and self.config.batching:
            self._draining = False
        return bytes(out)


class _TransportAdapter:
    """Interface both transports implement."""

    def attach(self, app: AnemometerNode) -> None:
        self.app = app

    def pull(self) -> None:  # pragma: no cover - interface stub
        raise NotImplementedError


class TcpTransport(_TransportAdapter):
    """Ships readings over one long-lived TCPlp connection."""

    def __init__(
        self,
        sim,
        stack: TcpStack,
        server_id: int,
        server_port: int = 8000,
        params: Optional[TcpParams] = None,
        dst_is_cloud: bool = True,
        reconnect_delay: float = 2.0,
    ):
        self.sim = sim
        self.stack = stack
        self.server_id = server_id
        self.server_port = server_port
        self.params = params
        self.dst_is_cloud = dst_is_cloud
        self.reconnect_delay = reconnect_delay
        self.app: Optional[AnemometerNode] = None
        self.conn = None
        self.reconnects = 0
        self._connect()

    def _connect(self) -> None:
        self.conn = self.stack.connect(
            self.server_id,
            self.server_port,
            params=self.params,
            dst_is_cloud=self.dst_is_cloud,
        )
        self.conn.on_connect = self.pull
        self.conn.on_send_space = self.pull
        self.conn.on_error = self._on_error

    def _on_error(self, reason: str) -> None:
        # §9.4: after 12 failed retransmissions TCP gives up; the
        # application simply reopens the connection.
        self.reconnects += 1
        self.sim.schedule(self.reconnect_delay, self._connect)

    def pull(self) -> None:
        """Hand TCP every whole reading the send buffer can take.

        One ``send()`` per drain step: every ``send()`` runs
        ``output()``, and TCP (FreeBSD's ``tcp_output``, Nagle off)
        sends a lone sub-MSS write at once when it is all the socket
        holds, so a write per reading would put one reading in each
        segment.  Handing over all that fits lets TCP cut full-sized
        segments, as ``CoapTransport`` sizes its messages.
        """
        if self.app is None or self.conn is None or not self.conn.is_open:
            return
        room = self.conn.send_buf.free // self.app.config.reading_bytes
        if room and self.app._can_send():
            self.conn.send(self.app._pop_readings(room))


class CoapTransport(_TransportAdapter):
    """Ships readings as CoAP POSTs (blockwise batches, §9.1).

    Nonconfirmable mode has no ACK to pace the sender, so messages are
    spaced by ``non_pacing`` seconds (roughly one message's air time)
    to avoid dumping a whole batch into the MAC queue at one instant.
    """

    def __init__(self, client: CoapClient, confirmable: bool = True,
                 non_pacing: float = 0.15):
        self.client = client
        self.confirmable = confirmable
        self.non_pacing = non_pacing
        self.app: Optional[AnemometerNode] = None
        self.readings_failed = 0
        self._block_num = 0
        self._paced_until = 0.0

    def pull(self) -> None:
        """Post the next block if no exchange is outstanding."""
        if self.app is None or self.client.pending() > 0:
            return
        if not self.app._can_send():
            return
        if not self.confirmable:
            now = self.client.sim.now
            if now < self._paced_until:
                return  # a wakeup for the next send is already scheduled
            self._paced_until = now + self.non_pacing
            self.client.sim.schedule(self.non_pacing, self.pull)
        per_msg = self.app.config.readings_per_message
        payload = self.app._pop_readings(per_msg)
        if not payload:
            return
        count = len(payload) // self.app.config.reading_bytes
        more = self.app._can_send()
        block = (self._block_num, more, 6)
        self._block_num = (self._block_num + 1) & 0xFFF

        self.client.post(
            payload,
            confirmable=self.confirmable,
            block=block,
            on_result=functools.partial(self._on_block_result, count),
        )

    def _on_block_result(self, count: int, success: bool) -> None:
        if not success:
            # loss-tolerant blockwise: drop this block, keep going
            self.readings_failed += count
        self.pull()


class ReadingServer:
    """Cloud-side sink counting delivered readings (TCP and/or CoAP)."""

    def __init__(self, sim, reading_bytes: int = READING_BYTES):
        self.sim = sim
        self.reading_bytes = reading_bytes
        self.tcp_bytes = 0
        self.coap_readings = 0
        self.coap_server: Optional[CoapServer] = None

    # ------------------------------------------------------------------
    def attach_tcp(self, stack: TcpStack, port: int = 8000, params=None) -> None:
        """Accept TCP connections and count their bytes."""
        stack.listen(port, self._on_tcp_accept, params=params)

    def _on_tcp_accept(self, conn) -> None:
        conn.on_data = self._on_tcp_data

    def _on_tcp_data(self, data: bytes) -> None:
        self.tcp_bytes += len(data)

    # ------------------------------------------------------------------
    def attach_coap(self, udp: UdpStack, port: int = 5683) -> None:
        """Run a CoAP server on ``udp`` counting readings in POST payloads."""
        self.coap_server = CoapServer(self.sim, udp, port=port)
        self.coap_server.on_payload = self._on_coap_payload

    def _on_coap_payload(self, payload: bytes, packet) -> None:
        self.coap_readings += len(payload) // self.reading_bytes

    # ------------------------------------------------------------------
    def total_readings(self) -> int:
        """Readings delivered over both transports."""
        return self.tcp_bytes // self.reading_bytes + self.coap_readings
