"""Per-connection adapters between OS sockets and simulated endpoints.

:class:`TcpBridge` splices one real TCP client onto one simulated TCP
connection: client bytes are written into the simulated socket as its
send buffer opens (with ``pause_reading`` backpressure toward the
client when it doesn't), and bytes the mote sends come back out of the
real socket.  Establishment failures on the simulated side are retried
under a :class:`SessionBackoff` policy while the client is still
connected; exhaustion tears the client socket down.

:class:`UdpBridge` proxies datagram exchanges: each inbound real
datagram is forwarded into the mesh from a fresh ephemeral simulated
port, and the mote's reply (if any arrives before ``timeout``) is sent
back to the originating client address.

Neither bridge models the *content* of the external network: the wall
hop between OS socket and simulated border is assumed free.  What is
modelled — radio contention, 6LoWPAN fragmentation, RTOs, duty cycling
— is exactly the in-mesh path the paper studies.
"""

from __future__ import annotations

import asyncio
import logging
import random
import time as _time
from collections import deque
from typing import Optional

_log = logging.getLogger("repro.gateway.bridge")

#: client bytes buffered toward the sim before we pause reading
HIGH_WATER = 64 * 1024
LOW_WATER = 16 * 1024


class SessionBackoff:
    """Exponential retry policy for simulated-session establishment.

    ``delay(n)`` for attempt ``n`` is ``base * factor**n`` clipped to
    ``ceiling``; after ``max_attempts`` failed attempts the policy is
    exhausted and the bridge gives up on the client.

    ``jitter`` spreads each delay uniformly over
    ``[(1 - jitter) * d, d]`` so a mass disconnect doesn't synchronize
    its retries into a thundering herd (``jitter=1.0`` is full jitter).
    The jitter stream is seedable: a fixed ``seed`` reproduces the
    exact delay sequence, which keeps retry schedules deterministic in
    tests while still decorrelating independent bridges in production
    (the gateway derives a distinct seed per bridge).  The stream is
    built on the first jittered draw: a policy with ``jitter=0`` (the
    default) never holds a Mersenne-Twister state.
    """

    def __init__(
        self,
        base: float = 0.25,
        factor: float = 2.0,
        ceiling: float = 8.0,
        max_attempts: int = 5,
        jitter: float = 0.0,
        seed: Optional[int] = None,
    ):
        if base <= 0 or factor < 1.0 or max_attempts < 1:
            raise ValueError("invalid backoff policy")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.base = base
        self.factor = factor
        self.ceiling = ceiling
        self.max_attempts = max_attempts
        self.jitter = jitter
        self.attempts = 0
        self._seed = seed
        self._rng: Optional[random.Random] = None

    @property
    def _exhausted(self) -> bool:
        return self.attempts >= self.max_attempts

    def _next_delay(self) -> float:
        """Delay before the next retry; counts the attempt."""
        if self._exhausted:
            raise RuntimeError("backoff exhausted")
        delay = min(self.ceiling, self.base * self.factor ** self.attempts)
        self.attempts += 1
        if self.jitter > 0.0:
            rng = self._rng
            if rng is None:
                rng = self._rng = random.Random(self._seed)
            delay = rng.uniform((1.0 - self.jitter) * delay, delay)
        return delay

    def reset(self) -> None:
        self.attempts = 0


class TcpBridge(asyncio.Protocol):
    """One real TCP client spliced onto one simulated TCP connection."""

    def __init__(self, gateway, binding):
        self.gateway = gateway
        self.binding = binding
        self.transport: Optional[asyncio.Transport] = None
        self.conn = None
        self.established = False
        self.backoff = gateway.make_backoff()
        self._pending: deque = deque()
        self._pending_bytes = 0
        self._paused = False
        self._client_eof = False
        self._closed = False
        self._admitted = False
        #: the global splice budget asked us to stop reading the client
        self.budget_paused = False
        #: the client socket's send buffer is full (pause_writing)
        self._write_paused = False
        self._retry_handle: Optional[asyncio.TimerHandle] = None
        self._accept_wall: Optional[float] = None
        self.last_activity: float = 0.0

    # ------------------------------------------------------------------
    # asyncio (real-socket) side
    # ------------------------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self._accept_wall = _time.monotonic()
        self.last_activity = self._accept_wall
        refusal = self.gateway.admit(self.binding)
        if refusal is not None:
            # shed before any simulated state exists: the client sees a
            # reset, the sim never hears about it
            self._closed = True
            self.gateway.count_shed(refusal, self.binding)
            transport.abort()
            return
        self._admitted = True
        self.gateway.on_bridge_open(self)
        self.gateway.runner.inject(self._open_sim)

    def data_received(self, data: bytes) -> None:
        if self._closed:
            return
        self.last_activity = _time.monotonic()
        self._pending.append(data)
        self._pending_bytes += len(data)
        self.gateway.count_bytes_in(len(data))
        self.gateway.splice_acquire(self, len(data))
        self.gateway.runner.inject(self._drain_into_sim)

    def eof_received(self) -> bool:
        # client finished sending; keep the socket half-open so the
        # mote's remaining bytes still reach it
        self._client_eof = True
        self.gateway.runner.inject(self._maybe_close_sim)
        return True

    def connection_lost(self, exc) -> None:
        if not self._admitted:
            return
        self._teardown()
        self.gateway.on_bridge_closed(self)

    def pause_writing(self) -> None:
        self._write_paused = True
        self.gateway.runner.inject(self._sync_sim_reads)

    def resume_writing(self) -> None:
        self._write_paused = False
        self.gateway.runner.inject(self._sync_sim_reads)

    def reap(self, reason: str) -> None:
        """Shed an already-admitted client (deadline or budget abuse)."""
        if self._closed:
            return
        self.gateway.count_shed(reason, self.binding)
        self._teardown()
        if self.transport is not None and not self.transport.is_closing():
            self.transport.abort()

    # ------------------------------------------------------------------
    # simulated side: run by the simulator, or handed to runner.inject
    # ------------------------------------------------------------------
    def _open_sim(self) -> None:
        self._retry_handle = None
        if self._closed:
            return
        try:
            conn = self.gateway.sim_connect(self.binding)
        except Exception as exc:  # e.g. port-space exhaustion
            _log.warning("sim connect failed: %s", exc)
            self._sim_error(str(exc))
            return
        self.conn = conn
        conn.on_connect = self._on_sim_connect
        conn.on_data = self._on_sim_data
        conn.on_send_space = self._on_sim_send_space
        conn.on_error = self._sim_error
        conn.on_peer_close = self._on_sim_peer_close
        conn.on_close = self._on_sim_close

    def _on_sim_connect(self) -> None:
        self.established = True
        self.backoff.reset()
        self.gateway.breaker_success(self.binding)
        if self._accept_wall is not None:
            self.gateway.observe_connect_latency(
                _time.monotonic() - self._accept_wall
            )
        self._drain_into_sim()
        self._maybe_close_sim()

    def _on_sim_data(self, data: bytes) -> None:
        self.last_activity = _time.monotonic()
        if self.transport is not None and not self.transport.is_closing():
            self.transport.write(data)
            self.gateway.count_bytes_out(len(data))

    def _on_sim_send_space(self) -> None:
        self._drain_into_sim()

    def _sync_sim_reads(self) -> None:
        # while the client reads slower than the mote sends, stop
        # consuming from the simulated socket, so its receive window
        # closes and the mote sees genuine end-to-end flow control
        conn = self.conn
        if conn is None or self._closed:
            return
        if self._write_paused:
            conn.on_data = None
        else:
            conn.on_data = self._on_sim_data
            data = conn.recv()
            if data:
                self._on_sim_data(data)

    def _sim_error(self, err) -> None:
        # fully detach the failed connection: its teardown still fires
        # on_close, which must not close the real socket while a retry
        # is pending
        conn, self.conn = self.conn, None
        if conn is not None:
            conn.on_connect = None
            conn.on_data = None
            conn.on_send_space = None
            conn.on_error = None
            conn.on_peer_close = None
            conn.on_close = None
        if self._closed:
            return
        if not self.established and not self.backoff._exhausted:
            # session backoff: retry the simulated open while the
            # client is still waiting on the real socket
            delay = self.backoff._next_delay()
            self.gateway.count_retry()
            self._retry_handle = asyncio.get_running_loop().call_later(
                delay, self.gateway.runner.inject, self._open_sim
            )
            return
        self.gateway.breaker_failure(self.binding)
        self.gateway.count_error()
        _log.warning("bridge to node %s:%s failed: %s",
                     self.binding.node_id, self.binding.sim_port, err)
        self._teardown()
        if self.transport is not None and not self.transport.is_closing():
            self.transport.abort()

    def _on_sim_peer_close(self) -> None:
        # the mote sent FIN: no more mote->client bytes are coming
        if (self.transport is not None and not self.transport.is_closing()
                and self.transport.can_write_eof()):
            try:
                self.transport.write_eof()
            except (OSError, RuntimeError):
                pass

    def _on_sim_close(self) -> None:
        if not self.established:
            # pre-establishment teardown: the connection delivers
            # on_close (via _teardown) *before* on_error, and the error
            # callback that follows decides between retry and abort —
            # closing the client here would end the session mid-retry
            return
        # mote side finished: flush whatever the transport still holds,
        # then close the real socket
        self.conn = None
        if self.transport is not None and not self.transport.is_closing():
            self.transport.close()

    # ------------------------------------------------------------------
    # splice plumbing
    # ------------------------------------------------------------------
    def _drain_into_sim(self) -> None:
        conn = self.conn
        if conn is None or not self.established:
            self._update_backpressure()
            return
        moved = 0
        while self._pending and conn.is_open and conn.send_buf.free > 0:
            chunk = self._pending.popleft()
            accepted = conn.send(chunk)
            self._pending_bytes -= accepted
            moved += accepted
            if accepted < len(chunk):
                self._pending.appendleft(chunk[accepted:])
                break
        if moved:
            self.gateway.splice_release(self, moved)
        self._update_backpressure()
        self._maybe_close_sim()

    def _update_backpressure(self) -> None:
        if self.transport is None or self.transport.is_closing():
            return
        limits = self.gateway.limits
        if not self._paused and (self.budget_paused
                                 or self._pending_bytes > limits.high_water):
            self._paused = True
            self.transport.pause_reading()
        elif (self._paused and not self.budget_paused
                and self._pending_bytes < limits.low_water):
            self._paused = False
            self.transport.resume_reading()

    def _maybe_close_sim(self) -> None:
        if (self._client_eof and not self._pending
                and self.established and self.conn is not None):
            self.conn.close()

    def _teardown(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._retry_handle is not None:
            self._retry_handle.cancel()
            self._retry_handle = None
        if self._pending_bytes:
            self.gateway.splice_release(self, self._pending_bytes)
            self._pending.clear()
            self._pending_bytes = 0
        conn, self.conn = self.conn, None
        if conn is not None:
            # detach at once (the backlog before the abort must not
            # call into a closed bridge); the abort itself is an input
            conn.on_connect = None
            conn.on_data = None
            conn.on_send_space = None
            conn.on_error = None
            conn.on_peer_close = None
            conn.on_close = None
            self.gateway.runner.inject(conn.abort)


class UdpBridge(asyncio.DatagramProtocol):
    """Datagram proxy: one real UDP socket onto one mote port."""

    def __init__(self, gateway, binding, timeout: float = 30.0):
        self.gateway = gateway
        self.binding = binding
        self.timeout = timeout
        self.transport = None
        #: sim ephemeral port -> (client addr, send wall time, timeout handle)
        self._pending: dict = {}

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self.gateway.runner.inject(self._forward, data, addr, _time.monotonic())

    def _forward(self, data: bytes, addr, t0: float) -> None:
        gw = self.gateway
        port = gw.alloc_udp_port()
        try:
            gw.udp_stack.bind(port, self._make_reply_handler(port))
        except ValueError:
            gw.count_error()
            return
        handle = asyncio.get_running_loop().call_later(
            self.timeout, gw.runner.inject, self._expire, port
        )
        self._pending[port] = (addr, t0, handle)
        gw.count_bytes_in(len(data))
        gw.udp_send(self.binding, src_port=port, data=data)

    def _make_reply_handler(self, port: int):
        def _on_reply(dgram, packet) -> None:
            entry = self._pending.pop(port, None)
            self.gateway.udp_stack.unbind(port)
            if entry is None:
                return
            addr, t0, handle = entry
            handle.cancel()
            payload = dgram.payload
            if not isinstance(payload, (bytes, bytearray)):
                payload = bytes(dgram.payload_bytes)
            if self.transport is not None:
                self.transport.sendto(bytes(payload), addr)
            self.gateway.count_bytes_out(dgram.payload_bytes)
            self.gateway.observe_udp_rtt(_time.monotonic() - t0)

        return _on_reply

    def _expire(self, port: int) -> None:
        if self._pending.pop(port, None) is not None:
            self.gateway.udp_stack.unbind(port)
            self.gateway.count_error()

    def close(self) -> None:
        for port, (_addr, _t0, handle) in self._pending.items():
            handle.cancel()
            self.gateway.runner.inject(self.gateway.udp_stack.unbind, port)
        self._pending.clear()
        if self.transport is not None:
            self.transport.close()
