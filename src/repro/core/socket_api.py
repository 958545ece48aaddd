"""Socket layer: the stack, active sockets, and passive listeners.

The paper's §4.1 distinguishes *active* sockets (full connection state,
~400-500 B) from *passive* sockets (listeners, ~tens of bytes); the
split is reproduced here — :class:`TcpListener` holds only a port, an
accept callback, and template parameters, while every accepted
connection materialises a fresh :class:`TcpConnection`.

:class:`TcpStack` also wires the §9.2 duty-cycle integration: while any
connection on a sleepy node awaits a TCP ACK, the node's poll interval
drops to 100 ms so the ACK is fetched promptly from the parent.
"""

from __future__ import annotations

import copy
import functools
from typing import Callable, Dict, Optional, Tuple

from repro.core.connection import (
    TcpConnection,
    node_instruments,
    resolve_socket_option,
)
from repro.core.params import TcpParams
from repro.core.segment import FLAG_ACK, FLAG_RST, Segment
from repro.net.ipv6 import PROTO_TCP, Ipv6Packet
from repro.sim.trace import TraceRecorder

#: An active socket *is* a connection; the alias names the API surface.
TcpSocket = TcpConnection

EPHEMERAL_BASE = 49152


class TcpListener:
    """A passive socket: accepts inbound connections on one port."""

    def __init__(
        self,
        stack: "TcpStack",
        port: int,
        on_accept: Callable[[TcpConnection], None],
        params: Optional[TcpParams] = None,
    ):
        self.stack = stack
        self.port = port
        self.on_accept = on_accept
        self.params = params
        self.accepted = 0

    def close(self) -> None:
        """Stop listening (existing connections are unaffected)."""
        self.stack._listeners.pop(self.port, None)

    def _fire_accept(self, conn: TcpConnection) -> None:
        """Deliver ``conn`` to the accept callback (on_connect hook)."""
        self.on_accept(conn)


class TcpStack:
    """TCP demultiplexer bound to one node's network layer."""

    def __init__(
        self,
        sim,
        network,
        node_id: int,
        default_params: Optional[TcpParams] = None,
        trace: Optional[TraceRecorder] = None,
        cpu=None,
        sleepy=None,
    ):
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.default_params = default_params or TcpParams()
        #: set_option copies default_params on first write (the caller's
        #: object may be shared across stacks)
        self._default_params_owned = False
        self.trace = trace or TraceRecorder()
        self.cpu = cpu
        self.sleepy = sleepy  # SleepyEndDevice for §9.2 fast-poll coupling
        self._connections: Dict[Tuple[int, int, int], TcpConnection] = {}
        self._listeners: Dict[int, TcpListener] = {}
        self._next_port = EPHEMERAL_BASE
        self._iss = 1000
        self._awaiting: set = set()
        #: the registry this stack registered with at its first
        #: connection, and the gauge handles its connections share
        self._metrics = None
        self._instruments: Optional[tuple] = None
        network.register(PROTO_TCP, self._on_packet)
        stacks = getattr(network, "tcp_stacks", None)
        if stacks is not None:
            stacks.append(self)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def connect(
        self,
        dst: int,
        dst_port: int,
        params: Optional[TcpParams] = None,
        src_port: Optional[int] = None,
        dst_is_cloud: bool = False,
    ) -> TcpConnection:
        """Active open toward (dst, dst_port); returns the socket."""
        if src_port is None:
            src_port = self._alloc_port()
        conn = self._make_connection(
            src_port, dst, dst_port, params or self.default_params, dst_is_cloud
        )
        conn.connect()
        return conn

    def listen(
        self,
        port: int,
        on_accept: Callable[[TcpConnection], None],
        params: Optional[TcpParams] = None,
    ) -> TcpListener:
        """Open a passive socket on ``port``."""
        if port in self._listeners:
            raise ValueError(f"port {port} already listening")
        listener = TcpListener(self, port, on_accept, params)
        self._listeners[port] = listener
        return listener

    def active_connections(self) -> int:
        """Number of live connections (tests and memory accounting)."""
        return len(self._connections)

    def set_option(self, name: str, value) -> None:
        """Set a default socket option for future sockets on this stack.

        Same names as :meth:`TcpConnection.set_option` (a
        :class:`TcpParams` field or a BSD alias such as
        ``"TCP_NODELAY"``/``"SO_KEEPALIVE"``).  Mutates a private copy
        of ``default_params``, so sockets created with an explicit
        ``params=`` and other stacks sharing the original object are
        unaffected.  Existing connections keep their own options — use
        the connection-level :meth:`~TcpConnection.set_option` for
        those.
        """
        field_name, invert = resolve_socket_option(self.default_params, name)
        if not self._default_params_owned:
            self.default_params = copy.copy(self.default_params)
            self._default_params_owned = True
        setattr(self.default_params, field_name,
                (not value) if invert else value)

    def get_option(self, name: str):
        """Read a default socket option (see :meth:`set_option`)."""
        field_name, invert = resolve_socket_option(self.default_params, name)
        value = getattr(self.default_params, field_name)
        return (not value) if invert else value

    #: BSD-named thin aliases
    setsockopt = set_option
    getsockopt = get_option

    def crash(self) -> None:
        """Drop all connection state without notifying anyone.

        Models a node losing power: no FIN, no RST, no user callbacks —
        the peer discovers the loss through its own retransmission
        timeouts.  Listeners survive in the sense that a rebooted node
        would re-register them; here the stack object itself persists,
        so existing listeners keep accepting after the reboot.
        """
        for conn in list(self._connections.values()):
            conn.on_close = None
            conn.on_error = None
            conn.on_data = None
            conn.on_connect = None
            conn.on_send_space = None
            conn.on_awaiting_ack = None
            conn._teardown(None)
        self._connections.clear()
        self._awaiting.clear()
        if self.sleepy is not None:
            self.sleepy.set_fast_poll(False)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _alloc_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

    def _next_iss(self) -> int:
        self._iss += 64000
        return self._iss

    def _make_connection(
        self,
        local_port: int,
        peer_id: int,
        peer_port: int,
        params: TcpParams,
        dst_is_cloud: bool,
    ) -> TcpConnection:
        key = (local_port, peer_id, peer_port)
        if key in self._connections:
            raise ValueError(f"connection {key} already exists")
        metrics = getattr(self.sim, "metrics", None)
        if metrics is not None and metrics is not self._metrics:
            self._metrics = metrics
            metrics.pull_counters("tcp", self.node_id, self.trace.counters)
            self._instruments = node_instruments(metrics, self.node_id)
        conn = TcpConnection(
            self.sim,
            self.network,
            self.node_id,
            local_port,
            peer_id,
            peer_port,
            params=params,
            dst_is_cloud=dst_is_cloud,
            iss=self._next_iss(),
            trace=self.trace,
            cpu=self.cpu,
            on_cleanup=self._cleanup,
            instruments=self._instruments,
        )
        if self.sleepy is not None:
            conn.on_awaiting_ack = functools.partial(self._fast_poll, key)
        self._connections[key] = conn
        return conn

    def _cleanup(self, conn: TcpConnection) -> None:
        key = (conn.local_port, conn.peer_id, conn.peer_port)
        self._connections.pop(key, None)
        self._awaiting.discard(key)
        if self.sleepy is not None:
            self.sleepy.set_fast_poll(bool(self._awaiting))

    def _fast_poll(self, key, waiting: bool) -> None:
        """§9.2: poll every 100 ms while any connection expects an ACK."""
        if waiting:
            self._awaiting.add(key)
            self.sleepy.notify_tx_pending()
        else:
            self._awaiting.discard(key)
        self.sleepy.set_fast_poll(bool(self._awaiting))

    def _on_packet(self, packet: Ipv6Packet) -> None:
        seg = packet.payload
        if not isinstance(seg, Segment):
            return
        key = (seg.dst_port, packet.src, seg.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.on_segment(seg, packet)
            return
        listener = self._listeners.get(seg.dst_port)
        if listener is not None and seg.syn and not seg.ack_flag:
            params = listener.params or self.default_params
            conn = self._make_connection(
                seg.dst_port, packet.src, seg.src_port, params,
                dst_is_cloud=packet.src_is_cloud,
            )
            listener.accepted += 1
            conn.on_connect = functools.partial(listener._fire_accept, conn)
            conn.accept_syn(seg, packet)
            return
        # no socket: RST unless the offender was itself a RST
        if not seg.rst:
            self.trace.counters.incr("tcp.rst_sent")
            rst = Segment(
                src_port=seg.dst_port,
                dst_port=seg.src_port,
                seq=seg.ack if seg.ack_flag else 0,
                ack=(seg.seq + seg.seg_len) & 0xFFFFFFFF,
                flags=FLAG_RST | FLAG_ACK,
            )
            self.network.send(
                packet.src, PROTO_TCP, rst, rst.wire_bytes,
                dst_is_cloud=packet.src_is_cloud,
            )
