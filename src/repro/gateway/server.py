"""The gateway server: real listening sockets in front of the mesh.

:class:`Gateway` runs one :class:`~repro.gateway.runtime.PacedSimRunner`
and, per :class:`MoteBinding`, one real listening socket.  Every real
client accepted on a binding's TCP port is bridged onto a fresh
simulated TCP connection toward ``(node_id, sim_port)``; datagrams on a
UDP binding are proxied as simulated UDP exchanges.

The gateway's simulated endpoint is the paper's Figure-2 external host:
when the network has a cloud host (``with_cloud`` topologies), bridged
connections originate there and enter the mesh through the border
router's wired uplink — exactly the EC2-to-mote path of §9.  Without a
cloud host they originate on the border router itself.

Demo applications for motes live here too: :func:`install_echo` and
:func:`install_sink` give a node something to say, and
:func:`attach_wired_host` adds an extra Linux-class host behind the
border router (a radio-free target for large load-generation runs).
"""

from __future__ import annotations

import asyncio
import itertools
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.params import TcpParams
from repro.core.simplified import tcplp_params
from repro.core.socket_api import TcpStack
from repro.gateway.bridge import (
    HIGH_WATER,
    LOW_WATER,
    SessionBackoff,
    TcpBridge,
    UdpBridge,
)
from repro.gateway.limits import (
    CircuitBreaker,
    GatewayLimits,
    SpliceBudget,
    TokenBucket,
)
from repro.gateway.runtime import PacedSimRunner
from repro.net.wired import CloudHost
from repro.sim.metrics import MetricsRegistry

#: first simulated ephemeral port the UDP proxy hands out
UDP_EPHEMERAL_BASE = 40000


@dataclass
class MoteBinding:
    """One real listening socket mapped onto one simulated endpoint.

    ``port=0`` asks the OS for a free port; after :meth:`Gateway.start`
    the actual port is in ``bound_port``.
    """

    node_id: int
    sim_port: int
    host: str = "127.0.0.1"
    port: int = 0
    kind: str = "tcp"  # "tcp" | "udp"
    bound_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("tcp", "udp"):
            raise ValueError(f"unknown binding kind {self.kind!r}")


class Gateway:
    """Bridge real TCP/UDP sockets to simulated motes in real time."""

    def __init__(
        self,
        net,
        bindings: List[MoteBinding],
        speed: float = 1.0,
        slack_budget: float = 0.25,
        params: Optional[TcpParams] = None,
        backoff: Optional[dict] = None,
        udp_timeout: float = 30.0,
        limits: Optional[GatewayLimits] = None,
    ):
        self.net = net
        self.sim = net.sim
        self.bindings = list(bindings)
        self.udp_timeout = udp_timeout
        self.limits = limits or GatewayLimits()
        # jitter by default: retry storms across bridges decorrelate,
        # while an explicit policy (tests) stays exactly reproducible
        self._backoff_policy = dict(
            backoff if backoff is not None else {"jitter": 1.0}
        )
        self._backoff_seq = itertools.count()
        self._accept_bucket: Optional[TokenBucket] = None
        if self.limits.accept_rate is not None:
            self._accept_bucket = TokenBucket(
                self.limits.accept_rate, self.limits.accept_burst
            )
        self._splice: Optional[SpliceBudget] = None
        if self.limits.splice_budget is not None:
            self._splice = SpliceBudget(self.limits.splice_budget)
        self._splice_paused: set = set()
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._reaper_task: Optional[asyncio.Task] = None
        # the pacer and the gateway both export through the registry;
        # attach one if the simulation was built without observability
        if self.sim.metrics is None:
            net.attach_metrics(MetricsRegistry())
        self.runner = PacedSimRunner(
            self.sim, speed=speed, slack_budget=slack_budget
        )
        # simulated endpoint: the cloud host when the topology has one
        # (external traffic enters through the border router's wired
        # uplink, as in the paper's §9 deployment), the border node
        # otherwise; its stacks are the network's, shared with any app
        # installed there
        local_id = net.cloud.node_id if net.cloud is not None else net.border_id
        self.params = params or TcpParams()
        self.tcp_stack = net.tcp_stack(local_id)
        self.udp_stack = net.udp_stack(local_id)
        self._udp_ports = itertools.count(UDP_EPHEMERAL_BASE)
        self._servers: List = []
        self._udp_bridges: List[UdpBridge] = []
        self._bridges: set = set()
        m = self.sim.metrics
        self._c_accepted = m.counter("gw.accepted")
        self._g_active = m.gauge("gw.active")
        self._c_errors = m.counter("gw.errors")
        self._c_retries = m.counter("gw.session_retries")
        self._c_bytes_in = m.counter("gw.bytes_in")
        self._c_bytes_out = m.counter("gw.bytes_out")
        self._h_connect = m.histogram("gw.connect_seconds")
        self._h_udp_rtt = m.histogram("gw.udp_rtt_seconds")
        self._g_splice = m.gauge("gw.splice_buffered")
        self._c_splice_pauses = m.counter("gw.splice_pauses")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Gateway":
        """Start pacing and open every binding's real socket."""
        if not self.runner.running:
            self.runner.start()
        loop = asyncio.get_running_loop()
        for binding in self.bindings:
            if binding.kind == "tcp":
                server = await loop.create_server(
                    lambda b=binding: TcpBridge(self, b),
                    binding.host, binding.port,
                    backlog=self.limits.backlog,
                )
                binding.bound_port = server.sockets[0].getsockname()[1]
                self._servers.append(server)
            else:
                bridge_holder: List[UdpBridge] = []

                def factory(b=binding):
                    bridge = UdpBridge(self, b, timeout=self.udp_timeout)
                    bridge_holder.append(bridge)
                    return bridge

                transport, _proto = await loop.create_datagram_endpoint(
                    factory, local_addr=(binding.host, binding.port)
                )
                binding.bound_port = transport.get_extra_info("sockname")[1]
                self._udp_bridges.extend(bridge_holder)
        if self.limits.needs_reaper and self._reaper_task is None:
            self._reaper_task = loop.create_task(self._reap_loop())
        return self

    async def aclose(self) -> None:
        """Close every real socket, tear down bridges, stop pacing."""
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            try:
                await self._reaper_task
            except asyncio.CancelledError:
                pass
            self._reaper_task = None
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        for bridge in self._udp_bridges:
            bridge.close()
        self._udp_bridges.clear()
        for bridge in list(self._bridges):
            if bridge.transport is not None and not bridge.transport.is_closing():
                bridge.transport.abort()
        # let connection_lost callbacks run before stopping the sim
        await asyncio.sleep(0)
        await self.runner.stop()

    def endpoint(self, index: int = 0) -> tuple:
        """(host, port) of a started binding."""
        binding = self.bindings[index]
        if binding.bound_port is None:
            raise RuntimeError("gateway not started")
        return binding.host, binding.bound_port

    # ------------------------------------------------------------------
    # overload protection
    # ------------------------------------------------------------------
    def admit(self, binding: MoteBinding) -> Optional[str]:
        """Admission decision for a fresh client; the shed reason or None.

        Checked in cost order — capacity and accept rate are cheap
        local state; the breaker consumes its single half-open probe
        slot only if the client would otherwise be admitted.
        """
        limits = self.limits
        if (limits.max_connections is not None
                and len(self._bridges) >= limits.max_connections):
            return "capacity"
        if self._accept_bucket is not None and not self._accept_bucket.try_take():
            return "rate"
        breaker = self._breaker(binding)
        if breaker is not None and not breaker.allow():
            return "breaker"
        return None

    def count_shed(self, reason: str, binding: MoteBinding) -> None:
        self.sim.metrics.counter("gw.shed", reason=reason).inc()
        bus = self.sim.trace_bus
        if bus is not None:
            bus.emit("gw", binding.node_id, "shed",
                     reason=reason, port=binding.sim_port)

    def _breaker(self, binding: MoteBinding) -> Optional[CircuitBreaker]:
        if self.limits.breaker_threshold is None:
            return None
        breaker = self._breakers.get(id(binding))
        if breaker is None:
            breaker = CircuitBreaker(self.limits.breaker_threshold,
                                     self.limits.breaker_cooldown)
            self._breakers[id(binding)] = breaker
        return breaker

    def breaker_success(self, binding: MoteBinding) -> None:
        breaker = self._breaker(binding)
        if breaker is not None:
            breaker.record_success()

    def breaker_failure(self, binding: MoteBinding) -> None:
        breaker = self._breaker(binding)
        if breaker is not None:
            breaker.record_failure()

    def splice_acquire(self, bridge: TcpBridge, n: int) -> None:
        """Account ``n`` client bytes a bridge just buffered."""
        if self._splice is None:
            return
        within = self._splice.acquire(n)
        self._g_splice.set(self._splice.used)
        if not within and bridge not in self._splice_paused:
            self._splice_paused.add(bridge)
            bridge.budget_paused = True
            self._c_splice_pauses.inc()
            bridge._update_backpressure()

    def splice_release(self, bridge: TcpBridge, n: int) -> None:
        """Return ``n`` bytes to the budget (sim accepted them, or the
        bridge died); resume paused bridges once comfortably under."""
        if self._splice is None or n <= 0:
            return
        self._splice.release(n)
        self._g_splice.set(self._splice.used)
        if self._splice_paused and self._splice.should_resume:
            paused, self._splice_paused = self._splice_paused, set()
            for other in paused:
                other.budget_paused = False
                other._update_backpressure()

    def splice_used(self) -> int:
        """Bytes currently pinned against the splice budget (0 if off)."""
        return 0 if self._splice is None else self._splice.used

    async def _reap_loop(self) -> None:
        """Shed bridges that blew their establishment/idle deadline."""
        limits = self.limits
        while True:
            await asyncio.sleep(limits.reap_interval)
            now = _time.monotonic()
            for bridge in list(self._bridges):
                if bridge._closed:
                    continue
                if not bridge.established:
                    if (limits.establish_timeout is not None
                            and now - bridge._accept_wall
                            > limits.establish_timeout):
                        bridge.reap("establish_timeout")
                elif (limits.idle_timeout is not None
                        and now - bridge.last_activity > limits.idle_timeout):
                    bridge.reap("idle")

    # ------------------------------------------------------------------
    # services for the bridges
    # ------------------------------------------------------------------
    def make_backoff(self) -> SessionBackoff:
        policy = dict(self._backoff_policy)
        if policy.get("jitter") and "seed" not in policy:
            # distinct deterministic stream per bridge: bridges
            # decorrelate from each other, runs stay reproducible
            policy["seed"] = next(self._backoff_seq)
        return SessionBackoff(**policy)

    def sim_connect(self, binding: MoteBinding):
        """Open the simulated TCP leg toward a binding's mote."""
        return self.tcp_stack.connect(
            binding.node_id, binding.sim_port, params=self.params,
            dst_is_cloud=self._is_cloud_dst(binding.node_id),
        )

    def udp_send(self, binding: MoteBinding, src_port: int, data: bytes) -> None:
        self.udp_stack.send(
            binding.node_id, src_port, binding.sim_port, bytes(data),
            len(data), dst_is_cloud=self._is_cloud_dst(binding.node_id),
        )

    def alloc_udp_port(self) -> int:
        return next(self._udp_ports)

    def _is_cloud_dst(self, node_id: int) -> bool:
        return node_id not in self.net.nodes

    # -- metrics hooks (bridges call these) -----------------------------
    def on_bridge_open(self, bridge: TcpBridge) -> None:
        self._bridges.add(bridge)
        self._c_accepted.inc()
        self._g_active.set(len(self._bridges))

    def on_bridge_closed(self, bridge: TcpBridge) -> None:
        self._bridges.discard(bridge)
        self._splice_paused.discard(bridge)
        self._g_active.set(len(self._bridges))

    def count_bytes_in(self, n: int) -> None:
        self._c_bytes_in.inc(n)

    def count_bytes_out(self, n: int) -> None:
        self._c_bytes_out.inc(n)

    def count_error(self) -> None:
        self._c_errors.inc()

    def count_retry(self) -> None:
        self._c_retries.inc()

    def observe_connect_latency(self, seconds: float) -> None:
        self._h_connect.observe(seconds)

    def observe_udp_rtt(self, seconds: float) -> None:
        self._h_udp_rtt.observe(seconds)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def active_bridges(self) -> int:
        """Live bridged TCP connections (quiescence checks)."""
        return len(self._bridges)

    def slack_stats(self) -> dict:
        """The pacer's slack summary (see RealtimePacer.stats)."""
        return self.runner.pacer.stats()


# ----------------------------------------------------------------------
# in-sim applications and topology helpers
# ----------------------------------------------------------------------
class _TcpEchoApp:
    """Echo server on a simulated node: every byte received is sent
    back, buffering what the send window can't take yet.

    The per-session backlog is bounded: past ``high_water`` buffered
    bytes the session stops consuming, so the receive window closes
    toward the sender instead of the backlog growing without bound
    (the same watermark discipline :class:`TcpBridge` applies to real
    clients)."""

    def __init__(self, stack: TcpStack, port: int, params: TcpParams,
                 high_water: int = HIGH_WATER, low_water: int = LOW_WATER):
        self.bytes_echoed = 0
        self.accepted = 0
        self.high_water = high_water
        self.low_water = low_water
        stack.listen(port, self._on_accept, params=params)

    def _on_accept(self, conn) -> None:
        self.accepted += 1
        session = _EchoSession(self, conn)
        conn.on_data = session.on_data
        conn.on_send_space = session.on_send_space
        conn.on_peer_close = session.on_peer_close


class _EchoSession:
    def __init__(self, app: _TcpEchoApp, conn):
        self.app = app
        self.conn = conn
        self.backlog = bytearray()
        self.peer_done = False
        self.recv_paused = False

    def on_data(self, data: bytes) -> None:
        self.backlog.extend(data)
        self._flush()

    def on_send_space(self) -> None:
        self._flush()

    def on_peer_close(self) -> None:
        self.peer_done = True
        self._flush()

    def _flush(self) -> None:
        conn = self.conn
        while self.backlog and conn.is_open and conn.send_buf.free > 0:
            accepted = conn.send(bytes(self.backlog[: conn.send_buf.free]))
            if accepted <= 0:
                break
            self.app.bytes_echoed += accepted
            del self.backlog[:accepted]
        if self.peer_done and not self.backlog and conn.is_open:
            conn.close()
            return
        self._update_recv_pause()

    def _update_recv_pause(self) -> None:
        # pause by detaching on_data: received bytes then sit in the
        # connection's receive buffer and the advertised window closes
        conn = self.conn
        if not self.recv_paused and len(self.backlog) >= self.app.high_water:
            self.recv_paused = True
            conn.on_data = None
        elif self.recv_paused and len(self.backlog) < self.app.low_water:
            self.recv_paused = False
            conn.on_data = self.on_data
            data = conn.recv()
            if data:
                self.on_data(data)


class _TcpSinkApp:
    """Byte sink on a simulated node (bulk-upload target).

    :meth:`pause` stops consuming — buffered bytes close the receive
    window toward the uploader (a zero-window mote, from the gateway's
    point of view) until :meth:`resume`."""

    def __init__(self, stack: TcpStack, port: int, params: TcpParams):
        self.bytes = 0
        self.accepted = 0
        self.paused = False
        self._conns: List = []
        self._peer_done: set = set()
        stack.listen(port, self._on_accept, params=params)

    def _on_accept(self, conn) -> None:
        self.accepted += 1
        self._conns.append(conn)
        conn.on_data = None if self.paused else self._on_data
        conn.on_peer_close = lambda c=conn: self._on_peer_close(c)

    def _on_data(self, data: bytes) -> None:
        self.bytes += len(data)

    def _on_peer_close(self, conn) -> None:
        # while paused, unread bytes are still in the receive buffer;
        # defer the close so resume() can drain and count them
        self._peer_done.add(id(conn))
        if not self.paused and conn.is_open:
            conn.close()

    def pause(self) -> None:
        self.paused = True
        for conn in self._conns:
            conn.on_data = None

    def resume(self) -> None:
        self.paused = False
        for conn in self._conns:
            conn.on_data = self._on_data
            data = conn.recv()
            if data:
                self._on_data(data)
            if id(conn) in self._peer_done and conn.is_open:
                conn.close()


class _UdpEchoApp:
    """Datagram echo on a simulated node."""

    def __init__(self, net, node_id: int, port: int):
        self.stack = net.udp_stack(node_id)
        self.port = port
        self.datagrams = 0
        self.stack.bind(port, self._on_datagram)

    def _on_datagram(self, dgram, packet) -> None:
        self.datagrams += 1
        self.stack.send(
            packet.src, self.port, dgram.src_port, dgram.payload,
            dgram.payload_bytes, dst_is_cloud=packet.src_is_cloud,
        )


def install_echo(net, node_id: int, port: int, kind: str = "tcp",
                 params: Optional[TcpParams] = None,
                 high_water: int = HIGH_WATER, low_water: int = LOW_WATER):
    """Run an echo application on a simulated node.

    ``kind="tcp"`` echoes a byte stream (the gateway bulk-transfer
    target); ``kind="udp"`` echoes datagrams (the CoAP-exchange-shaped
    target).  TCP sessions use ``params``, TCPlp's profile by default.
    Returns the app object (it exposes counters).
    ``high_water``/``low_water`` bound the TCP echo backlog (tcp only).
    """
    if kind == "tcp":
        return _TcpEchoApp(net.tcp_stack(node_id), port,
                           params or tcplp_params(),
                           high_water=high_water, low_water=low_water)
    if kind == "udp":
        return _UdpEchoApp(net, node_id, port)
    raise ValueError(f"unknown echo kind {kind!r}")


def install_sink(net, node_id: int, port: int,
                 params: Optional[TcpParams] = None) -> _TcpSinkApp:
    """Run a TCP byte sink on a simulated node (upload target)."""
    return _TcpSinkApp(net.tcp_stack(node_id), port,
                       params or tcplp_params())


def attach_wired_host(net, host_id: int = 1001) -> CloudHost:
    """Add an extra Linux-class host behind the border router.

    The host hangs off the existing wired uplink (the topology must
    have been built ``with_cloud``), so traffic to it crosses the
    border router but no radio — a contention-free target that lets
    load generation scale to thousands of concurrent sessions.
    """
    if net.wired is None:
        raise ValueError("topology has no wired uplink (build with_cloud)")
    if host_id in net.nodes or host_id in net.hosts:
        raise ValueError(f"node id {host_id} already in use")
    host = CloudHost(net.sim, host_id)
    host.attach(net.wired, gateway_id=net.border_id)
    net.nodes[net.border_id].add_wired_link(host_id, net.wired)
    add_path = getattr(net.routing, "add_path", None)
    if add_path is not None:
        # static routing needs an explicit entry; mesh routing already
        # sends off-mesh ids to the border router's wired links
        add_path([host_id, net.border_id])
    net.hosts[host_id] = host
    return host
