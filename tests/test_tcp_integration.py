"""End-to-end TCP tests over the simulated LLN."""

from repro.core.params import linux_like_params
from repro.core.simplified import tcplp_params, uip_params
from repro.core.socket_api import TcpStack
from repro.experiments.topology import CLOUD_ID, build_chain, build_pair
from repro.experiments.workload import BulkTransfer
from repro.phy.medium import UniformLoss


def make_stacks(net, a=0, b=1):
    sa = TcpStack(net.sim, net.nodes[a].ipv6, a, cpu=net.nodes[a].radio.cpu)
    sb = TcpStack(net.sim, net.nodes[b].ipv6, b, cpu=net.nodes[b].radio.cpu)
    return sa, sb


def test_three_way_handshake_and_data():
    net = build_pair(seed=1)
    sa, sb = make_stacks(net)
    got = []
    accepted = []

    def on_accept(conn):
        accepted.append(conn)
        conn.on_data = got.append

    sb.listen(8000, on_accept)
    conn = sa.connect(1, 8000, params=tcplp_params())
    connected = []
    conn.on_connect = lambda: connected.append(True)
    net.sim.run(until=2.0)
    assert connected == [True]
    assert len(accepted) == 1
    conn.send(b"hello lln tcp")
    net.sim.run(until=4.0)
    assert b"".join(got) == b"hello lln tcp"


def test_bulk_transfer_integrity_and_goodput():
    net = build_pair(seed=2)
    sa, sb = make_stacks(net)
    xfer = BulkTransfer(net.sim, sa, sb, receiver_id=1, params=tcplp_params(),
                        receiver_params=tcplp_params())
    result = xfer.measure(warmup=5.0, duration=30.0)
    assert xfer.errors == []
    # §6.3: node-to-node goodput around 63-75 kb/s; accept a broad band
    assert 40 < result.goodput_kbps < 85
    assert result.rto_events == 0


def test_bulk_transfer_to_cloud_via_border_router():
    net = build_chain(1, seed=3)
    node_stack = TcpStack(net.sim, net.nodes[1].ipv6, 1,
                          cpu=net.nodes[1].radio.cpu)
    cloud_stack = TcpStack(net.sim, net.cloud, CLOUD_ID,
                           default_params=linux_like_params())
    xfer = BulkTransfer(
        net.sim, node_stack, cloud_stack, receiver_id=CLOUD_ID,
        params=tcplp_params(to_cloud=True), dst_is_cloud=True,
    )
    result = xfer.measure(warmup=5.0, duration=30.0)
    assert xfer.errors == []
    assert 40 < result.goodput_kbps < 85


def test_downlink_cloud_to_node():
    net = build_chain(1, seed=4)
    node_stack = TcpStack(net.sim, net.nodes[1].ipv6, 1,
                          cpu=net.nodes[1].radio.cpu)
    cloud_stack = TcpStack(net.sim, net.cloud, CLOUD_ID,
                           default_params=linux_like_params())
    xfer = BulkTransfer(
        net.sim, cloud_stack, node_stack, receiver_id=1,
        params=linux_like_params(), receiver_params=tcplp_params(to_cloud=True),
    )
    result = xfer.measure(warmup=5.0, duration=30.0)
    assert xfer.errors == []
    # downlink is a bit slower (paper Fig. 4) but same order
    assert 30 < result.goodput_kbps < 85


def test_multihop_goodput_declines_with_hops():
    results = {}
    for hops in (1, 3):
        net = build_chain(hops, seed=5)
        for n in net.nodes.values():
            n.mac.params.retry_delay = 0.04
        src = net.nodes[hops]
        stack_src = TcpStack(net.sim, src.ipv6, hops, cpu=src.radio.cpu)
        stack_dst = TcpStack(net.sim, net.nodes[0].ipv6, 0)
        xfer = BulkTransfer(net.sim, stack_src, stack_dst, receiver_id=0,
                            params=tcplp_params(), receiver_params=tcplp_params())
        results[hops] = xfer.measure(warmup=5.0, duration=40.0).goodput_kbps
    # §7.2: three hops should run at very roughly 1/3 of one hop
    assert results[3] < 0.55 * results[1]
    assert results[3] > 5.0


def test_retransmission_recovers_from_loss():
    net = build_pair(seed=6)
    # 5% frame loss: link retries mask most, TCP catches the rest
    net.medium.loss_models.append(UniformLoss(0.05, net.rng))
    sa, sb = make_stacks(net)
    xfer = BulkTransfer(net.sim, sa, sb, receiver_id=1, params=tcplp_params(),
                        receiver_params=tcplp_params())
    result = xfer.measure(warmup=5.0, duration=30.0)
    assert xfer.errors == []
    assert result.bytes_delivered > 0
    assert result.goodput_kbps > 30


def test_uip_stop_and_wait_is_much_slower_than_tcplp():
    """Table 7's qualitative claim: windowed full-scale TCP beats
    single-segment stop-and-wait by a wide margin on the same link."""
    def run(params):
        net = build_pair(seed=7)
        sa, sb = make_stacks(net)
        xfer = BulkTransfer(net.sim, sa, sb, receiver_id=1,
                            params=params, receiver_params=params)
        return xfer.measure(warmup=5.0, duration=30.0).goodput_kbps

    uip = run(uip_params(mss_frames=1))
    tcplp = run(tcplp_params())
    # On an identical always-on link the win is pipelining + MSS
    # amortisation (~1.6x); Table 7's 5-40x additionally reflects the
    # baselines' duty-cycled MACs and slower platforms, reproduced in
    # benchmarks/test_table7_stacks.py.
    assert tcplp > 1.5 * uip


def test_graceful_close_both_directions():
    net = build_pair(seed=8)
    sa, sb = make_stacks(net)
    server_conns = []
    sb.listen(8000, lambda c: server_conns.append(c))
    conn = sa.connect(1, 8000, params=tcplp_params())
    net.sim.run(until=2.0)
    server = server_conns[0]
    closed = []
    server.on_peer_close = lambda: (closed.append("peer"), server.close())
    conn.on_close = lambda: closed.append("self")
    conn.send(b"bye")
    net.sim.run(until=3.0)
    conn.close()
    net.sim.run(until=20.0)
    from repro.core.connection import TcpState
    assert "peer" in closed
    assert conn.state in (TcpState.TIME_WAIT, TcpState.CLOSED)
    assert server.state is TcpState.CLOSED


def test_rst_on_connect_to_closed_port():
    net = build_pair(seed=9)
    sa, sb = make_stacks(net)
    errors = []
    conn = sa.connect(1, 9999, params=tcplp_params())
    conn.on_error = errors.append
    net.sim.run(until=5.0)
    assert errors == ["connection refused"]


def test_flow_control_zero_window_and_reopen():
    net = build_pair(seed=10)
    sa, sb = make_stacks(net)
    server_conns = []
    # receiver app does NOT read: window must close
    params = tcplp_params()
    sb.listen(8000, lambda c: server_conns.append(c), params=params)
    conn = sa.connect(1, 8000, params=params)
    net.sim.run(until=2.0)
    # push more than the receive buffer
    total = params.recv_buffer + 500
    sent = 0
    payload = b"z" * 256

    def fill():
        nonlocal sent
        while sent < total and conn.send_buf.free > 0:
            n = conn.send(payload[: min(256, total - sent)])
            sent += n
            if n == 0:
                break

    conn.on_send_space = fill
    fill()
    net.sim.run(until=30.0)
    server = server_conns[0]
    assert server.recv_buf._unread == params.recv_buffer  # buffer full
    assert conn.snd_wnd == 0
    # now the app reads; the window update lets the rest flow
    drained = server.recv()
    assert len(drained) == params.recv_buffer
    net.sim.run(until=90.0)
    assert server.recv_buf._unread + len(drained) >= total - conn.send_buf.used


def test_fast_retransmit_preferred_over_timeout():
    """With a 4-segment window, a single dropped segment should be
    repaired by fast retransmit (3 dupacks), not an RTO (§7.3)."""
    net = build_pair(seed=11)

    from repro.lowpan.frag import Fragment
    from repro.mac.frame import Frame

    class KillOneDatagram:
        """Drop every frame copy of one mid-flow datagram so link
        retries cannot mask the loss (a true TCP-segment loss)."""

        def __init__(self, nth_datagram):
            self.n = nth_datagram
            self.target = None
            self.seen = set()

        def __call__(self, frame, s, r):
            payload = frame.payload if isinstance(frame, Frame) else None
            if not isinstance(payload, Fragment) or s != 0:
                return False
            key = (payload.origin, payload.tag)
            if key not in self.seen:
                self.seen.add(key)
                if len(self.seen) == self.n:
                    self.target = key
            return key == self.target

    net.medium.frame_filters.append(KillOneDatagram(30))
    sa, sb = make_stacks(net)
    xfer = BulkTransfer(net.sim, sa, sb, receiver_id=1, params=tcplp_params(),
                        receiver_params=tcplp_params())
    result = xfer.measure(warmup=10.0, duration=10.0)
    counters = xfer.connection.trace.counters
    assert counters.get("tcp.fast_retransmits") >= 1
    assert counters.get("tcp.rto_events") == 0
