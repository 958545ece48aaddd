"""FreeBSD-heritage TCP extensions: header prediction, Nagle,
keepalives, challenge-ACK rate limiting, bad-retransmit undo."""

from repro.core.connection import TcpState
from repro.core.segment import FLAG_RST, Segment
from repro.core.simplified import tcplp_params
from repro.core.socket_api import TcpStack
from repro.experiments.topology import build_pair
from repro.experiments.workload import BulkTransfer


def make_conn_pair(seed=0, params_a=None, params_b=None):
    net = build_pair(seed=seed)
    sa = TcpStack(net.sim, net.nodes[0].ipv6, 0, cpu=net.nodes[0].radio.cpu)
    sb = TcpStack(net.sim, net.nodes[1].ipv6, 1, cpu=net.nodes[1].radio.cpu)
    server_conns = []
    sb.listen(8000, server_conns.append, params=params_b or tcplp_params())
    conn = sa.connect(1, 8000, params=params_a or tcplp_params())
    net.sim.run(until=2.0)
    return net, conn, server_conns[0]


class TestHeaderPrediction:
    def test_bulk_transfer_mostly_fast_path(self):
        net = build_pair(seed=30)
        sa = TcpStack(net.sim, net.nodes[0].ipv6, 0)
        sb = TcpStack(net.sim, net.nodes[1].ipv6, 1)
        xfer = BulkTransfer(net.sim, sa, sb, receiver_id=1,
                            params=tcplp_params(),
                            receiver_params=tcplp_params())
        xfer.measure(5.0, 20.0)
        # receiver side: nearly every data segment is the predicted one
        rx = [c for c in sb._connections.values()][0] if sb._connections else None
        counters = sb.trace.counters
        predicted = counters.get("tcp.header_predictions")
        received = counters.get("tcp.segs_rcvd")
        assert predicted > 0.6 * received

    def test_prediction_disabled_by_flag(self):
        params = tcplp_params()
        params.header_prediction = False
        net, conn, server = make_conn_pair(params_a=params, params_b=params)
        conn.send(b"x" * 500)
        net.sim.run(until=5.0)
        assert server.trace.counters.get("tcp.header_predictions") == 0


class TestNagle:
    def test_nagle_coalesces_small_writes(self):
        def run(nagle):
            params = tcplp_params()
            params.nagle = nagle
            params.delayed_ack = False  # isolate Nagle's effect
            net, conn, server = make_conn_pair(seed=31, params_a=params,
                                               params_b=params)
            base = conn.trace.counters.get("tcp.data_segs_sent")
            # a burst of tiny writes in one event
            for _ in range(10):
                conn.send(b"ab")
            net.sim.run(until=10.0)
            return conn.trace.counters.get("tcp.data_segs_sent") - base

        with_nagle = run(True)
        without = run(False)
        assert with_nagle < without

    def test_nagle_never_strands_data(self):
        params = tcplp_params()
        params.nagle = True
        net, conn, server = make_conn_pair(seed=32, params_a=params,
                                           params_b=params)
        got = []
        server.on_data = got.append
        for _ in range(7):
            conn.send(b"tiny")
        net.sim.run(until=10.0)
        assert b"".join(got) == b"tiny" * 7


class TestKeepalive:
    def make_keepalive_pair(self, seed=33, idle=5.0, interval=1.0, probes=3):
        params = tcplp_params()
        params.keepalive = True
        params.keepalive_idle = idle
        params.keepalive_interval = interval
        params.keepalive_probes = probes
        return make_conn_pair(seed=seed, params_a=params,
                              params_b=tcplp_params())

    def test_idle_connection_probed_and_survives(self):
        net, conn, server = self.make_keepalive_pair()
        net.sim.run(until=30.0)
        assert conn.trace.counters.get("tcp.keepalive_probes") >= 1
        assert conn.state is TcpState.ESTABLISHED

    def test_dead_peer_detected(self):
        net, conn, server = self.make_keepalive_pair()
        errors = []
        conn.on_error = errors.append
        net.sim.run(until=3.0)
        net.medium.block_link(0, 1)  # peer unreachable
        net.sim.run(until=60.0)
        assert errors == ["connection timed out (keepalive)"]
        assert conn.state is TcpState.CLOSED

    def test_traffic_suppresses_probes(self):
        net, conn, server = self.make_keepalive_pair(idle=5.0)

        def chat():
            if conn.is_open:
                conn.send(b"ping")
                net.sim.schedule(2.0, chat)

        net.sim.schedule(0.5, chat)
        net.sim.run(until=20.0)
        assert conn.trace.counters.get("tcp.keepalive_probes") == 0


class TestChallengeAckRateLimit:
    def test_blind_rst_flood_is_throttled(self):
        net, conn, server = make_conn_pair(seed=34)
        packet = type("P", (), {"src": 1, "ecn": 0})()
        for _ in range(50):
            evil = Segment(src_port=server.local_port,
                           dst_port=conn.local_port,
                           seq=(conn.rcv_nxt + 7) % (1 << 32),
                           flags=FLAG_RST)
            conn.on_segment(evil, packet)
        counters = conn.trace.counters
        assert counters.get("tcp.challenge_acks") <= conn.params.challenge_ack_limit
        assert counters.get("tcp.challenge_acks_suppressed") >= 30
        assert conn.state is TcpState.ESTABLISHED


class TestBadRetransmitUndo:
    def _delayed_ack_scenario(self, seed=35):
        """Send data, then deliver a crafted ACK that echoes a timestamp
        *older* than a (simulated) RTO retransmission — exactly what a
        delayed-but-not-lost ACK looks like after a spurious timeout."""
        from repro.core.options import TcpOptions
        from repro.core.segment import FLAG_ACK

        net, conn, server = make_conn_pair(seed=seed)
        conn.send(b"Q" * 400)
        net.sim.run(until=net.sim.now + 0.02)  # data in flight, no ACK yet
        assert conn._flight_size() > 0
        # pretend the RTO just fired: the engine snapshots cwnd/ssthresh
        # (values below max_window so later clamping can't mask the undo)
        saved_cwnd, saved_ssthresh = 900, 4444
        conn._badrexmit = {
            "cwnd": saved_cwnd,
            "ssthresh": saved_ssthresh,
            "ts": conn._now_ts() + 500,  # retransmission is 'in the future'
        }
        ack = Segment(
            src_port=server.local_port, dst_port=conn.local_port,
            seq=conn.rcv_nxt, ack=conn.snd_nxt, flags=FLAG_ACK,
            window=4096,
            options=TcpOptions(ts_val=conn.ts_recent,
                               ts_ecr=conn._now_ts()),  # pre-RTO echo
        )
        packet = type("P", (), {"src": 1, "ecn": 0})()
        conn.on_segment(ack, packet)
        return conn, saved_cwnd, saved_ssthresh

    def test_spurious_timeout_restores_cwnd(self):
        conn, cwnd, ssthresh = self._delayed_ack_scenario()
        assert conn.trace.counters.get("tcp.bad_retransmits_undone") == 1
        # restored, then grown by at most one MSS by the ACK itself
        assert cwnd <= conn.cc.cwnd <= cwnd + conn.mss
        assert conn.cc.ssthresh == ssthresh
        assert conn._badrexmit is None

    def test_genuine_timeout_not_undone(self):
        """An ACK echoing the retransmission's own timestamp (or newer)
        answers the retransmission — no undo."""
        from repro.core.options import TcpOptions
        from repro.core.segment import FLAG_ACK

        net, conn, server = make_conn_pair(seed=36)
        conn.send(b"Q" * 400)
        net.sim.run(until=net.sim.now + 0.02)
        retransmit_ts = conn._now_ts()
        conn._badrexmit = {"cwnd": 3333, "ssthresh": 4444,
                          "ts": retransmit_ts}
        ack = Segment(
            src_port=server.local_port, dst_port=conn.local_port,
            seq=conn.rcv_nxt, ack=conn.snd_nxt, flags=FLAG_ACK,
            window=4096,
            options=TcpOptions(ts_val=conn.ts_recent, ts_ecr=retransmit_ts),
        )
        packet = type("P", (), {"src": 1, "ecn": 0})()
        conn.on_segment(ack, packet)
        assert conn.trace.counters.get("tcp.bad_retransmits_undone") == 0
        assert conn.cc.cwnd != 3333
        assert conn._badrexmit is None
