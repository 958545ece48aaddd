"""TCP edge cases: persist, ECN, challenge ACKs, feature flags, timers."""

import pytest

from repro.core.connection import TcpConnection, TcpState
from repro.core.segment import FLAG_ACK, FLAG_RST, FLAG_SYN, Segment
from repro.core.simplified import (
    FEATURE_MATRIX,
    blip_params,
    gnrc_params,
    tcplp_params,
    uip_params,
)
from repro.core.socket_api import TcpStack
from repro.experiments.topology import build_pair
from repro.sim.engine import Simulator
from tests.test_tcp_protocol import FakeNetwork


def make_conn_pair(seed=0, params_a=None, params_b=None):
    net = build_pair(seed=seed)
    sa = TcpStack(net.sim, net.nodes[0].ipv6, 0)
    sb = TcpStack(net.sim, net.nodes[1].ipv6, 1)
    server_conns = []
    sb.listen(8000, server_conns.append, params=params_b or tcplp_params())
    conn = sa.connect(1, 8000, params=params_a or tcplp_params())
    net.sim.run(until=2.0)
    assert server_conns, "handshake failed"
    return net, conn, server_conns[0]


class TestZeroWindow:
    def test_persist_probes_fire_on_zero_window(self):
        params = tcplp_params()
        net, conn, server = make_conn_pair(params_a=params, params_b=params)
        # server app never reads: fill its window completely
        total = params.recv_buffer + 300
        sent = [0]

        def fill():
            while sent[0] < total and conn.send_buf.free > 0:
                n = conn.send(b"q" * min(128, total - sent[0]))
                if n == 0:
                    return
                sent[0] += n

        conn.on_send_space = fill
        fill()
        net.sim.run(until=40.0)
        assert conn.snd_wnd == 0
        assert conn.trace.counters.get("tcp.zero_window_probes") >= 1
        # now the app reads; everything eventually arrives
        server.recv()
        net.sim.run(until=120.0)
        assert server.recv_buf.available + 0 >= 0  # no crash
        delivered = total - conn.send_buf.used - (total - sent[0])
        assert conn.snd_wnd > 0

    def test_window_update_reopens_flow(self):
        params = tcplp_params()
        net, conn, server = make_conn_pair(params_a=params, params_b=params)
        conn.send(b"z" * params.recv_buffer)
        net.sim.run(until=20.0)
        assert server.recv_buf.available == params.recv_buffer
        got = server.recv(100)
        assert len(got) == 100
        # reading 100 < MSS bytes should NOT trigger an update yet;
        # reading a full MSS worth must
        server.recv()
        net.sim.run(until=25.0)
        assert conn.snd_wnd >= params.mss


class TestChallengeAcks:
    def test_blind_rst_is_challenged(self):
        net, conn, server = make_conn_pair()
        # RST with an in-window but non-exact sequence number
        evil = Segment(src_port=server.local_port, dst_port=conn.local_port,
                       seq=(conn.rcv_nxt + 5) % (1 << 32), flags=FLAG_RST)
        conn.on_segment(evil, type("P", (), {"src": 1, "ecn": 0})())
        assert conn.state is TcpState.ESTABLISHED
        assert conn.trace.counters.get("tcp.challenge_acks") >= 1

    def test_exact_rst_resets(self):
        net, conn, server = make_conn_pair()
        errors = []
        conn.on_error = errors.append
        rst = Segment(src_port=server.local_port, dst_port=conn.local_port,
                      seq=conn.rcv_nxt, flags=FLAG_RST)
        conn.on_segment(rst, type("P", (), {"src": 1, "ecn": 0})())
        assert conn.state is TcpState.CLOSED
        assert errors == ["connection reset by peer"]

    def test_in_window_syn_is_challenged(self):
        net, conn, server = make_conn_pair()
        syn = Segment(src_port=server.local_port, dst_port=conn.local_port,
                      seq=conn.rcv_nxt, flags=FLAG_SYN | FLAG_ACK,
                      ack=conn.snd_nxt)
        conn.on_segment(syn, type("P", (), {"src": 1, "ecn": 0})())
        assert conn.state is TcpState.ESTABLISHED
        assert conn.trace.counters.get("tcp.challenge_acks") >= 1


class TestEcn:
    def test_ecn_negotiated_and_responds_to_ce(self):
        params = tcplp_params(ecn=True)
        net, conn, server = make_conn_pair(params_a=params, params_b=params)
        assert conn.ecn_enabled and server.ecn_enabled
        # make every mesh link mark CE on data packets (fake congestion)
        original = net.nodes[0].ipv6.route_out

        def marking(packet):
            from repro.net.ipv6 import ECN_CE, ECN_ECT0
            if packet.ecn == ECN_ECT0:
                packet.ecn = ECN_CE
            original(packet)

        net.nodes[0].ipv6.route_out = marking
        got = []
        server.on_data = got.append
        payload = b"e" * 1500  # fits the 4-segment send buffer
        accepted = conn.send(payload)
        assert accepted == len(payload)
        net.sim.run(until=30.0)
        assert b"".join(got) == payload  # data still flows
        assert conn.trace.counters.get("tcp.ecn_responses") >= 1

    def test_no_ecn_without_negotiation(self):
        net, conn, server = make_conn_pair()  # default: ecn off
        assert not conn.ecn_enabled


class TestSimplifiedStacks:
    def test_uip_profile_matches_table1(self):
        p = uip_params()
        assert not p.use_timestamps and not p.use_sack
        assert not p.ooo_reassembly and not p.delayed_ack
        assert p.rtt_estimation
        assert p.send_buffer == p.mss  # single segment in flight

    def test_blip_has_fixed_rto(self):
        p = blip_params()
        assert not p.rtt_estimation
        assert p.rto_min == p.rto_initial == 3.0

    def test_gnrc_has_cc_and_reassembly(self):
        p = gnrc_params()
        assert p.congestion_control and p.ooo_reassembly
        assert not p.use_sack and not p.use_timestamps

    def test_feature_matrix_shape(self):
        assert set(FEATURE_MATRIX) == {"uIP", "BLIP", "GNRC", "TCPlp"}
        tcplp = FEATURE_MATRIX["TCPlp"]
        assert all(tcplp[k] for k in tcplp)

    def test_ooo_disabled_drops_out_of_order_data(self):
        # a receiver without reassembly (uIP, GNRC) but with room for
        # two segments drops the second when it overtakes the first,
        # ACKs rcv_nxt at once, and takes it again once retransmitted
        params_b = tcplp_params()
        params_b.ooo_reassembly = params_b.delayed_ack = False
        wire = _Wire(params_b)
        wire.establish()
        assert wire.b._advertised_window() >= 2 * wire.a.mss
        got = []
        wire.b.on_data = got.append
        data = bytes(range(256)) * (2 * wire.a.mss // 256 + 1)
        data = data[:2 * wire.a.mss]
        wire.a.send(data)
        seg1, seg2 = wire.a.network.sent
        wire.a.network.clear()
        wire.b.on_segment(seg2, _From(1))
        assert wire.b.trace.counters.get("tcp.ooo_dropped") == 1
        dupack, = wire.b.network.sent
        assert dupack.ack == seg1.seq and not dupack.data
        wire.b.on_segment(seg1, _From(1))
        assert b"".join(got) == data[:len(seg1.data)]
        wire.deliver(wire.b)  # the ACKs
        wire.sim.run(until=wire.sim.now + wire.a._current_rto() + 0.1)
        wire.deliver(wire.a)  # the retransmitted second segment
        assert wire.a.trace.counters.get("tcp.retransmits") == 1
        assert b"".join(got) == data


class TestTimeWait:
    def test_time_wait_expires_to_closed(self):
        params = tcplp_params()
        params.time_wait = 1.0
        net, conn, server = make_conn_pair(params_a=params)
        server.on_peer_close = server.close
        conn.close()
        net.sim.run(until=5.0)
        assert conn.state in (TcpState.TIME_WAIT, TcpState.CLOSED)
        net.sim.run(until=30.0)
        assert conn.state is TcpState.CLOSED


class _From:
    """The slice of an IPv6 packet ``on_segment`` reads: the sender."""

    ecn = 0

    def __init__(self, src):
        self.src = src


class _Wire:
    """Two connections over fake networks; the test hands segments across."""

    def __init__(self, params_b=None):
        self.sim = Simulator()
        params = tcplp_params()
        params.time_wait = 1.0
        self.a = TcpConnection(self.sim, FakeNetwork(), local_id=1,
                               local_port=1000, peer_id=2, peer_port=2000,
                               params=params, iss=5000)
        self.b = TcpConnection(self.sim, FakeNetwork(), local_id=2,
                               local_port=2000, peer_id=1, peer_port=1000,
                               params=params_b or params, iss=9000)

    def deliver(self, sender, count=None):
        """Hand the first ``count`` segments ``sender`` emitted (all by
        default) to its peer, in order."""
        receiver = self.b if sender is self.a else self.a
        segs = sender.network.sent[:count]
        del sender.network.sent[:count]
        for seg in segs:
            receiver.on_segment(seg, _From(sender.local_id))
        return segs

    def establish(self):
        self.a.connect()
        syn, = self.a.network.sent
        self.a.network.clear()
        self.b.accept_syn(syn, _From(1))
        self.deliver(self.b)  # SYN-ACK
        self.deliver(self.a)  # ACK
        assert self.a.state is self.b.state is TcpState.ESTABLISHED


class TestCloseStateMachine:
    def test_simultaneous_close_passes_through_closing(self):
        wire = _Wire()
        wire.establish()
        wire.a.close()
        wire.b.close()
        assert wire.a.state is wire.b.state is TcpState.FIN_WAIT_1
        # the FINs cross: each side sees the peer's FIN before its own
        # FIN is acknowledged
        fin_a, = wire.deliver(wire.a)
        assert fin_a.fin
        assert wire.b.state is TcpState.CLOSING
        fin_b, = wire.deliver(wire.b, 1)
        assert fin_b.fin
        assert wire.a.state is TcpState.CLOSING
        wire.deliver(wire.b)  # b's ACK of a's FIN
        assert wire.a.state is TcpState.TIME_WAIT
        wire.deliver(wire.a)  # a's ACK of b's FIN
        assert wire.b.state is TcpState.TIME_WAIT
        # both 2MSL timers expire: nothing is left open or armed
        wire.sim.run(until=wire.sim.now + 1.5)
        assert wire.a.state is wire.b.state is TcpState.CLOSED
        assert wire.sim.armed_timers() == []

    def test_fin_retransmitted_into_time_wait_is_reacked(self):
        wire = _Wire()
        wire.establish()
        wire.a.close()
        wire.deliver(wire.a)  # FIN -> b in CLOSE_WAIT, ACK back
        wire.deliver(wire.b)
        assert wire.a.state is TcpState.FIN_WAIT_2
        wire.b.close()
        fin_b, = wire.deliver(wire.b)
        assert wire.a.state is TcpState.TIME_WAIT
        wire.a.network.clear()  # the ACK of fin_b is lost ...
        wire.a.on_segment(fin_b, _From(2))  # ... so b retransmits
        ack, = wire.a.network.sent
        assert ack.ack_flag and not ack.fin
        assert ack.ack == wire.a.rcv_nxt
        assert wire.a.state is TcpState.TIME_WAIT

    def test_close_in_syn_sent_tears_down(self):
        wire = _Wire()
        wire.a.connect()
        assert wire.a.state is TcpState.SYN_SENT
        wire.a.close()
        assert wire.a.state is TcpState.CLOSED
        assert wire.sim.armed_timers() == []

    def test_connect_on_open_and_send_on_closed_raise(self):
        wire = _Wire()
        with pytest.raises(RuntimeError, match="send"):
            wire.a.send(b"x")
        wire.establish()
        with pytest.raises(RuntimeError, match="connect"):
            wire.a.connect()


class TestStackBehaviour:
    def test_listener_close_stops_accepting(self):
        net = build_pair(seed=3)
        sa = TcpStack(net.sim, net.nodes[0].ipv6, 0)
        sb = TcpStack(net.sim, net.nodes[1].ipv6, 1)
        listener = sb.listen(8000, lambda c: None)
        listener.close()
        errors = []
        conn = sa.connect(1, 8000, params=tcplp_params())
        conn.on_error = errors.append
        net.sim.run(until=5.0)
        assert errors == ["connection refused"]

    def test_duplicate_listen_rejected(self):
        net = build_pair(seed=4)
        sb = TcpStack(net.sim, net.nodes[1].ipv6, 1)
        sb.listen(8000, lambda c: None)
        with pytest.raises(ValueError):
            sb.listen(8000, lambda c: None)

    def test_connections_cleaned_up_after_close(self):
        net, conn, server = make_conn_pair()
        stack_size_before = 1
        conn.abort()
        net.sim.run(until=5.0)
        assert conn.state is TcpState.CLOSED
        assert server.state is TcpState.CLOSED

    def test_ephemeral_ports_unique(self):
        net = build_pair(seed=5)
        sa = TcpStack(net.sim, net.nodes[0].ipv6, 0)
        sb = TcpStack(net.sim, net.nodes[1].ipv6, 1)
        sb.listen(8000, lambda c: None)
        c1 = sa.connect(1, 8000, params=tcplp_params())
        c2 = sa.connect(1, 8000, params=tcplp_params())
        assert c1.local_port != c2.local_port

    def test_syn_retransmission_then_give_up(self):
        net = build_pair(seed=6)
        net.medium.block_link(0, 1)
        sa = TcpStack(net.sim, net.nodes[0].ipv6, 0)
        params = tcplp_params()
        params.max_syn_retries = 2
        errors = []
        conn = sa.connect(1, 8000, params=params)
        conn.on_error = errors.append
        net.sim.run(until=60.0)
        assert errors == ["connection timed out (SYN)"]
        assert conn.trace.counters.get("tcp.syn_retransmits") == 2
