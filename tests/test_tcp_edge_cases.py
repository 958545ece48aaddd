"""TCP edge cases: persist, ECN, challenge ACKs, feature flags, timers."""

import pytest

from repro.core.congestion import NewRenoCongestion
from repro.core.connection import TcpConnection, TcpState
from repro.core.sack import SackScoreboard
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
from repro.sim import metrics
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
        assert server.recv_buf._unread >= 0  # no crash
        delivered = total - conn.send_buf.used - (total - sent[0])
        assert conn.snd_wnd > 0

    def test_zero_window_probe_is_counted_and_traced(self):
        """RFC 9293 §3.8.6.1: a sender facing a zero window probes it.
        The receiver stops reading until its window closes; each probe
        is one ``tcp.zero_window_probes`` count and one bus event."""
        metrics.auto_attach(True, capture_trace=True, trace_capacity=None)
        try:
            params = tcplp_params()
            net, conn, server = make_conn_pair(params_a=params,
                                               params_b=params)
        finally:
            metrics.auto_attach(False)
        conn.on_send_space = lambda: conn.send(b"q" * conn.send_buf.free)
        conn.send(b"q" * conn.send_buf.free)
        net.sim.run(until=40.0)
        assert conn.snd_wnd == 0 and server.recv_buf.window == 0
        probes = [e for e in net.sim.trace_bus.events
                  if e.kind == "zero_window_probe"]
        assert len(probes) >= 2
        assert conn.trace.counters.get("tcp.zero_window_probes") \
            == len(probes)
        assert [(e.layer, e.node) for e in probes] == [("tcp", 0)] * len(
            probes)
        # the persist interval backs off from one probe to the next
        assert [e.fields["shift"] for e in probes] == list(
            range(len(probes)))

    def test_window_update_reopens_flow(self):
        params = tcplp_params()
        net, conn, server = make_conn_pair(params_a=params, params_b=params)
        conn.send(b"z" * params.recv_buffer)
        net.sim.run(until=20.0)
        assert server.recv_buf._unread == params.recv_buffer
        got = server.recv(100)
        assert len(got) == 100
        # reading 100 < MSS bytes should NOT trigger an update yet;
        # reading a full MSS worth must
        server.recv()
        net.sim.run(until=25.0)
        assert conn.snd_wnd >= params.mss

    def test_last_ack_keeps_probing_a_zero_window(self):
        wire = _Wire()
        wire.establish()
        a, b = wire.a, wire.b
        a.send(b"x" * b.recv_buf.capacity)  # b never reads: fill it
        while a.snd_wnd:
            wire.deliver(a)
            wire.sim.run(until=wire.sim.now + 0.2)  # b's delayed ACK
            wire.deliver(b)
        assert a.send(b"y" * 1000) == 1000
        b.close()
        wire.deliver(b)  # b's FIN: a enters CLOSE_WAIT
        wire.deliver(a)
        a.close()
        assert a.state is TcpState.LAST_ACK
        assert len(b.recv()) == b.recv_buf.capacity
        b.network.clear()  # b's window update is lost
        for _ in range(20):
            wire.sim.run(until=wire.sim.now + 5.0)
            wire.deliver(a)
            wire.deliver(b)
        assert a.state is TcpState.CLOSED
        assert b.state in (TcpState.TIME_WAIT, TcpState.CLOSED)
        assert b.recv() == b"y" * 1000


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

    def __init__(self, params_b=None, params=None, iss=(5000, 9000),
                 ts_clock=None, conn_cls=TcpConnection):
        self.sim = Simulator()
        if params is None:
            params = tcplp_params()
            params.time_wait = 1.0
        nets = FakeNetwork(), FakeNetwork()
        for net in nets:
            net.ts_clock = ts_clock  # read once, by the constructor
        self.a = conn_cls(self.sim, nets[0], local_id=1,
                          local_port=1000, peer_id=2, peer_port=2000,
                          params=params, iss=iss[0])
        self.b = conn_cls(self.sim, nets[1], local_id=2,
                          local_port=2000, peer_id=1, peer_port=1000,
                          params=params_b or params, iss=iss[1])

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


def _half_open():
    """a's SYN handed to b; b's SYN-ACK not yet delivered."""
    wire = _Wire()
    wire.a.connect()
    syn, = wire.a.network.sent
    wire.a.network.clear()
    wire.b.accept_syn(syn, _From(1))
    assert wire.b.state is TcpState.SYN_RECEIVED
    return wire


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

    # shrunk counterexamples of tests/test_tcp_machine.py
    def test_close_in_syn_received_sends_fin_once_established(self):
        wire = _half_open()
        wire.b.close()
        wire.deliver(wire.b)  # SYN-ACK
        wire.deliver(wire.a)  # the handshake's last ACK
        assert wire.b.state is TcpState.FIN_WAIT_1
        fin, = wire.deliver(wire.b)
        assert fin.fin and wire.a.state is TcpState.CLOSE_WAIT
        wire.a.close()
        wire.deliver(wire.a)  # a's FIN
        wire.deliver(wire.b)  # its ACK
        assert wire.a.state is TcpState.CLOSED
        assert wire.b.state is TcpState.TIME_WAIT

    def test_fin_overtaken_by_the_peers_is_still_sent_from_closing(self):
        wire = _Wire()
        wire.establish()
        wire.a.send(b"d" * (4 * wire.a.mss))  # half of it waits on cwnd
        assert wire.a._unsent_bytes() > 0
        wire.a.close()
        wire.b.close()
        wire.deliver(wire.b)  # b's FIN arrives before a's FIN was sent
        assert wire.a.state is TcpState.CLOSING and wire.a._fin_seq is None
        got = b""
        for _ in range(3):
            wire.deliver(wire.a)
            got += wire.b.recv()
            wire.sim.run(until=wire.sim.now + 0.2)
            wire.deliver(wire.b)
        assert wire.a.state is wire.b.state is TcpState.TIME_WAIT
        assert got == b"d" * (4 * wire.a.mss)


class TestMachineCounterexamples:
    """Shrunk failures of tests/test_tcp_machine.py, one per fix."""

    def test_data_queued_in_syn_received_arrives_whole(self):
        wire = _half_open()
        assert wire.b.send(b"hello") == 5
        wire.deliver(wire.b)  # SYN-ACK
        wire.deliver(wire.a)  # ACK: the SYN's sequence number is not data
        wire.deliver(wire.b)
        assert wire.a.recv() == b"hello"

    def test_old_duplicate_syn_resets_the_handshake(self):
        # RFC 793 figure 10: a stray SYN turns a's open into a
        # simultaneous one with the wrong peer ISN; b answers a's ACK
        # of that ISN with a reset instead of ignoring it forever
        wire = _half_open()
        stray = Segment(src_port=2000, dst_port=1000, seq=777,
                        flags=FLAG_SYN, window=1000)
        wire.a.on_segment(stray, _From(2))
        assert wire.a.state is TcpState.SYN_RECEIVED
        errors = []
        wire.a.on_error = errors.append
        for _ in range(3):
            wire.deliver(wire.a)
            wire.deliver(wire.b)
        assert errors == ["connection reset by peer"]

    def test_bare_ack_after_a_timeout_carries_snd_max(self):
        wire = _Wire()
        wire.establish()
        wire.a.send(b"d" * (2 * wire.a.mss))
        wire.deliver(wire.a)  # b has both segments; its ACK is lost
        wire.b.network.clear()
        wire.sim.run(until=wire.sim.now + wire.a._current_rto() + 0.01)
        assert wire.a.snd_nxt != wire.a.snd_max  # go-back-N rewound it
        wire.a.network.clear()
        wire.a._send_ack_now()
        ack, = wire.a.network.sent
        # snd_nxt would sit left of b's window: b would drop the ACK
        assert ack.seq == wire.a.snd_max == wire.b.rcv_nxt

    def test_ack_left_of_the_window_still_updates_it(self):
        # a's window probe byte was accepted; a's next bare ACK, which
        # carries the reopened window, now sits one byte left of b's
        # window and must not be dropped whole
        wire = _Wire()
        wire.establish()
        a, b = wire.a, wire.b
        probe = Segment(src_port=1000, dst_port=2000, seq=a.snd_nxt,
                        ack=a.rcv_nxt, flags=FLAG_ACK, window=0, data=b"p")
        b.on_segment(probe, _From(1))
        assert b.snd_wnd == 0
        update = Segment(src_port=1000, dst_port=2000, seq=a.snd_nxt,
                         ack=a.rcv_nxt, flags=FLAG_ACK, window=1792)
        b.on_segment(update, _From(1))
        assert b.snd_wnd == 1792

    def test_duplicated_acks_do_not_inflate_cwnd_without_bound(self):
        cc = NewRenoCongestion(mss=448, max_window=448)
        cc.enter_recovery(448, 1000, 0.0)
        for _ in range(10):
            cc.on_dupack_in_recovery(0.0)
        assert cc.cwnd <= cc.max_window + 3 * cc.mss
        assert cc.window() == cc.max_window

    def test_acks_of_unsent_data_are_rate_limited(self):
        # two ends whose window probes were each accepted ACK bytes the
        # other never counted as sent; answering each at once is a storm
        wire = _Wire()
        wire.establish()
        b = wire.b
        ahead = Segment(src_port=1000, dst_port=2000, seq=b.rcv_nxt,
                        ack=b.snd_max + 1, flags=FLAG_ACK, window=1792)
        for _ in range(3 * b.params.challenge_ack_limit):
            b.on_segment(ahead, _From(1))
        assert len(b.network.sent) == b.params.challenge_ack_limit

    def test_fin_ahead_of_a_hole_is_kept(self):
        # else the FIN must be retransmitted after the hole fills, one
        # more backed-off timeout before the close completes
        wire = _Wire()
        wire.establish()
        wire.a.send(b"d" * 100)
        wire.a.close()
        data, fin = wire.a.network.sent
        wire.b.on_segment(fin, _From(1))  # the FIN overtakes the data
        assert wire.b.state is TcpState.ESTABLISHED
        wire.b.on_segment(data, _From(1))
        assert wire.b.state is TcpState.CLOSE_WAIT
        assert wire.b.recv() == b"d" * 100

    def test_fin_lost_with_data_follows_the_resent_data(self):
        # not one backed-off timeout later
        wire = _Wire()
        wire.establish()
        wire.a.send(b"d" * 100)
        wire.a.close()
        wire.a.network.clear()  # the data and the FIN are lost
        wire.sim.run(until=wire.sim.now + wire.a._current_rto() + 0.01)
        wire.deliver(wire.a)  # the data, resent by the timeout
        wire.sim.run(until=wire.sim.now + 0.2)  # b's delayed ACK
        wire.deliver(wire.b)
        fin, = wire.a.network.sent
        assert fin.fin and fin.seq == wire.a._fin_seq

    def test_sack_ranges_stay_ordered_across_the_wrap(self):
        top = 1 << 32
        board = SackScoreboard()
        board.update([(0, 500)], top - 1000)  # just past the wrap
        board.update([(top - 500, top - 100)], top - 1000)
        assert board.ranges == [(top - 500, top - 100), (0, 500)]


class TestTimestampEcho:
    def test_retransmission_after_a_lost_ack_is_echoed(self):
        # §9.4: with timestamps the ACK of a retransmission times the
        # retransmission.  Echoing the original instead makes the RTT
        # sample span the timeout, and the undo of footnote 8 then calls
        # a genuine timeout spurious.
        wire = _Wire()
        wire.establish()
        a, b = wire.a, wire.b
        sent_at = wire.sim.now
        a.send(b"d" * 100)
        wire.deliver(a)
        # b's delayed ACK is lost, and a's timeout fires
        wire.sim.run(until=sent_at + a._current_rto() + 0.001)
        assert b.network.sent and a.network.sent
        b.network.clear()
        resent, = wire.deliver(a)  # the retransmission: a duplicate at b
        assert resent.seq == a.snd_una
        wire.sim.run(until=wire.sim.now + 0.05)
        wire.deliver(b)
        assert a.snd_una == a.snd_max
        assert a.rtt.last_sample == pytest.approx(0.051, abs=0.002)
        assert a.trace.counters.get("tcp.bad_retransmits_undone") == 0


class _Poller:
    """A sleepy end device's fast-poll switch, recorded."""

    def __init__(self):
        self.fast = []

    def set_fast_poll(self, active):
        self.fast.append(active)

    def notify_tx_pending(self):
        pass


class TestStackBehaviour:
    def test_crash_leaves_fast_poll(self):
        """§9.2: a sleepy node polls fast only while it awaits an ACK; a
        crash drops every connection, so the node polls slowly again."""
        net = build_pair(seed=3)
        poller = _Poller()
        sa = TcpStack(net.sim, net.nodes[0].ipv6, 0, sleepy=poller)
        sb = TcpStack(net.sim, net.nodes[1].ipv6, 1)
        sb.listen(8000, lambda c: None)
        sa.connect(1, 8000, params=tcplp_params())
        assert poller.fast == [True]  # the SYN awaits its SYN-ACK
        sa.crash()
        assert poller.fast == [True, False]
        assert sa.active_connections() == 0

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
