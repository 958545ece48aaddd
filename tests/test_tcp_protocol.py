"""Protocol-engine tests against a scripted fake network.

These drive :class:`TcpConnection` directly — no radio, no 6LoWPAN —
so each RFC behaviour (handshake options, window-update rules,
timestamp echo, persist backoff, delayed-ACK timing, simultaneous
open) can be pinned down segment by segment.
"""

from repro.core.connection import TcpConnection, TcpState
from repro.core.options import TcpOptions
from repro.core.segment import (
    FLAG_ACK,
    FLAG_PSH,
    FLAG_SYN,
    Segment,
)
from repro.core.simplified import tcplp_params
from repro.sim.engine import Simulator


class FakeNetwork:
    """Captures every segment the connection emits."""

    def __init__(self):
        self.sent = []

    def send(self, dst, proto, segment, wire_bytes, ecn=0, dst_is_cloud=False):
        self.sent.append(segment)

    def pop(self):
        seg = self.sent[-1]
        return seg

    def clear(self):
        self.sent = []


class FakePacket:
    src = 2
    ecn = 0


def make_conn(params=None, **kw):
    sim = Simulator()
    net = FakeNetwork()
    conn = TcpConnection(
        sim, net, local_id=1, local_port=1000, peer_id=2, peer_port=2000,
        params=params or tcplp_params(), iss=5000, **kw,
    )
    return sim, net, conn


def establish(sim, net, conn, peer_iss=9000, peer_mss=448, peer_window=4096):
    conn.connect()
    syn = net.pop()
    assert syn.syn and not syn.ack_flag
    synack = Segment(
        src_port=2000, dst_port=1000, seq=peer_iss,
        ack=(syn.seq + 1) & 0xFFFFFFFF, flags=FLAG_SYN | FLAG_ACK,
        window=peer_window,
        options=TcpOptions(mss=peer_mss, sack_permitted=True,
                           ts_val=1, ts_ecr=syn.options.ts_val),
    )
    conn.on_segment(synack, FakePacket())
    return syn


class TestHandshake:
    def test_syn_carries_options(self):
        sim, net, conn = make_conn()
        conn.connect()
        syn = net.pop()
        assert syn.options.mss == conn.params.mss
        assert syn.options.sack_permitted
        assert syn.options.has_timestamps
        assert syn.window == conn.params.recv_buffer

    def test_mss_negotiated_to_minimum(self):
        sim, net, conn = make_conn()
        establish(sim, net, conn, peer_mss=300)
        assert conn.mss == 300
        assert conn.state is TcpState.ESTABLISHED

    def test_final_ack_of_handshake(self):
        sim, net, conn = make_conn()
        establish(sim, net, conn)
        ack = net.pop()
        assert ack.ack_flag and not ack.syn
        assert ack.ack == 9001

    def test_features_disabled_if_peer_lacks_them(self):
        sim, net, conn = make_conn()
        conn.connect()
        syn = net.pop()
        synack = Segment(
            src_port=2000, dst_port=1000, seq=9000, ack=syn.seq + 1,
            flags=FLAG_SYN | FLAG_ACK, window=4096,
            options=TcpOptions(mss=448),  # no SACK, no timestamps
        )
        conn.on_segment(synack, FakePacket())
        assert not conn.sack_enabled
        assert not conn.ts_enabled

    def test_simultaneous_open(self):
        sim, net, conn = make_conn()
        conn.connect()
        # a bare SYN (not SYN-ACK) crosses ours
        syn = Segment(src_port=2000, dst_port=1000, seq=9000,
                      flags=FLAG_SYN, window=4096,
                      options=TcpOptions(mss=448))
        conn.on_segment(syn, FakePacket())
        assert conn.state is TcpState.SYN_RECEIVED
        reply = net.pop()
        assert reply.syn and reply.ack_flag
        # peer's ACK completes the open
        ack = Segment(src_port=2000, dst_port=1000, seq=9001,
                      ack=conn.snd_nxt, flags=FLAG_ACK, window=4096)
        conn.on_segment(ack, FakePacket())
        assert conn.state is TcpState.ESTABLISHED

    def test_ack_of_wrong_seq_in_syn_sent_gets_rst(self):
        sim, net, conn = make_conn()
        conn.connect()
        bogus = Segment(src_port=2000, dst_port=1000, seq=9000,
                        ack=123456, flags=FLAG_SYN | FLAG_ACK, window=100)
        conn.on_segment(bogus, FakePacket())
        assert net.pop().rst
        assert conn.state is TcpState.SYN_SENT


class TestWindowRules:
    def test_window_update_needs_newer_segment(self):
        sim, net, conn = make_conn()
        establish(sim, net, conn)
        conn.snd_wnd = 4096
        # an OLD segment (seq < snd_wl1) must not shrink the window
        old = Segment(src_port=2000, dst_port=1000, seq=9000,
                      ack=conn.snd_una, flags=FLAG_ACK, window=1)
        conn.snd_wl1 = 9001
        conn.on_segment(old, FakePacket())
        assert conn.snd_wnd == 4096

    def test_send_respects_peer_window(self):
        sim, net, conn = make_conn()
        establish(sim, net, conn, peer_window=500)
        net.clear()
        conn.send(b"z" * 1500)
        sent = sum(len(s.data) for s in net.sent)
        assert sent <= 500

    def test_zero_window_starts_persist(self):
        sim, net, conn = make_conn()
        establish(sim, net, conn, peer_window=0)
        conn.send(b"z" * 100)
        assert conn.persist_timer.armed
        net.clear()
        sim.run(until=conn.persist_timer.expiry + 0.01)
        probe = net.pop()
        assert len(probe.data) == 1  # one-byte window probe

    def test_persist_interval_backs_off(self):
        sim, net, conn = make_conn()
        establish(sim, net, conn, peer_window=0)
        conn.send(b"z" * 100)
        first = conn.persist_timer.expiry - sim.now
        sim.run(until=conn.persist_timer.expiry + 0.01)
        second = conn.persist_timer.expiry - sim.now
        assert second > first

    def test_persist_backoff_resets_across_episodes(self):
        # A stale _persist_shift must not leak into the next
        # zero-window episode: after the window reopens via a normal
        # inbound ACK (no probe ever answered), a fresh episode's first
        # probe fires at persist_min again, not at 2^shift backoff.
        sim, net, conn = make_conn()
        establish(sim, net, conn, peer_window=0)
        conn.send(b"z" * 100)
        assert conn.persist_timer.armed
        first = conn.persist_timer.expiry - sim.now

        # episode 1: several unanswered probes grow the backoff shift
        for _ in range(5):
            sim.run(until=conn.persist_timer.expiry + 0.001)
        assert conn._persist_shift >= 5
        probes_ep1 = conn.trace.counters.get("tcp.zero_window_probes")
        assert probes_ep1 == 5

        # the window reopens via a plain window-update ACK
        reopen = Segment(src_port=2000, dst_port=1000, seq=conn.rcv_nxt,
                         ack=conn.snd_una, flags=FLAG_ACK, window=4096)
        conn.on_segment(reopen, FakePacket())
        assert conn._persist_shift == 0
        assert not conn.persist_timer.armed

        # drain: the peer acks everything outstanding
        net.clear()
        sim.run(until=sim.now + 1.0)
        ack_all = Segment(src_port=2000, dst_port=1000, seq=conn.rcv_nxt,
                          ack=conn.snd_max, flags=FLAG_ACK, window=4096)
        conn.on_segment(ack_all, FakePacket())
        assert conn._flight_size() == 0

        # episode 2: the window slams shut again
        close = Segment(src_port=2000, dst_port=1000, seq=conn.rcv_nxt,
                        ack=conn.snd_max, flags=FLAG_ACK, window=0)
        conn.on_segment(close, FakePacket())
        conn.send(b"y" * 100)
        assert conn.persist_timer.armed
        second = conn.persist_timer.expiry - sim.now
        assert abs(second - first) < 1e-9
        assert abs(second - conn.params.persist_min) < 1e-9

        # and its first probe still counts in the shared counter
        net.clear()
        sim.run(until=conn.persist_timer.expiry + 0.001)
        probe = net.pop()
        assert len(probe.data) == 1
        assert conn.trace.counters.get("tcp.zero_window_probes") \
            == probes_ep1 + 1


class TestTimestampEcho:
    def test_echo_reflects_peer_tsval(self):
        sim, net, conn = make_conn()
        establish(sim, net, conn)
        data = Segment(src_port=2000, dst_port=1000, seq=9001,
                       ack=conn.snd_nxt, flags=FLAG_ACK | FLAG_PSH,
                       window=4096, data=b"ping",
                       options=TcpOptions(ts_val=777, ts_ecr=0))
        net.clear()
        conn.on_segment(data, FakePacket())
        sim.run(until=1.0)  # let the delayed ACK fire
        ack = net.pop()
        assert ack.options.ts_ecr == 777

    def test_old_segment_does_not_regress_tsrecent(self):
        sim, net, conn = make_conn()
        establish(sim, net, conn)
        for ts, seq, payload in ((100, 9001, b"a"), (200, 9002, b"b")):
            seg = Segment(src_port=2000, dst_port=1000, seq=seq,
                          ack=conn.snd_nxt, flags=FLAG_ACK, window=4096,
                          data=payload, options=TcpOptions(ts_val=ts, ts_ecr=0))
            conn.on_segment(seg, FakePacket())
        assert conn.ts_recent == 200


class TestDelayedAck:
    def test_single_segment_ack_is_delayed(self):
        sim, net, conn = make_conn()
        establish(sim, net, conn)
        net.clear()
        seg = Segment(src_port=2000, dst_port=1000, seq=9001,
                      ack=conn.snd_nxt, flags=FLAG_ACK, window=4096,
                      data=b"1" * 100, options=TcpOptions(ts_val=5, ts_ecr=0))
        conn.on_data = lambda d: None
        conn.on_segment(seg, FakePacket())
        assert net.sent == []  # no immediate ACK
        sim.run(until=conn.params.delayed_ack_timeout + 0.01)
        assert net.pop().ack_flag

    def test_second_segment_acks_immediately(self):
        sim, net, conn = make_conn()
        establish(sim, net, conn)
        conn.on_data = lambda d: None
        net.clear()
        for i, seq in enumerate((9001, 9101)):
            seg = Segment(src_port=2000, dst_port=1000, seq=seq,
                          ack=conn.snd_nxt, flags=FLAG_ACK, window=4096,
                          data=b"x" * 100,
                          options=TcpOptions(ts_val=5 + i, ts_ecr=0))
            conn.on_segment(seg, FakePacket())
        # the second in-order segment forces the ACK out at once
        assert any(s.ack == 9201 for s in net.sent)

    def test_out_of_order_acks_immediately_with_sack(self):
        sim, net, conn = make_conn()
        establish(sim, net, conn)
        conn.on_data = lambda d: None
        net.clear()
        ooo = Segment(src_port=2000, dst_port=1000, seq=9201,
                      ack=conn.snd_nxt, flags=FLAG_ACK, window=4096,
                      data=b"x" * 100, options=TcpOptions(ts_val=5, ts_ecr=0))
        conn.on_segment(ooo, FakePacket())
        dup = net.pop()
        assert dup.ack == 9001  # duplicate ACK at the hole
        assert dup.options.sack_blocks == [(9201, 9301)]


class TestRetransmitEngine:
    def test_rto_backoff_doubles(self):
        sim, net, conn = make_conn()
        establish(sim, net, conn)
        conn.send(b"d" * 100)
        first_expiry = conn.rexmt_timer.expiry
        sim.run(until=first_expiry + 0.01)
        second_gap = conn.rexmt_timer.expiry - sim.now
        assert second_gap > (first_expiry - 0) * 1.5

    def test_gives_up_after_max_retransmits(self):
        params = tcplp_params()
        params.max_retransmits = 3
        params.rto_max = 2.0
        sim, net, conn = make_conn(params=params)
        establish(sim, net, conn)
        errors = []
        conn.on_error = errors.append
        conn.send(b"d" * 100)
        sim.run(until=60.0)
        assert errors == ["connection timed out (data)"]
        assert conn.state is TcpState.CLOSED

    def test_retransmission_resends_head(self):
        sim, net, conn = make_conn()
        establish(sim, net, conn)
        conn.send(b"d" * 100)
        first = net.pop()
        sim.run(until=conn.rexmt_timer.expiry + 0.01)
        retx = net.pop()
        assert retx.seq == first.seq
        assert retx.data == first.data
