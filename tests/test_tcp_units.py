"""Unit tests for the TCP building blocks."""

import pytest

from repro.core.buffers import ReceiveBuffer, SendBuffer
from repro.core.congestion import NewRenoCongestion
from repro.core.options import TcpOptions
from repro.core.rtt import RttEstimator
from repro.core.sack import SackScoreboard
from repro.core.segment import FLAG_ACK, FLAG_FIN, FLAG_SYN, Segment
from repro.core.seqnum import (
    MOD,
    seq_add,
    seq_ge,
    seq_gt,
    seq_le,
    seq_lt,
    seq_max,
    seq_min,
    seq_sub,
)


# ----------------------------------------------------------------------
# sequence arithmetic
# ----------------------------------------------------------------------
class TestSeqnum:
    def test_basic_ordering(self):
        assert seq_lt(1, 2) and seq_le(2, 2) and seq_gt(3, 2) and seq_ge(2, 2)

    def test_wraparound(self):
        near_top = MOD - 10
        assert seq_lt(near_top, 5)  # 5 is "after" the wrap
        assert seq_gt(5, near_top)
        assert seq_sub(5, near_top) == 15
        assert seq_add(near_top, 20) == 10

    def test_min_max(self):
        assert seq_max(MOD - 1, 1) == 1
        assert seq_min(MOD - 1, 1) == MOD - 1


# ----------------------------------------------------------------------
# options and segments
# ----------------------------------------------------------------------
class TestOptionsSegment:
    def test_options_round_trip(self):
        opts = TcpOptions(
            mss=448, sack_permitted=True, ts_val=123456, ts_ecr=654321,
            sack_blocks=[(100, 200), (300, 400)],
        )
        parsed = TcpOptions.decode(opts.encode())
        assert parsed.mss == 448
        assert parsed.sack_permitted
        assert parsed.ts_val == 123456 and parsed.ts_ecr == 654321
        assert parsed.sack_blocks == [(100, 200), (300, 400)]

    def test_options_padding_to_4(self):
        opts = TcpOptions(sack_permitted=True)
        assert opts.wire_bytes() % 4 == 0
        assert len(opts.encode()) == opts.wire_bytes()

    def test_header_sizes_match_table6(self):
        # Table 6: TCP header is 20 B bare ...
        bare = Segment(src_port=1, dst_port=2, seq=0)
        assert bare.wire_bytes == 20
        # ... and up to 44 B with timestamps + one SACK block.
        fat = Segment(
            src_port=1, dst_port=2, seq=0,
            options=TcpOptions(ts_val=1, ts_ecr=2, sack_blocks=[(5, 9)]),
        )
        assert fat.wire_bytes == 44

    def test_segment_round_trip(self):
        seg = Segment(
            src_port=8000, dst_port=49152, seq=111, ack=222,
            flags=FLAG_SYN | FLAG_ACK, window=1792,
            options=TcpOptions(mss=448, ts_val=7, ts_ecr=8),
            data=b"hello",
        )
        parsed = Segment.decode(seg.encode())
        assert parsed.src_port == 8000 and parsed.dst_port == 49152
        assert parsed.seq == 111 and parsed.ack == 222
        assert parsed.syn and parsed.ack_flag and not parsed.fin
        assert parsed.window == 1792
        assert parsed.options.mss == 448
        assert parsed.data == b"hello"

    def test_seg_len_counts_syn_fin(self):
        seg = Segment(src_port=1, dst_port=2, seq=0, flags=FLAG_SYN)
        assert seg.seg_len == 1
        seg = Segment(src_port=1, dst_port=2, seq=0, flags=FLAG_FIN, data=b"xy")
        assert seg.seg_len == 3

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            Segment.decode(b"short")


# ----------------------------------------------------------------------
# buffers
# ----------------------------------------------------------------------
class TestSendBuffer:
    def test_write_and_ack(self):
        buf = SendBuffer(10)
        assert buf.write(b"abcdef") == 6
        assert buf.used == 6 and buf.free == 4
        assert buf.peek(0, 3) == b"abc"
        assert buf.peek(3, 3) == b"def"
        buf.ack(2)
        assert buf.peek(0, 4) == b"cdef"

    def test_write_clips_to_capacity(self):
        buf = SendBuffer(4)
        assert buf.write(b"abcdef") == 4
        assert buf.write(b"x") == 0

    def test_ack_bounds(self):
        buf = SendBuffer(4)
        buf.write(b"ab")
        with pytest.raises(ValueError):
            buf.ack(3)


class TestReceiveBuffer:
    def test_in_order_write_and_read(self):
        buf = ReceiveBuffer(16)
        assert buf.write(0, b"hello") == 5
        assert buf._unread == 5
        assert buf.window == 11
        assert buf.read() == b"hello"
        assert buf.window == 16

    def test_out_of_order_held_then_absorbed(self):
        buf = ReceiveBuffer(16)
        assert buf.write(5, b"world") == 0  # OOO: no advance
        assert buf.out_of_order == 5
        assert buf.write(0, b"hello") == 10  # gap filled: both absorbed
        assert buf.read() == b"helloworld"
        assert buf.out_of_order == 0

    def test_overlapping_retransmission_trimmed(self):
        buf = ReceiveBuffer(16)
        buf.write(0, b"abcd")
        assert buf.write(-2, b"cdEF") == 2  # bytes c,d already in place
        assert buf.read() == b"abcdEF"

    def test_window_limits_writes(self):
        buf = ReceiveBuffer(8)
        assert buf.write(0, b"12345678ZZ") == 8  # trailing bytes trimmed
        assert buf.window == 0
        assert buf.write(0, b"x") == 0

    def test_circular_reuse(self):
        buf = ReceiveBuffer(8)
        for round_ in range(5):
            payload = bytes([65 + round_]) * 8
            assert buf.write(0, payload) == 8
            assert buf.read() == payload

    def test_sack_ranges(self):
        buf = ReceiveBuffer(32)
        rcv_nxt = 1000
        buf.write(4, b"BB")  # [1004, 1006)
        buf.write(10, b"CCC")  # [1010, 1013)
        blocks = buf.sack_ranges(rcv_nxt)
        assert (1004, 1006) in blocks
        assert (1010, 1013) in blocks

    def test_sack_ranges_limited_to_3(self):
        buf = ReceiveBuffer(64)
        for k in range(5):
            buf.write(2 + 4 * k, b"x")
        assert len(buf.sack_ranges(0)) == 3


# ----------------------------------------------------------------------
# RTT estimator
# ----------------------------------------------------------------------
class TestRtt:
    def test_initial_rto(self):
        rtt = RttEstimator(rto_initial=1.0)
        assert rtt.rto == 1.0

    def test_first_sample_seeds(self):
        rtt = RttEstimator(rto_min=0.2)
        rtt.update(0.3)
        assert rtt.srtt == pytest.approx(0.3)
        assert rtt.rto == pytest.approx(0.3 + 4 * 0.15)

    def test_smoothing_converges(self):
        rtt = RttEstimator(rto_min=0.1)
        for _ in range(100):
            rtt.update(0.25)
        assert rtt.srtt == pytest.approx(0.25, rel=0.01)
        assert rtt.rttvar < 0.01

    def test_rto_clamped(self):
        rtt = RttEstimator(rto_min=1.0, rto_max=4.0)
        rtt.update(0.01)
        assert rtt.rto == 1.0
        for _ in range(5):
            rtt.update(100.0)
        assert rtt.rto == 4.0

    def test_backoff_doubles_and_clamps(self):
        rtt = RttEstimator(rto_initial=1.0, rto_max=8.0)
        assert rtt.backed_off(0) == 1.0
        assert rtt.backed_off(1) == 2.0
        assert rtt.backed_off(2) == 4.0
        assert rtt.backed_off(10) == 8.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RttEstimator().update(-1)


# ----------------------------------------------------------------------
# congestion control
# ----------------------------------------------------------------------
class TestNewReno:
    def make(self, mss=100, max_window=400, enabled=True):
        return NewRenoCongestion(mss, max_window, enabled=enabled)

    def test_slow_start_doubles_per_window(self):
        cc = self.make()
        start = cc.cwnd
        cc.on_ack(100, now=1.0)
        assert cc.cwnd == start + 100

    def test_cwnd_capped_at_buffer(self):
        cc = self.make()
        for i in range(20):
            cc.on_ack(100, now=float(i))
        assert cc.cwnd == 400  # the small-buffer regime of §7.3

    def test_recovery_halves(self):
        cc = self.make()
        for i in range(20):
            cc.on_ack(100, now=float(i))
        cc.enter_recovery(flight_size=400, snd_nxt=4000, now=21.0)
        assert cc.ssthresh == 200
        assert cc.in_recovery
        cc.exit_recovery(now=22.0)
        assert cc.cwnd == 200
        assert not cc.in_recovery

    def test_timeout_collapses_to_one_mss(self):
        cc = self.make()
        for i in range(20):
            cc.on_ack(100, now=float(i))
        cc.on_timeout(flight_size=400, now=21.0)
        assert cc.cwnd == 100
        assert cc.timeouts == 1
        assert cc.cwnd < cc.ssthresh  # back in slow start

    def test_recovery_recovers_quickly_with_small_window(self):
        # §7.3: with a 4-segment window, cwnd is back at max within a
        # handful of ACKs after a loss event.
        cc = self.make(mss=100, max_window=400)
        for i in range(10):
            cc.on_ack(100, now=float(i))
        cc.on_timeout(400, now=11.0)
        acks_needed = 0
        t = 12.0
        while cc.cwnd < 400 and acks_needed < 50:
            cc.on_ack(100, now=t)
            acks_needed += 1
            t += 1
        assert acks_needed <= 8  # ~2 RTTs' worth of ACKs at w=4

    def test_disabled_cc_uses_full_window(self):
        cc = self.make(enabled=False)
        assert cc.window() == 400
        cc.on_timeout(400, now=1.0)
        assert cc.window() == 400
        assert cc.timeouts == 1

    def test_ecn_echo_halves_like_loss(self):
        cc = self.make()
        for i in range(20):
            cc.on_ack(100, now=float(i))
        cc.on_ecn_echo(flight_size=400, now=21.0)
        assert cc.cwnd == 200


# ----------------------------------------------------------------------
# SACK scoreboard
# ----------------------------------------------------------------------
class TestScoreboard:
    def test_update_and_merge(self):
        sb = SackScoreboard()
        sb.update([(100, 200)], snd_una=0)
        sb.update([(150, 300)], snd_una=0)
        assert sb.ranges == [(100, 300)]

    def test_advance_prunes(self):
        sb = SackScoreboard()
        sb.update([(100, 200), (300, 400)], snd_una=0)
        sb.advance(250)
        assert sb.ranges == [(300, 400)]

    def test_first_hole_before_first_range(self):
        sb = SackScoreboard()
        sb.update([(100, 200)], snd_una=0)
        hole = sb.first_hole(snd_una=0, snd_nxt=500, mss=50)
        assert hole == (0, 50)

    def test_first_hole_between_ranges(self):
        sb = SackScoreboard()
        sb.update([(0, 100), (200, 300)], snd_una=0)
        sb.advance(100)
        hole = sb.first_hole(snd_una=100, snd_nxt=500, mss=1000)
        assert hole == (100, 200)

    def test_first_hole_skips_sacked_block_at_snd_una(self):
        """RFC 6675 NextSeg: the first segment to repair is the lowest
        unSACKed one, so a SACKed block at snd_una is stepped over to
        the hole between it and the next block."""
        sb = SackScoreboard()
        sb.update([(0, 100), (200, 300)], snd_una=0)
        assert sb.first_hole(snd_una=0, snd_nxt=500, mss=1000) == (100, 200)
        assert sb.first_hole(snd_una=0, snd_nxt=500, mss=40) == (100, 140)

    def test_no_hole_when_empty(self):
        sb = SackScoreboard()
        assert sb.first_hole(0, 100, 50) is None

    def test_malformed_block_ignored(self):
        sb = SackScoreboard()
        sb.update([(200, 100)], snd_una=0)
        assert sb.ranges == []


# ----------------------------------------------------------------------
# timestamp-echo regressions (PR 3): ts_ecr == 0 is a legitimate echo
# at the 32-bit timestamp wrap, not an absent option
# ----------------------------------------------------------------------
class TestTimestampEchoAtWrap:
    @staticmethod
    def _established(seed=0):
        from tests.test_tcp_edge_cases import make_conn_pair

        net, conn, server = make_conn_pair(seed=seed)
        assert conn.ts_enabled
        return net, conn, server

    def _ack_with_echo(self, conn, ts_ecr, acked=0):
        return Segment(
            src_port=8000, dst_port=conn.local_port,
            seq=conn.rcv_nxt, ack=seq_add(conn.snd_una, acked),
            flags=FLAG_ACK, window=4096,
            options=TcpOptions(ts_val=7, ts_ecr=ts_ecr),
        )

    def test_rtt_sampled_when_echo_is_zero(self):
        net, conn, _ = self._established()
        # sender's clock just wrapped: now_ms is small, the echo is 0
        conn.ts_clock = lambda now: 3
        before = conn.rtt.samples
        conn._sample_rtt(self._ack_with_echo(conn, ts_ecr=0))
        assert conn.rtt.samples == before + 1
        assert conn.rtt.last_sample == pytest.approx(0.003)

    def test_rtt_skips_absent_echo(self):
        net, conn, _ = self._established()
        seg = self._ack_with_echo(conn, ts_ecr=0)
        seg.options = TcpOptions()  # no timestamp option at all
        before = conn.rtt.samples
        conn._sample_rtt(seg)
        assert conn.rtt.samples == before

    def test_rtt_skips_insane_echo(self):
        net, conn, _ = self._established()
        conn.ts_clock = lambda now: 3
        before = conn.rtt.samples
        # echo from the "future": wrap-aware delta lands >= 2**28
        conn._sample_rtt(self._ack_with_echo(conn, ts_ecr=(1 << 29)))
        assert conn.rtt.samples == before

    def test_bad_rexmit_undo_fires_on_zero_echo(self):
        net, conn, _ = self._established()
        conn.send(b"x" * 100)
        conn.output()  # data in flight; snd_nxt > snd_una
        conn._badrexmit = {"cwnd": 1344, "ssthresh": 896, "ts": 2}
        conn.cc.cwnd = 448
        conn._ack_advance(self._ack_with_echo(conn, ts_ecr=0, acked=100))
        # echo 0 predates the retransmission stamp 2 (wrap-aware), so
        # the timeout was spurious and the congestion state is restored
        # (the ACK itself then grows cwnd from the restored value)
        assert conn.cc.cwnd >= 1344
        assert conn.cc.ssthresh == 896
        assert conn._badrexmit is None
        assert conn.trace.counters.get("tcp.bad_retransmits_undone") == 1

    def test_bad_rexmit_no_undo_when_echo_matches_rexmit(self):
        net, conn, _ = self._established()
        conn.send(b"x" * 100)
        conn.output()
        conn._badrexmit = {"cwnd": 1344, "ssthresh": 896, "ts": 2}
        conn.cc.cwnd = 448
        shrunk_ssthresh = conn.cc.ssthresh
        # the ACK echoes the retransmission itself: genuine loss, keep
        # the congestion response
        conn._ack_advance(self._ack_with_echo(conn, ts_ecr=2, acked=100))
        assert conn.cc.ssthresh == shrunk_ssthresh != 896
        assert conn._badrexmit is None
        assert not conn.trace.counters.get("tcp.bad_retransmits_undone")
