"""Property-based tests (hypothesis) for core invariants."""

import os
import tempfile
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import ReceiveBuffer, SendBuffer
from repro.core.options import KIND_NOP, TcpOptions
from repro.core.segment import Segment
from repro.core.seqnum import (
    MOD,
    seq_add,
    seq_ge,
    seq_le,
    seq_lt,
    seq_max,
    seq_min,
    seq_sub,
)
from repro.core.sack import SackScoreboard
from repro.lowpan.frag import Fragmenter, Reassembler
from repro.mac.frame import Frame, FrameKind, decode_frame
from repro.net.ipv6 import PROTO_TCP, Ipv6Packet, decode_header
from repro.net.pcap import PcapWriter, read_pcap
from repro.sim.engine import Simulator

seqs = st.integers(min_value=0, max_value=MOD - 1)
small = st.integers(min_value=0, max_value=2**20)


class TestSeqnumProperties:
    @given(seqs, small)
    def test_add_sub_roundtrip(self, a, d):
        assert seq_sub(seq_add(a, d), a) == d

    @given(seqs, small)
    def test_ordering_consistent(self, a, d):
        b = seq_add(a, d)
        if d == 0:
            assert seq_le(a, b) and seq_ge(a, b)
        else:
            assert seq_lt(a, b)
            assert not seq_lt(b, a)

    @given(seqs, seqs)
    def test_min_max_partition(self, a, b):
        lo, hi = seq_min(a, b), seq_max(a, b)
        assert {lo, hi} == {a, b}
        assert seq_le(lo, hi)


class TestSendBufferProperties:
    @given(st.lists(st.binary(min_size=1, max_size=50), max_size=20))
    def test_fifo_byte_stream(self, chunks):
        """Whatever was accepted comes back out in order."""
        buf = SendBuffer(256)
        accepted = bytearray()
        for chunk in chunks:
            n = buf.write(chunk)
            accepted += chunk[:n]
        assert buf.peek(0, buf.used) == bytes(accepted[: buf.used])
        # drain and compare
        out = bytearray()
        while buf.used:
            take = min(7, buf.used)
            out += buf.peek(0, take)
            buf.ack(take)
        assert bytes(out) == bytes(accepted)

    @given(st.binary(max_size=600))
    def test_never_exceeds_capacity(self, data):
        buf = SendBuffer(100)
        buf.write(data)
        assert buf.used <= 100
        assert buf.used + buf.free == 100


@st.composite
def segments_with_gaps(draw):
    """A scattering of (offset, data) writes covering [0, n)."""
    n = draw(st.integers(min_value=1, max_value=60))
    payload = bytes(range(1, 1 + n % 255)) * (n // 255 + 1)
    payload = payload[:n].replace(b"\x00", b"\x01")
    pieces = []
    step = draw(st.integers(min_value=1, max_value=10))
    for start in range(0, n, step):
        pieces.append((start, payload[start : start + step]))
    order = draw(st.permutations(pieces))
    return n, payload, list(order)


class TestReceiveBufferProperties:
    @given(segments_with_gaps())
    @settings(max_examples=60)
    def test_any_arrival_order_reassembles(self, case):
        n, payload, pieces = case
        buf = ReceiveBuffer(64)
        advanced = 0
        for start, data in pieces:
            advanced += buf.write(start - advanced, data)
        assert advanced == n
        assert buf.read() == payload

    @given(segments_with_gaps())
    @settings(max_examples=60)
    def test_duplicates_are_harmless(self, case):
        n, payload, pieces = case
        buf = ReceiveBuffer(64)
        advanced = 0
        for start, data in pieces + pieces:
            rel = start - advanced
            if rel + len(data) <= 0:
                continue  # entirely consumed already
            advanced += buf.write(rel, data)
        assert advanced == n
        assert buf.read() == payload

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=80),
           st.binary(min_size=1, max_size=100))
    def test_window_invariant(self, cap, rel, data):
        buf = ReceiveBuffer(cap)
        buf.write(rel, data)
        assert 0 <= buf.window <= cap
        assert buf.available + buf.window == cap

    @given(st.integers(min_value=4, max_value=48),
           st.lists(st.tuples(st.booleans(), st.integers(0, 60),
                              st.integers(1, 12)),
                    min_size=1, max_size=40),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=200)
    def test_sack_ranges_match_per_byte_reference(self, cap, ops, max_blocks):
        """Edge-to-edge hopping over the ring against the byte-by-byte
        walk it replaced, through wrap-around and more runs than
        ``max_blocks``; the maintained out-of-order count against the
        bitmap."""
        buf = ReceiveBuffer(cap)
        rcv_nxt = 0xFFFFFFF0  # the blocks cross the 2^32 wrap too
        for is_read, a, b in ops:
            if is_read:
                buf.read(b)
            else:
                rcv_nxt = seq_add(rcv_nxt, buf.write(a % cap, bytes(b)))
            assert (buf.out_of_order_bytes()
                    == sum(buf._present) - buf.available)
            assert (buf.sack_ranges(rcv_nxt, max_blocks)
                    == _sack_ranges_per_byte(buf, rcv_nxt, max_blocks))

    # The ring and its bitmap are allocated by the first in-window
    # write; before it every read path must see an empty buffer.
    @given(st.integers(min_value=1, max_value=64),
           st.lists(st.one_of(st.none(), st.integers(0, 80)), max_size=5))
    def test_read_before_first_write(self, cap, reads):
        buf = ReceiveBuffer(cap)
        for n in reads:
            assert buf.read(n) == b""
        assert (buf.available, buf.window, buf.out_of_order_bytes()) \
            == (0, cap, 0)
        assert buf.sack_ranges(0) == [] == _sack_ranges_per_byte(buf, 0, 3)
        assert not buf._buf and not buf._present

    @given(st.integers(min_value=1, max_value=64),
           st.binary(min_size=0, max_size=40),
           st.booleans(), st.integers(0, 40))
    def test_write_outside_the_window_allocates_nothing(
            self, cap, data, beyond, slack):
        # wholly past the window's right edge, or wholly before rcv_nxt
        rel = cap + slack if beyond else -len(data) - slack
        buf = ReceiveBuffer(cap)
        assert buf.write(rel, data) == 0
        assert not buf._buf and not buf._present
        assert (buf.available, buf.window, buf.out_of_order_bytes()) \
            == (0, cap, 0)
        assert buf.sack_ranges(0) == []
        assert buf.write(0, b"\x07") == 1 and buf.read() == b"\x07"

    @given(st.integers(min_value=1, max_value=64),
           st.lists(st.one_of(st.none(), st.integers(0, 80)), max_size=5),
           st.integers(-20, 80),
           st.binary(min_size=1, max_size=80))
    def test_first_write_after_reads(self, cap, reads, rel, data):
        buf = ReceiveBuffer(cap)
        for n in reads:
            buf.read(n)
        if rel < 0:  # the part before rcv_nxt is trimmed
            data, rel = data[-rel:], 0
        kept = data[:max(0, cap - rel)]
        advanced = buf.write(rel, data)
        assert advanced == (len(kept) if rel == 0 else 0)
        assert buf.out_of_order_bytes() == len(kept) - advanced
        assert buf.sack_ranges(0) == _sack_ranges_per_byte(buf, 0, 3)
        if rel and kept:
            assert buf.sack_ranges(0) == [(rel, rel + len(kept))]
            gap = bytes(range(1, rel + 1))
            assert buf.write(0, gap) == rel + len(kept)
            assert buf.read() == gap + kept
        else:
            assert buf.read() == kept
        assert buf.window == cap


def _sack_ranges_per_byte(buf, rcv_nxt, max_blocks):
    """The reference: walk the whole window one bitmap byte at a time.
    A buffer that has not yet received a byte holds no bitmap; it reads
    as all-absent."""
    present = buf._present or bytes(buf.capacity)
    nxt = (buf._read_pos + buf.available) % buf.capacity
    window = [present[(nxt + off) % buf.capacity]
              for off in range(buf.window)] + [0]
    blocks, run_start = [], None
    for off, present in enumerate(window):
        if present and run_start is None:
            run_start = off
        elif not present and run_start is not None:
            blocks.append((seq_add(rcv_nxt, run_start),
                           seq_add(rcv_nxt, off)))
            run_start = None
    return blocks[:max_blocks]


class TestSackProperties:
    @given(st.lists(
        st.tuples(st.integers(0, 1000), st.integers(1, 50)), max_size=12
    ))
    def test_ranges_stay_disjoint_and_sorted(self, raw):
        sb = SackScoreboard()
        for left, length in raw:
            sb.update([(left, left + length)], snd_una=0)
        ranges = sb.ranges
        for (l1, r1), (l2, r2) in zip(ranges, ranges[1:]):
            assert r1 < l2  # disjoint with a gap (adjacent ranges merge)
        for lo, hi in ranges:
            assert lo < hi

    @given(st.lists(
        st.tuples(st.integers(0, 1000), st.integers(1, 50)), max_size=12
    ), st.integers(0, 1100))
    def test_advance_removes_everything_below(self, raw, una):
        sb = SackScoreboard()
        for left, length in raw:
            sb.update([(left, left + length)], snd_una=0)
        sb.advance(una)
        for lo, hi in sb.ranges:
            assert hi > una and lo >= una


class TestCodecProperties:
    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
           seqs, seqs, st.integers(0, 0xFFFF), st.binary(max_size=64))
    def test_tcp_segment_roundtrip(self, sp, dp, seq, ack, wnd, data):
        seg = Segment(src_port=sp, dst_port=dp, seq=seq, ack=ack,
                      flags=0x10, window=wnd, data=data)
        parsed = Segment.decode(seg.encode())
        assert (parsed.src_port, parsed.dst_port) == (sp, dp)
        assert (parsed.seq, parsed.ack) == (seq, ack)
        assert parsed.window == wnd
        assert parsed.data == data

    @given(st.booleans(), st.booleans(),
           st.one_of(st.none(), st.integers(1, 0xFFFF)),
           st.lists(st.tuples(seqs, seqs), max_size=3))
    def test_options_roundtrip(self, sack_perm, with_ts, mss, blocks):
        opts = TcpOptions(
            mss=mss,
            sack_permitted=sack_perm,
            ts_val=123 if with_ts else None,
            ts_ecr=45 if with_ts else None,
            sack_blocks=blocks,
        )
        parsed = TcpOptions.decode(opts.encode())
        assert parsed.mss == mss
        assert parsed.sack_permitted == sack_perm
        assert parsed.sack_blocks == blocks
        assert (parsed.ts_val is not None) == with_ts

    @given(st.integers(0, 0xFFFE), st.integers(0, 0xFFFE),
           st.integers(0, 255), st.booleans(), st.binary(max_size=80))
    def test_mac_frame_roundtrip(self, src, dst, seq, pending, payload):
        frame = Frame(kind=FrameKind.DATA, src=src, dst=dst, seq=seq,
                      pending=pending, payload_bytes=len(payload))
        parsed = decode_frame(frame.encode(payload))
        assert (parsed.src, parsed.dst, parsed.seq) == (src, dst, seq)
        assert parsed.pending == pending
        assert parsed.payload == payload


def _option_length_offsets(blob: bytes, base: int = 0) -> list:
    """Offsets of the length byte of every option in ``blob``."""
    offsets, i = [], 0
    while i < len(blob):
        if blob[i] == KIND_NOP:
            i += 1
            continue
        offsets.append(base + i + 1)
        i += blob[i + 1]
    return offsets


def _read_pcap_bytes(raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.pcap")
        with open(path, "wb") as fh:
            fh.write(raw)
        return read_pcap(path)


def _decoder_surfaces() -> dict:
    """name -> (decoder, a valid encoding, offsets of its length bytes)."""
    opts = TcpOptions(mss=1232, sack_permitted=True, ts_val=7, ts_ecr=3,
                      sack_blocks=[(10, 20), (30, 40)])
    blob = opts.encode()
    seg = Segment(src_port=1, dst_port=2, seq=5, ack=6, flags=0x10,
                  window=100, options=opts, data=b"payload")
    wire = seg.encode()
    packet = Ipv6Packet(src=1, dst=2, next_header=PROTO_TCP, payload=seg,
                        payload_bytes=len(wire))
    frame = Frame(kind=FrameKind.DATA, src=1, dst=2, seq=9,
                  payload_bytes=len(wire))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "valid.pcap")
        with PcapWriter(path, SimpleNamespace(now=1.5)) as writer:
            writer.write(packet)
            writer.write(packet)
        with open(path, "rb") as fh:
            pcap = fh.read()
    second = 24 + 16 + 40 + len(wire)  # the second record's header
    return {
        "options": (TcpOptions.decode, blob, _option_length_offsets(blob)),
        "segment": (Segment.decode, wire,
                    [12] + _option_length_offsets(blob, base=20)),
        "frame": (decode_frame, frame.encode(wire), []),
        "ipv6": (decode_header, packet.encode_header(), [4, 5]),
        "pcap": (_read_pcap_bytes, pcap,
                 [24 + 8, 24 + 9, second + 8, second + 9]),
    }


_SURFACES = _decoder_surfaces()


class TestDecoderFuzz:
    @given(st.sampled_from(sorted(_SURFACES)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_truncated_or_relengthed_input_is_a_value_error(self, name, data):
        """Every byte decoder either parses a damaged encoding or raises
        ValueError: the encoding is cut short at any point and some of
        its length bytes rewritten."""
        decode, valid, length_offsets = _SURFACES[name]
        wire = bytearray(valid[:data.draw(st.integers(0, len(valid)))])
        for offset in length_offsets:
            if offset < len(wire) and data.draw(st.booleans()):
                wire[offset] = data.draw(st.integers(0, 255))
        try:
            decode(bytes(wire))
        except ValueError:
            pass


class TestFragmentationProperties:
    @given(st.integers(min_value=1, max_value=1280), st.integers(0, 2**30))
    def test_fragments_cover_exactly(self, size, _salt):
        frags = Fragmenter(node_id=1).fragment("pkt", size, final_dst=2)
        assert frags[0].offset == 0
        covered = 0
        for frag in frags:
            assert frag.offset == covered
            covered += frag.length
            assert frag.wire_bytes <= 104
        assert covered == size

    @given(st.integers(min_value=105, max_value=1280),
           st.randoms(use_true_random=False))
    def test_reassembly_in_any_order(self, size, rnd):
        sim = Simulator()
        frags = Fragmenter(node_id=1).fragment("pkt", size, final_dst=2)
        rnd.shuffle(frags)
        r = Reassembler(sim)
        outcomes = [r.add(f) for f in frags]
        assert outcomes.count("pkt") == 1


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), max_size=40))
    def test_events_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
