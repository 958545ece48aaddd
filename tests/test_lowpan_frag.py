"""Fragmentation and reassembly behaviour."""

import pytest

from repro.lowpan.frag import (
    FRAG1_HEADER_BYTES,
    FRAGN_HEADER_BYTES,
    Fragmenter,
    Reassembler,
)
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus


def test_small_datagram_is_unfragmented():
    f = Fragmenter(node_id=1)
    frags = f.fragment("pkt", 104, final_dst=9)
    assert len(frags) == 1
    assert not frags[0].fragmented
    assert frags[0].wire_bytes == 104
    assert frags[0].packet == "pkt"


def test_large_datagram_fragments_with_8_byte_alignment():
    f = Fragmenter(node_id=1)
    frags = f.fragment("pkt", 400, final_dst=9)
    assert len(frags) == 5  # a 96-B first payload, then 96-B ones
    assert frags[0].is_first and frags[0].packet == "pkt"
    assert all(not g.is_first and g.packet is None for g in frags[1:])
    # all non-final fragments 8-byte aligned
    for g in frags[:-1]:
        assert g.length % 8 == 0
    # offsets contiguous and total length correct
    offset = 0
    for g in frags:
        assert g.offset == offset
        offset += g.length
    assert offset == 400


def test_fragment_wire_bytes_include_headers():
    f = Fragmenter(node_id=1)
    frags = f.fragment("pkt", 400, final_dst=9)
    assert frags[0].wire_bytes == FRAG1_HEADER_BYTES + frags[0].length
    assert frags[1].wire_bytes == FRAGN_HEADER_BYTES + frags[1].length
    # every fragment fits a MAC payload
    assert all(g.wire_bytes <= 104 for g in frags)


def test_five_frame_segment_sizing():
    # The paper's MSS=5-frames configuration: a datagram of ~480 B
    # should need exactly 5 frames.
    f = Fragmenter(node_id=1)
    per_first, per_next = f._max_first_payload(), f._max_next_payload()
    size = per_first + 3 * per_next + 10
    assert len(f.fragment("pkt", size, final_dst=9)) == 5


def test_tags_increment_per_datagram():
    f = Fragmenter(node_id=1)
    a = f.fragment("a", 300, final_dst=9)
    b = f.fragment("b", 300, final_dst=9)
    assert a[0].tag != b[0].tag


def test_reassembly_in_order():
    sim = Simulator()
    r = Reassembler(sim)
    f = Fragmenter(node_id=1)
    frags = f.fragment("pkt", 500, final_dst=9)
    results = [r.add(g) for g in frags]
    assert results[:-1] == [None] * (len(frags) - 1)
    assert results[-1] == "pkt"
    assert len(r._partials) == 0


def test_reassembly_out_of_order():
    sim = Simulator()
    r = Reassembler(sim)
    f = Fragmenter(node_id=1)
    frags = f.fragment("pkt", 500, final_dst=9)
    reordered = frags[::-1]
    results = [r.add(g) for g in reordered]
    assert results[-1] == "pkt"


def test_duplicate_fragment_ignored():
    sim = Simulator()
    r = Reassembler(sim)
    f = Fragmenter(node_id=1)
    frags = f.fragment("pkt", 300, final_dst=9)
    assert r.add(frags[0]) is None
    assert r.add(frags[0]) is None  # duplicate
    assert r.trace.counters.get("lowpan.duplicate_fragments") == 1


def test_reassembly_timeout_discards_partial():
    sim = Simulator()
    sim.trace_bus = TraceBus(sim)
    r = Reassembler(sim, timeout=2.0, node_id=9)
    f = Fragmenter(node_id=1)
    frags = f.fragment("pkt", 500, final_dst=9)
    r.add(frags[0])
    assert len(r._partials) == 1
    sim.run(until=3.0)
    assert len(r._partials) == 0
    assert r.trace.counters.get("lowpan.reassembly_timeouts") == 1
    [event] = sim.trace_bus.events
    assert (event.time, event.layer, event.node, event.kind) == (
        2.0, "lowpan", 9, "reassembly_timeout")
    assert event.fields == {"origin": 1, "tag": frags[0].tag}
    # late fragment starts a new (incomplete) buffer rather than crashing
    assert r.add(frags[1]) is None


def test_clear_mid_reassembly_stops_the_timer():
    sim = Simulator()
    r = Reassembler(sim, timeout=2.0)
    frags = Fragmenter(node_id=1).fragment("pkt", 500, final_dst=9)
    r.add(frags[0])
    r.clear()  # a crash mid-reassembly
    assert len(r._partials) == 0
    assert not sim._armed_timers
    sim.run(until=3.0)
    assert r.trace.counters.get("lowpan.reassembly_timeouts") == 0


def test_reassembly_buffer_bound():
    sim = Simulator()
    r = Reassembler(sim, max_buffers=2)
    f = Fragmenter(node_id=1)
    for i in range(3):
        frags = f.fragment(f"p{i}", 300, final_dst=9)
        r.add(frags[0])
    assert len(r._partials) == 2
    assert r.trace.counters.get("lowpan.reassembly_overflow") == 1


def test_interleaved_datagrams_reassemble_independently():
    sim = Simulator()
    r = Reassembler(sim)
    fa = Fragmenter(node_id=1)
    fb = Fragmenter(node_id=2)
    a = fa.fragment("a", 300, final_dst=9)
    b = fb.fragment("b", 300, final_dst=9)
    out = []
    for ga, gb in zip(a, b):
        out.append(r.add(ga))
        out.append(r.add(gb))
    assert "a" in out and "b" in out


def test_fragment_rejects_empty():
    f = Fragmenter(node_id=1)
    with pytest.raises(ValueError):
        f.fragment("pkt", 0, final_dst=9)
