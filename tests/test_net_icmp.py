"""ICMPv6 echo across the simulated mesh."""

import pytest

from repro.experiments.topology import CLOUD_ID, build_chain, build_pair
from repro.net.icmpv6 import (
    IcmpEcho,
    IcmpStack,
    TYPE_ECHO_REQUEST,
)


def test_codec_round_trip():
    echo = IcmpEcho(TYPE_ECHO_REQUEST, identifier=7, sequence=3,
                    payload_bytes=16)
    parsed = IcmpEcho.decode(echo.encode())
    assert parsed.icmp_type == TYPE_ECHO_REQUEST
    assert (parsed.identifier, parsed.sequence) == (7, 3)
    assert parsed.payload_bytes == 16
    assert len(echo.encode()) == echo._wire_bytes


def test_codec_rejects_garbage():
    with pytest.raises(ValueError):
        IcmpEcho.decode(b"\x00")
    with pytest.raises(ValueError):
        IcmpEcho.decode(bytes([3, 0, 0, 0, 0, 0, 0, 0]))


def test_ping_one_hop():
    net = build_pair(seed=40)
    a = IcmpStack(net.sim, net.nodes[0].ipv6)
    IcmpStack(net.sim, net.nodes[1].ipv6)
    rtts = []
    a.ping(1, rtts.append)
    net.sim.run(until=2.0)
    assert len(rtts) == 1
    assert rtts[0] is not None
    assert 0.001 < rtts[0] < 0.2


def test_reply_after_timeout_is_a_stray():
    """A reply that outlives its ping's timeout finds no request
    pending: it is counted, and the caller hears only the timeout."""
    net = build_pair(seed=40)
    a = IcmpStack(net.sim, net.nodes[0].ipv6)
    IcmpStack(net.sim, net.nodes[1].ipv6)
    rtts = []
    a.ping(1, rtts.append, timeout=0.001)
    net.sim.run(until=2.0)
    assert rtts == [None]
    counts = a.trace.counters
    assert counts.get("icmp.echo_timeouts") == 1
    assert counts.get("icmp.stray_replies") == 1


def test_ping_rtt_grows_with_hops():
    def ping_over(hops):
        net = build_chain(hops, seed=41, with_cloud=False)
        src = IcmpStack(net.sim, net.nodes[hops].ipv6)
        IcmpStack(net.sim, net.nodes[0].ipv6)
        rtts = []
        src.ping(0, rtts.append)
        net.sim.run(until=5.0)
        assert rtts and rtts[0] is not None
        return rtts[0]

    assert ping_over(3) > 2 * ping_over(1)


def test_ping_cloud_through_border_router():
    net = build_chain(2, seed=42)
    mote = IcmpStack(net.sim, net.nodes[2].ipv6)
    IcmpStack(net.sim, net.cloud)
    rtts = []
    mote.ping(CLOUD_ID, rtts.append, dst_is_cloud=True)
    net.sim.run(until=5.0)
    assert rtts and rtts[0] is not None
    assert rtts[0] > 0.012  # at least the wired RTT


def test_ping_timeout_on_dead_target():
    net = build_pair(seed=43)
    a = IcmpStack(net.sim, net.nodes[0].ipv6)
    IcmpStack(net.sim, net.nodes[1].ipv6)
    net.medium.block_link(0, 1)
    rtts = []
    a.ping(1, rtts.append, timeout=2.0)
    net.sim.run(until=5.0)
    assert rtts == [None]
    assert a.trace.counters.get("icmp.echo_timeouts") == 1


def test_concurrent_pings_matched_by_identifier():
    net = build_pair(seed=44)
    a = IcmpStack(net.sim, net.nodes[0].ipv6)
    IcmpStack(net.sim, net.nodes[1].ipv6)
    results = {}
    a.ping(1, lambda rtt: results.setdefault("first", rtt))
    a.ping(1, lambda rtt: results.setdefault("second", rtt),
           payload_bytes=64)
    net.sim.run(until=3.0)
    assert set(results) == {"first", "second"}
    assert all(v is not None for v in results.values())
