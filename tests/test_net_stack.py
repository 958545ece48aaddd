"""End-to-end network layer tests: UDP over 6LoWPAN across hops."""

from repro.experiments.topology import CLOUD_ID, build_chain, build_pair, build_testbed
from repro.net.udp import UdpStack


def test_udp_one_hop_pair():
    net = build_pair(seed=1)
    got = []
    net.nodes[1].udp.bind(7000, lambda d, p: got.append(d.payload))
    net.nodes[0].udp.send(1, 7001, 7000, b"ping", 4)
    net.sim.run(until=1.0)
    assert got == [b"ping"]


def test_udp_large_datagram_fragments_and_reassembles():
    net = build_pair(seed=2)
    got = []
    net.nodes[1].udp.bind(7000, lambda d, p: got.append(d.payload_bytes))
    net.nodes[0].udp.send(1, 7001, 7000, b"x" * 400, 400)
    net.sim.run(until=1.0)
    assert got == [400]
    frags = net.nodes[0].trace.counters.get("lowpan.fragments_sent")
    assert frags >= 5


def test_udp_multihop_chain_forwarding():
    net = build_chain(3, seed=3, with_cloud=False)
    got = []
    net.nodes[0].udp.bind(7000, lambda d, p: got.append(d.payload))
    net.nodes[3].udp.send(0, 7001, 7000, b"up" * 100, 200)
    net.sim.run(until=2.0)
    assert got == [b"up" * 100]
    # the relays forwarded fragments without reassembling
    assert net.nodes[1].trace.counters.get("lowpan.fragments_forwarded") >= 2
    assert net.nodes[1].trace.counters.get("lowpan.reassembled") == 0


def test_udp_to_cloud_and_back():
    net = build_chain(2, seed=4)
    got_cloud = []
    got_node = []
    cloud_udp = UdpStack(net.cloud)
    cloud_udp.bind(5683, lambda d, p: got_cloud.append((d.payload, p.src)))
    net.nodes[2].udp.bind(6000, lambda d, p: got_node.append(d.payload))
    net.nodes[2].udp.send(CLOUD_ID, 6000, 5683, b"reading", 7, dst_is_cloud=True)
    net.sim.run(until=2.0)
    assert got_cloud == [(b"reading", 2)]
    # reply path: cloud -> border -> mesh
    cloud_udp.send(2, 5683, 6000, b"ack!", 4)
    net.sim.run(until=4.0)
    assert got_node == [b"ack!"]


def test_wired_loss_injection_drops_packets():
    net = build_chain(1, seed=5, wired_loss=1.0 - 1e-12)
    got = []
    cloud_udp = UdpStack(net.cloud)
    cloud_udp.bind(5683, lambda d, p: got.append(d))
    net.nodes[1].udp.send(CLOUD_ID, 6000, 5683, b"x", 1, dst_is_cloud=True)
    net.sim.run(until=2.0)
    assert got == []
    assert net.wired.packets_dropped == 1


def test_hop_limit_prevents_loops():
    net = build_chain(2, seed=6, with_cloud=False)
    # create a two-node routing loop for an unknown destination
    net.routing.set_route(1, 99, 2)
    net.routing.set_route(2, 99, 1)
    from repro.net.ipv6 import Ipv6Packet, PROTO_UDP

    pkt = Ipv6Packet(src=1, dst=99, next_header=PROTO_UDP, payload=None,
                     payload_bytes=10, hop_limit=5)
    net.nodes[1].ipv6.route_out(pkt)
    net.sim.run(until=5.0)
    # fragment forwarding decrements the hop limit in the compressed
    # header, so the looping datagram dies after `hop_limit` crossings
    dropped = sum(
        net.nodes[n].trace.counters.get(counter)
        for n in (1, 2)
        for counter in ("ipv6.hop_limit_exceeded", "lowpan.hop_limit_exceeded")
    )
    assert dropped == 1


def test_testbed_builds_with_3_to_5_hop_leaf_routes():
    net = build_testbed(seed=7, sleepy_leaves=False)
    for leaf in net.leaf_ids:
        hops = net.routing.hops_between(leaf, net.border_id)
        assert 3 <= hops <= 5, f"leaf {leaf} at {hops} hops"


def test_testbed_sleepy_leaves_park_downstream_traffic():
    net = build_testbed(seed=8)
    leaf = net.leaf_ids[0]
    parent = net.routing.parent_of(leaf)
    got = []
    net.nodes[leaf].udp.bind(7000, lambda d, p: got.append(d.payload))
    # cloud sends to the sleepy leaf: the frame parks at the parent
    cloud_udp = UdpStack(net.cloud)
    cloud_udp.send(leaf, 5683, 7000, b"down", 4)
    net.sim.run(until=1.0)
    assert got == []
    assert len(net.nodes[parent].mac._indirect[leaf]) == 1
    # once the leaf polls (fast poll), the data arrives
    net.nodes[leaf].sleepy.set_fast_poll(True)
    net.sim.run(until=3.0)
    assert got == [b"down"]


def test_sleepy_leaf_radio_mostly_asleep():
    net = build_testbed(seed=9)
    leaf_node = net.nodes[net.leaf_ids[0]]
    net.sim.run(until=60.0)
    assert leaf_node.radio_duty_cycle() < 0.05


def test_udp_cloud_roundtrip_latency_reflects_wired_delay():
    net = build_chain(1, seed=10)
    times = []
    cloud_udp = UdpStack(net.cloud)

    def echo(d, p):
        cloud_udp.send(p.src, 5683, d.src_port, d.payload, d.payload_bytes)

    cloud_udp.bind(5683, echo)
    t0 = [None]
    got = []

    def on_reply(d, p):
        got.append(net.sim.now - t0[0])

    net.nodes[1].udp.bind(6000, on_reply)
    t0[0] = net.sim.now
    net.nodes[1].udp.send(CLOUD_ID, 6000, 5683, b"t", 1, dst_is_cloud=True)
    net.sim.run(until=2.0)
    assert len(got) == 1
    assert got[0] >= 0.012  # two wired crossings alone are 12 ms
