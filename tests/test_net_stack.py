"""End-to-end network layer tests: UDP over 6LoWPAN across hops, and
the one transport stack per protocol an endpoint has."""

import pytest

from repro.core.params import linux_like_params
from repro.core.simplified import tcplp_params
from repro.core.socket_api import TcpStack
from repro.experiments.topology import CLOUD_ID, build_chain, build_pair, build_testbed
from repro.gateway import attach_wired_host
from repro.net.ipv6 import PROTO_UDP, Ipv6Packet
from repro.net.node import NodeConfig
from repro.net.queues import RedParams
from repro.net.udp import UdpStack
from repro.sim import metrics


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


class TestOneStackPerEndpoint:
    """The network owns each endpoint's transport stacks, and a second
    handler for a protocol is refused on motes and hosts alike."""

    def test_tcp_stack_is_built_once_per_endpoint(self):
        net = build_chain(1, seed=6)
        for node_id in (0, 1, CLOUD_ID):
            assert net.tcp_stack(node_id) is net.tcp_stack(node_id)
        assert net.tcp_stack(0) is not net.tcp_stack(1)

    def test_other_default_params_raise(self):
        net = build_chain(1, seed=6)
        stack = net.tcp_stack(CLOUD_ID, linux_like_params())
        assert net.tcp_stack(CLOUD_ID, linux_like_params()) is stack
        assert net.tcp_stack(CLOUD_ID) is stack  # no profile asked for
        with pytest.raises(ValueError, match="default_params"):
            net.tcp_stack(CLOUD_ID, tcplp_params())
        net.tcp_stack(1)  # TcpStack's own default profile
        with pytest.raises(ValueError, match="node 1's"):
            net.tcp_stack(1, linux_like_params())

    def test_mote_stack_is_wired_to_its_node(self):
        net = build_testbed(seed=6)
        leaf = net.nodes[12]
        stack = net.tcp_stack(12)
        assert stack.network is leaf.ipv6
        assert stack.trace is leaf.trace
        assert stack.cpu is leaf.radio.cpu
        assert stack.sleepy is leaf.sleepy is not None

    def test_udp_stack_is_the_motes_own_and_one_per_host(self):
        net = build_chain(1, seed=6)
        assert net.udp_stack(1) is net.nodes[1].udp
        assert net.udp_stack(CLOUD_ID) is net.udp_stack(CLOUD_ID)
        assert net.udp_stack(CLOUD_ID).network is net.cloud

    @pytest.mark.parametrize("node_id", [1, CLOUD_ID])
    def test_second_tcp_stack_raises(self, node_id):
        net = build_chain(1, seed=6)
        net.tcp_stack(node_id)
        with pytest.raises(ValueError, match=f"node {node_id} .*protocol 6"):
            TcpStack(net.sim, net._endpoint(node_id), node_id)

    @pytest.mark.parametrize("node_id", [1, CLOUD_ID])
    def test_second_udp_stack_raises(self, node_id):
        net = build_chain(1, seed=6)
        net.udp_stack(node_id)
        with pytest.raises(ValueError,
                           match=f"node {node_id} .*protocol 17"):
            UdpStack(net._endpoint(node_id))

    def test_endpoint_resolves_motes_and_hosts(self):
        net = build_chain(1, seed=6)
        assert net._endpoint(1) is net.nodes[1].ipv6
        assert net._endpoint(CLOUD_ID) is net.cloud
        host = attach_wired_host(net, 1001)
        assert net._endpoint(1001) is host
        assert net.tcp_stack(1001).network is host
        with pytest.raises(ValueError, match="unknown node 77"):
            net._endpoint(77)
        bare = build_chain(1, seed=6, with_cloud=False)
        with pytest.raises(ValueError, match=f"unknown node {CLOUD_ID}"):
            bare.tcp_stack(CLOUD_ID)

    def test_host_without_a_handler_counts_the_packet(self):
        net = build_chain(1, seed=6)
        net.nodes[1].udp.send(CLOUD_ID, 6000, 5683, b"x", 1,
                              dst_is_cloud=True)
        net.sim.run(until=1.0)
        counters = net.cloud.trace.counters
        assert counters.get("cloud.no_handler") == 1
        assert counters.get("cloud.delivered") == 0


def _udp_packet(src, dst, hop_limit=64):
    return Ipv6Packet(src=src, dst=dst, next_header=PROTO_UDP, payload=None,
                      payload_bytes=10, hop_limit=hop_limit)


class TestDrops:
    """RFC 8200's discards: a router drops what it cannot forward, counts
    it, and carries on with the rest of its traffic."""

    def test_forwarded_packet_dies_when_its_hop_limit_reaches_zero(self):
        net = build_chain(2, seed=6, with_cloud=False)
        node = net.nodes[1]
        node.ipv6.deliver(_udp_packet(2, 0, hop_limit=1))
        counts = node.trace.counters
        assert counts.get("ipv6.hop_limit_exceeded") == 1
        assert counts.get("ipv6.forwards") == 0
        node.ipv6.deliver(_udp_packet(2, 0, hop_limit=2))
        assert counts.get("ipv6.hop_limit_exceeded") == 1
        assert counts.get("ipv6.forwards") == 1

    def test_packet_without_a_route_is_counted_and_dropped(self):
        net = build_chain(2, seed=6, with_cloud=False)
        node = net.nodes[1]
        node.ipv6.route_out(_udp_packet(1, 99))
        net.sim.run(until=1.0)
        assert node.trace.counters.get("ipv6.no_route") == 1
        assert node.trace.counters.get("ipv6.sent_mesh") == 0
        assert net.total_frames_sent() == 0

    def test_relay_without_a_route_drops_a_first_fragment(self):
        net = build_chain(2, seed=6, with_cloud=False)
        net.routing.set_route(2, 99, 1)  # node 1 knows no way on
        net.nodes[2].ipv6.route_out(_udp_packet(2, 99))
        net.sim.run(until=1.0)
        counts = net.nodes[1].trace.counters
        assert counts.get("lowpan.no_route") == 1
        assert counts.get("lowpan.fragments_forwarded") == 0

    @staticmethod
    def _red_chain(capacity=12):
        metrics.auto_attach(True, capture_trace=True, trace_capacity=None)
        try:
            return build_chain(2, seed=6, with_cloud=False,
                               node_config=NodeConfig(
                                   red=RedParams(capacity=capacity)))
        finally:
            metrics.auto_attach(False)

    def test_queued_packet_without_a_route_frees_the_queue(self):
        net = self._red_chain()
        node = net.nodes[1]
        # the first leaves at once; the unroutable one waits behind it,
        # and the third waits behind that
        for dst in (2, 99, 2):
            node.ipv6.deliver(_udp_packet(0, dst))
        assert len(node.ipv6.forward_queue) == 2
        net.sim.run(until=2.0)
        counts = node.trace.counters
        assert counts.get("ipv6.no_route") == 1
        assert len(node.ipv6.forward_queue) == 0
        assert counts.get("lowpan.datagrams_sent") == 2

    def test_queue_drop_is_traced(self):
        net = self._red_chain(capacity=1)
        node = net.nodes[1]
        for _ in range(3):
            node.ipv6.deliver(_udp_packet(0, 2))
        assert node.trace.counters.get("ipv6.queue_drops") == 1
        [drop] = [e for e in net.sim.trace_bus.events
                  if e.kind == "queue_drop"]
        assert (drop.layer, drop.node, drop.fields) == (
            "net", 1, {"src": 0, "dst": 2})

    def test_crash_empties_the_forward_queue(self):
        """A crash loses the node's RAM: a packet queued for forwarding
        is gone, not sent after the reboot."""
        net = self._red_chain()
        node = net.nodes[1]
        for _ in range(2):
            node.ipv6.deliver(_udp_packet(0, 2))
        assert len(node.ipv6.forward_queue) == 1
        node.crash()
        assert len(node.ipv6.forward_queue) == 0
