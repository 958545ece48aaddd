"""Node assembly: roles, configuration, meters, gateway reassembly."""

import pytest

from repro.experiments.topology import CLOUD_ID, build_chain, build_pair
from repro.mac.poll import PollParams
from repro.net.node import Node, NodeConfig
from repro.net.queues import RedParams
from repro.net.routing import StaticRouting
from repro.phy.energy import RadioState
from repro.phy.medium import Medium
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


def make_node(config=None, node_id=1):
    sim = Simulator()
    medium = Medium(sim, rng=RngStreams(0))
    routing = StaticRouting()
    node = Node(sim, medium, RngStreams(0), node_id, (0, 0), routing,
                config=config)
    return sim, node


def test_default_node_has_full_stack():
    sim, node = make_node()
    assert node.radio is not None
    assert node.mac is not None
    assert node.adaptation is not None
    assert node.udp is not None
    assert node.sleepy is None
    assert node.ipv6.forward_queue is None


def test_red_config_creates_forward_queue_and_per_hop_reassembly():
    sim, node = make_node(NodeConfig(red=RedParams()))
    assert node.ipv6.forward_queue is not None
    assert node.adaptation.reassemble_per_hop


def test_phy_override_applies():
    from repro.models.platforms import phy_profile

    sim, node = make_node(NodeConfig(phy=phy_profile("telosb")))
    assert node.radio.params.spi_overhead_factor == 5.0


def test_deaf_csma_flag_reaches_radio():
    sim, node = make_node(NodeConfig(deaf_csma=True))
    assert node.radio.deaf_csma


def test_meters_reset():
    sim, node = make_node()
    sim.now = 10.0
    node.reset_meters()
    sim.now = 20.0
    assert sim.now - node.radio.energy._start_time == pytest.approx(10.0)
    assert 0.0 <= node.radio_duty_cycle() <= 1.0
    assert 0.0 <= node.cpu_duty_cycle() <= 1.0


def test_border_router_reassembles_datagrams_leaving_mesh():
    """Fragments for an off-mesh destination must be reassembled at the
    border router before crossing the wired link."""
    net = build_chain(2, seed=50)
    got = []
    from repro.net.udp import UdpStack

    cloud_udp = UdpStack(net.cloud)
    cloud_udp.bind(5683, lambda d, p: got.append(d.payload_bytes))
    net.nodes[2].udp.send(CLOUD_ID, 6000, 5683, b"r" * 500, 500,
                          dst_is_cloud=True)
    net.sim.run(until=3.0)
    assert got == [500]
    border = net.nodes[0]
    assert border.trace.counters.get("lowpan.reassembled") == 1
    # the relay in the middle forwarded fragments without reassembling
    assert net.nodes[1].trace.counters.get("lowpan.reassembled") == 0


def test_make_sleepy_marks_parent():
    net = build_pair(seed=51)
    net.nodes[1].make_sleepy(net.nodes[0])
    assert 1 in net.nodes[0].mac._indirect
    assert net.nodes[1].sleepy is not None


def test_per_node_configs_are_independent():
    config = NodeConfig()
    net = build_chain(2, seed=52, node_config=config)
    net.nodes[1].mac.params.retry_delay = 0.5
    assert net.nodes[2].mac.params.retry_delay != 0.5
    assert config.mac.retry_delay != 0.5  # caller's template untouched


def test_sleepy_reboot_sends_what_was_queued_while_down():
    """A reboot releases the MAC like any other: a frame queued while a
    sleepy node was down leaves at once, not at its next poll, and the
    radio sleeps again instead of listening until then."""
    net = build_pair(seed=0)
    sim, leaf = net.sim, net.nodes[1]
    leaf.make_sleepy(net.nodes[0], PollParams(poll_interval=240.0))
    got = []
    net.nodes[0].mac.on_receive = lambda p, s, f: got.append(sim.now)
    sim.schedule_at(1.0, leaf.crash)
    sim.schedule_at(2.0, leaf.mac.send, b"up", 20, 0)
    sim.schedule_at(3.0, leaf.reboot)
    sim.run(until=4.0)
    assert len(got) == 1 and 3.0 < got[0] < 3.01
    assert leaf.mac.idle and leaf.radio.energy.state is RadioState.SLEEP
