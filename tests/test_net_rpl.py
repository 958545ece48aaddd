"""RPL-lite: DODAG formation, downward routes, repair, TCP on top."""

from repro.core.simplified import tcplp_params
from repro.core.socket_api import TcpStack
from repro.experiments.topology import build_chain, build_pair
from repro.experiments.workload import BulkTransfer
from repro.net.rpl import (
    MIN_HOP_RANK_INCREASE,
    _RplDao,
    _RplDio,
    enable_rpl,
)


def rpl_chain(hops, seed=70, **kw):
    net = build_chain(hops, seed=seed, with_cloud=False)
    routing = enable_rpl(net, **kw)
    return net, routing


class TestDodagFormation:
    def test_ranks_follow_hop_distance(self):
        net, routing = rpl_chain(3)
        net.sim.run(until=30.0)
        ranks = {nid: routing._nodes[nid].rank for nid in net.nodes}
        assert ranks[0] == 0
        for nid in (1, 2, 3):
            assert ranks[nid] == nid * MIN_HOP_RANK_INCREASE

    def test_parents_point_toward_root(self):
        net, routing = rpl_chain(3)
        net.sim.run(until=30.0)
        for nid in (1, 2, 3):
            assert routing._nodes[nid].preferred_parent == nid - 1

    def test_convergence_and_downward_routes(self):
        net, routing = rpl_chain(3)
        net.sim.run(until=60.0)
        assert routing.converged()
        # root can route down to node 3 via node 1
        assert routing.next_hop(0, 3) == 1
        assert routing.next_hop(1, 3) == 2
        # everyone routes up via parents
        assert routing.next_hop(3, 0) == 2

    def test_unjoined_node_has_no_routes(self):
        net, routing = rpl_chain(1)
        # before any DIO propagates
        assert routing.next_hop(1, 0) is None


class TestDataOverRpl:
    def test_udp_end_to_end_over_rpl_routes(self):
        net, routing = rpl_chain(2)
        net.sim.run(until=40.0)
        assert routing.converged()
        got = []
        net.nodes[0].udp.bind(7000, lambda d, p: got.append(d.payload))
        net.nodes[2].udp.send(0, 7001, 7000, b"via rpl", 7)
        net.sim.run(until=45.0)
        assert got == [b"via rpl"]

    def test_tcp_bulk_over_rpl_matches_static_routing(self):
        net, routing = rpl_chain(2)
        for n in net.nodes.values():
            n.mac.params.retry_delay = 0.04
        net.sim.run(until=40.0)  # let the DODAG converge
        src = TcpStack(net.sim, net.nodes[2].ipv6, 2)
        dst = TcpStack(net.sim, net.nodes[0].ipv6, 0)
        xfer = BulkTransfer(net.sim, src, dst, receiver_id=0,
                            params=tcplp_params(),
                            receiver_params=tcplp_params())
        result = xfer.measure(10.0, 30.0)
        # §7.2-class two-hop goodput, now with live routing underneath
        assert result.goodput_kbps > 18


class TestRepair:
    def test_parent_loss_triggers_reselection(self):
        # diamond: root 0; relays 1 and 2 both hear 0 and 3
        net = build_pair(seed=71)  # placeholder net for sim/medium reuse
        from repro.net.node import Node
        from repro.experiments.topology import Network
        from repro.phy.medium import Medium
        from repro.sim.engine import Simulator
        from repro.sim.rng import RngStreams

        sim = Simulator()
        rng = RngStreams(72)
        medium = Medium(sim, rng=rng, comm_range=10.0)
        nodes = {}
        positions = {0: (0.0, 0.0), 1: (8.0, 3.0), 2: (8.0, -3.0),
                     3: (16.0, 0.0)}
        placeholder = type("R", (), {"next_hop": lambda self, a, b: None})()
        for nid, pos in positions.items():
            nodes[nid] = Node(sim, medium, rng, nid, pos, placeholder)
        net = Network(sim, rng, medium, nodes, placeholder, border_id=0)
        routing = enable_rpl(net, parent_lifetime=10.0)
        sim.run(until=30.0)
        leaf = routing._nodes[3]
        first_parent = leaf.preferred_parent
        assert first_parent in (1, 2)
        # kill the current parent's links entirely
        for other in positions:
            if other != first_parent:
                medium.block_link(first_parent, other)
        sim.run(until=90.0)
        assert leaf.preferred_parent in (1, 2)
        assert leaf.preferred_parent != first_parent
        assert routing._nodes[3]._joined


class TestControlMessages:
    def test_dio_sizes(self):
        assert _RplDio(0, 256).wire_bytes == 24
        assert _RplDao(3, 3).wire_bytes == 24

    def test_root_rank_is_zero_and_stable(self):
        net, routing = rpl_chain(1)
        net.sim.run(until=20.0)
        assert routing._nodes[0].rank == 0
        assert routing._nodes[0].is_root

    def test_trickle_quiets_dio_traffic_when_stable(self):
        net, routing = rpl_chain(1, dio_imax=8.0)
        net.sim.run(until=40.0)
        early = routing._nodes[0].trace.counters.get("rpl.dios_sent")
        net.sim.run(until=80.0)
        late = routing._nodes[0].trace.counters.get("rpl.dios_sent")
        # steady state: at most ~1 DIO per imax interval
        assert late - early <= 7
