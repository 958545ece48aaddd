"""Workload helpers: goodput meter and bulk-transfer driver."""

import pytest

from repro.core.simplified import tcplp_params
from repro.core.socket_api import TcpStack
from repro.experiments.topology import build_chain, build_pair
from repro.experiments.workload import (
    BulkTransfer,
    FlowSet,
    FlowSpec,
    GoodputMeter,
    SensorStream,
    jain_fairness,
)
from repro.sim.engine import Simulator


class TestGoodputMeter:
    def test_counts_only_after_start(self):
        sim = Simulator()
        meter = GoodputMeter(sim)
        meter.on_data(b"ignored")
        meter.start()
        sim.now = 10.0
        meter.on_data(b"x" * 125)  # 1000 bits over 10 s
        assert meter.goodput_bps() == pytest.approx(100.0)

    def test_first_byte_timestamp(self):
        sim = Simulator()
        meter = GoodputMeter(sim)
        meter.start()
        sim.now = 3.0
        meter.on_data(b"a")
        sim.now = 5.0
        meter.on_data(b"b")
        assert meter.first_byte_at == 3.0

    def test_zero_before_start(self):
        sim = Simulator()
        meter = GoodputMeter(sim)
        assert meter.goodput_bps() == 0.0

    def test_restart_resets(self):
        sim = Simulator()
        meter = GoodputMeter(sim)
        meter.start()
        sim.now = 1.0
        meter.on_data(b"xyz")
        meter.start()
        assert meter.bytes == 0
        assert meter.elapsed() == 0.0


class TestBulkTransfer:
    def test_measure_reports_consistent_counters(self):
        net = build_pair(seed=20)
        sa = TcpStack(net.sim, net.nodes[0].ipv6, 0)
        sb = TcpStack(net.sim, net.nodes[1].ipv6, 1)
        xfer = BulkTransfer(net.sim, sa, sb, receiver_id=1,
                            params=tcplp_params(),
                            receiver_params=tcplp_params())
        result = xfer.measure(warmup=5.0, duration=20.0)
        assert xfer.connected
        assert result.bytes_delivered > 0
        assert result.goodput_kbps == pytest.approx(
            result.bytes_delivered * 8 / 1000 / result.duration
        )
        assert result.segs_sent > 0
        assert 0.0 <= result.segment_loss <= 1.0
        assert result.rtt_samples, "RTT samples should be collected"

    def test_sender_stays_saturated(self):
        net = build_pair(seed=21)
        sa = TcpStack(net.sim, net.nodes[0].ipv6, 0)
        sb = TcpStack(net.sim, net.nodes[1].ipv6, 1)
        xfer = BulkTransfer(net.sim, sa, sb, receiver_id=1,
                            params=tcplp_params(),
                            receiver_params=tcplp_params())
        net.sim.run(until=10.0)
        conn = xfer.connection
        # window-limited: the send buffer is always full while open
        assert conn.send_buf.free == 0

    def test_two_transfers_need_distinct_ports(self):
        net = build_pair(seed=22)
        sa = TcpStack(net.sim, net.nodes[0].ipv6, 0)
        sb = TcpStack(net.sim, net.nodes[1].ipv6, 1)
        BulkTransfer(net.sim, sa, sb, receiver_id=1, port=9000,
                     params=tcplp_params(), receiver_params=tcplp_params())
        BulkTransfer(net.sim, sa, sb, receiver_id=1, port=9001,
                     params=tcplp_params(), receiver_params=tcplp_params())
        net.sim.run(until=5.0)  # both coexist without port clashes


class TestJainFairness:
    def test_equal_allocation_is_one(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog_is_one_over_n(self):
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_all_zero_are_fair(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0.0, 0.0]) == 1.0


class TestSensorStream:
    def test_paced_reports_arrive(self):
        net = build_chain(2, seed=5)
        sa = TcpStack(net.sim, net.nodes[2].ipv6, 2)
        sb = TcpStack(net.sim, net.nodes[0].ipv6, 0)
        stream = SensorStream(net.sim, sa, sb, receiver_id=0,
                              report_bytes=80, interval=1.0,
                              params=tcplp_params(),
                              receiver_params=tcplp_params())
        stream.meter.start()
        net.sim.run(until=12.0)
        assert stream.connected
        assert stream.reports_sent >= 8
        # paced, not saturating: delivered roughly reports * size
        assert stream.meter.bytes <= stream.reports_sent * 80
        assert stream.meter.bytes >= (stream.reports_sent - 3) * 80


class TestFlowSet:
    def test_bulk_flows_measure_and_aggregate(self):
        net = build_chain(3, seed=6)
        specs = [FlowSpec(src=3, dst=0), FlowSpec(src=2, dst=0)]
        flows = FlowSet(net, specs, params=tcplp_params())
        res = flows.measure(warmup=5.0, duration=15.0)
        assert res.flows_connected == 2
        assert res.bytes_delivered > 0
        assert res.aggregate_goodput_bps == pytest.approx(
            sum(f.goodput_bps for f in res.flows))
        assert 0.0 < res.fairness <= 1.0
        assert res.aggregate_goodput_bps == pytest.approx(
            res.bytes_delivered * 8.0 / res.duration)

    def test_ports_default_to_base_plus_index(self):
        net = build_chain(2, seed=7)
        flows = FlowSet(net, [FlowSpec(src=2, dst=0),
                              FlowSpec(src=1, dst=0),
                              FlowSpec(src=2, dst=0, port=7777)],
                        base_port=9100)
        assert flows.ports == [9100, 9101, 7777]

    def test_staggered_launch_waits_for_start(self):
        net = build_chain(2, seed=8)
        flows = FlowSet(net, [FlowSpec(src=2, dst=0, start=4.0)],
                        params=tcplp_params())
        net.sim.run(until=2.0)
        assert flows.drivers[0] is None  # not launched yet
        net.sim.run(until=8.0)
        assert flows.drivers[0] is not None
        assert flows.drivers[0].connected

    def test_flow_never_launched_reports_zero(self):
        net = build_chain(2, seed=9)
        flows = FlowSet(net, [FlowSpec(src=2, dst=0, start=100.0)],
                        params=tcplp_params())
        res = flows.measure(warmup=1.0, duration=5.0)
        assert res.flows[0].connected is False
        assert res.flows[0].goodput_bps == 0.0
        assert res.fairness == 1.0  # all-zero allocation

    def test_mixed_kinds_share_a_node_stack(self):
        net = build_chain(2, seed=10)
        specs = [FlowSpec(src=2, dst=0, kind="bulk"),
                 FlowSpec(src=2, dst=0, kind="sensor", interval=0.5)]
        flows = FlowSet(net, specs, params=tcplp_params())
        res = flows.measure(warmup=4.0, duration=10.0)
        # one stack per node, not per flow: both flows live in each
        assert net.tcp_stack(2).active_connections() == 2
        assert net.tcp_stack(0).active_connections() == 2
        assert res.flows_connected == 2
        assert res.flows[1].kind == "sensor"

    def test_invalid_specs_rejected(self):
        net = build_chain(2, seed=11)
        with pytest.raises(ValueError, match="src == dst"):
            FlowSet(net, [FlowSpec(src=1, dst=1)])
        with pytest.raises(ValueError, match="unknown node"):
            FlowSet(net, [FlowSpec(src=1, dst=55)])
        with pytest.raises(ValueError, match="unknown kind"):
            FlowSet(net, [FlowSpec(src=1, dst=0, kind="torrent")])
