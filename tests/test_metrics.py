"""Observability layer: metrics registry, trace bus, CI gate plumbing.

Covers the contracts ``docs/observability.md`` promises: registry
semantics (canonical label handling, instrument identity, type safety),
histogram bucketing, snapshot determinism across identical seeded runs,
trace export round-trips, the auto-attach lifecycle, and the shape of
the checked-in metrics golden.
"""

import json
import re
from pathlib import Path

import pytest

from repro.experiments.topology import build_pair
from repro.experiments.workload import BulkTransfer
from repro.core.simplified import tcplp_params
from repro.core.socket_api import TcpStack
from repro.phy.medium import UniformLoss
from repro.sim import metrics as metrics_mod
from repro.sim.engine import Simulator
from repro.sim.metrics import (
    COUNTER_FAMILIES,
    DEFAULT_TIME_BUCKETS,
    _HistogramMetric,
    MetricsRegistry,
    diff_snapshots,
    _metric_key,
)
from repro.sim.trace import TraceBus, read_jsonl, write_jsonl

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _auto_attach_off():
    """Never leak auto-attach state between tests."""
    yield
    metrics_mod.auto_attach(False)


class TestRegistrySemantics:
    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.counter("tcp.retransmits", node=3, kind="rto")
        b = reg.counter("tcp.retransmits", kind="rto", node=3)
        assert a is b
        a.inc()
        snap = reg.snapshot()
        assert snap["counters"]["tcp.retransmits{kind=rto,node=3}"] == 1

    def test_distinct_labels_distinct_instruments(self):
        reg = MetricsRegistry()
        rto = reg.counter("tcp.retransmits", node=1, kind="rto")
        sack = reg.counter("tcp.retransmits", node=1, kind="sack")
        assert rto is not sack
        rto.inc(2)
        sack.inc(5)
        snap = reg.snapshot()["counters"]
        assert snap["tcp.retransmits{kind=rto,node=1}"] == 2
        assert snap["tcp.retransmits{kind=sack,node=1}"] == 5

    def test_metric_key_without_labels(self):
        assert _metric_key("sim.events", ()) == "sim.events"

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x", node=1)
        with pytest.raises(TypeError):
            reg.gauge("x", node=1)
        with pytest.raises(TypeError):
            reg.histogram("x", node=1)

    def test_gauge_holds_last_value(self):
        reg = MetricsRegistry()
        g = reg.gauge("tcp.cwnd", node=0)
        g.set(2940)
        g.set(1470)
        assert reg.snapshot()["gauges"]["tcp.cwnd{node=0}"] == 1470

    def test_collectors_run_at_snapshot_time(self):
        reg = MetricsRegistry()
        calls = []

        def collect(registry):
            calls.append(1)
            registry.gauge("pulled.value").set(42)

        reg.register_collector(collect)
        assert calls == []
        snap = reg.snapshot()
        assert calls == [1]
        assert snap["gauges"]["pulled.value"] == 42


class TestHistogram:
    def test_bucketing_and_overflow(self):
        h = _HistogramMetric(bounds=(0.01, 0.1, 1.0))
        for v in (0.005, 0.01, 0.05, 0.5, 5.0):
            h.observe(v)
        out = h._export()
        # upper edges are inclusive (bisect_right)
        assert out["buckets"] == {"0.01": 2, "0.1": 1, "1.0": 1, "+inf": 1}
        assert out["count"] == 5
        assert out["sum"] == pytest.approx(5.565)

    def test_default_buckets_span_mac_to_rto_scales(self):
        assert DEFAULT_TIME_BUCKETS[0] <= 0.001
        assert DEFAULT_TIME_BUCKETS[-1] >= 60.0

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            _HistogramMetric(bounds=())

    def test_buckets_apply_on_first_creation_only(self):
        reg = MetricsRegistry()
        first = reg.histogram("h", buckets=(1.0, 2.0))
        again = reg.histogram("h", buckets=(5.0,))
        assert again is first
        assert first.bounds == (1.0, 2.0)


class TestDiffSnapshots:
    def test_equal_snapshots_no_diff(self):
        snap = {"counters": {"a": 1}, "gauges": {}, "histograms": {}}
        assert diff_snapshots(snap, snap) == []

    def test_changed_appeared_disappeared(self):
        golden = {"counters": {"a": 1, "b": 2}, "gauges": {}}
        current = {"counters": {"a": 3, "c": 4}, "gauges": {}}
        diffs = diff_snapshots(golden, current)
        assert any("a changed" in d for d in diffs)
        assert any("b disappeared" in d for d in diffs)
        assert any("c appeared" in d for d in diffs)


class TestDisabledByDefault:
    def test_simulator_has_no_registry(self):
        sim = Simulator()
        assert sim.metrics is None
        assert sim.trace_bus is None

    def test_layers_tolerate_missing_registry(self):
        # a full scenario with observability off must not touch metrics
        net = build_pair(seed=1)
        assert net.sim.metrics is None


class TestAutoAttach:
    def test_each_simulator_gets_private_registry(self):
        metrics_mod.auto_attach(True)
        sim_a, sim_b = Simulator(), Simulator()
        assert sim_a.metrics is not None
        assert sim_a.metrics is not sim_b.metrics
        attached = metrics_mod.drain_attached()
        assert [reg for reg, _ in attached] == [sim_a.metrics, sim_b.metrics]

    def test_drain_clears(self):
        metrics_mod.auto_attach(True)
        Simulator()
        assert len(metrics_mod.drain_attached()) == 1
        assert metrics_mod.drain_attached() == []

    def test_disable_stops_attaching(self):
        metrics_mod.auto_attach(True)
        metrics_mod.auto_attach(False)
        assert Simulator().metrics is None

    def test_capture_trace_creates_bus(self):
        metrics_mod.auto_attach(True, capture_trace=True, trace_capacity=7)
        sim = Simulator()
        assert sim.trace_bus is not None
        assert sim.trace_bus.capacity == 7


class TestTraceBus:
    def _bus(self, capacity=None):
        sim = Simulator()
        return sim, TraceBus(sim, capacity=capacity)

    def test_events_stamped_with_sim_time(self):
        sim, bus = self._bus()
        sim.schedule(
            1.5, lambda: bus.emit("mac", 2, "link_retry", attempt=1))
        sim.run(until=2.0)
        (ev,) = bus.events
        assert (ev.time, ev.layer, ev.node, ev.kind) == (
            1.5, "mac", 2, "link_retry")
        assert ev.fields == {"attempt": 1}

    def test_ring_buffer_keeps_most_recent(self):
        _, bus = self._bus(capacity=3)
        for i in range(10):
            bus.emit("phy", 0, "tx", n=i)
        assert bus.emitted == 10
        assert [ev.fields["n"] for ev in bus.events] == [7, 8, 9]

    def test_jsonl_round_trip(self, tmp_path):
        _, bus = self._bus()
        bus.emit("tcp", 4, "retransmit", seq=1000, kind="sack", bytes=98)
        bus.emit("net", 2, "queue_drop", src=1, dst=0)
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(bus.events, path) == 2
        assert read_jsonl(path) == bus.events


def _run_instrumented_transfer(duration=8.0):
    """One small seeded end-to-end run with observability attached."""
    metrics_mod.auto_attach(True, capture_trace=True, trace_capacity=None)
    try:
        net = build_pair(seed=7)
        params = tcplp_params()
        node0, node1 = net.nodes[0], net.nodes[1]
        src = TcpStack(net.sim, node1.ipv6, 1, cpu=node1.radio.cpu)
        dst = TcpStack(net.sim, node0.ipv6, 0, cpu=node0.radio.cpu)
        xfer = BulkTransfer(net.sim, src, dst, receiver_id=0, params=params,
                            receiver_params=params)
        xfer.measure(2.0, duration)
        attached = metrics_mod.drain_attached()
    finally:
        metrics_mod.auto_attach(False)
    assert len(attached) == 1
    return attached[0]


class TestEndToEnd:
    def test_hot_layers_populate_metrics(self):
        registry, bus = _run_instrumented_transfer()
        snap = registry.snapshot()
        families = {key.split("{")[0] for section in snap.values()
                    for key in section}
        for expected in ("phy.tx", "phy.deliveries", "mac.frames_tx",
                         "lowpan.datagrams_sent", "net.delivered",
                         "tcp.segs_sent", "tcp.cwnd", "tcp.rtt_seconds",
                         "phy.radio_duty_cycle"):
            assert expected in families, expected
        assert bus.emitted > 0

    def test_snapshot_determinism_two_seeded_runs(self):
        reg_a, bus_a = _run_instrumented_transfer()
        reg_b, bus_b = _run_instrumented_transfer()
        blob_a = json.dumps(reg_a.snapshot(), sort_keys=True)
        blob_b = json.dumps(reg_b.snapshot(), sort_keys=True)
        assert blob_a == blob_b  # byte-identical
        assert bus_a.events == bus_b.events

    def test_trace_golden_round_trip(self, tmp_path):
        _, bus = _run_instrumented_transfer()
        golden = tmp_path / "golden.jsonl"
        write_jsonl(bus.events, golden)
        assert read_jsonl(golden) == bus.events


def _family(key):
    return key.split("{", 1)[0]


#: every family the name table reads from a Counter
TABLE_FAMILIES = {_family(f) for t in COUNTER_FAMILIES.values() for f in t}


def _transfer_snapshot(late):
    """A short seeded transfer, its registry attached while the network
    is built or, ``late``, after it (as the gateway attaches one)."""
    metrics_mod.auto_attach(not late)
    try:
        net = build_pair(seed=7)
    finally:
        metrics_mod.auto_attach(False)
    if late:
        net.attach_metrics(MetricsRegistry())
    params = tcplp_params()
    src = TcpStack(net.sim, net.nodes[1].ipv6, 1)
    dst = TcpStack(net.sim, net.nodes[0].ipv6, 0)
    BulkTransfer(net.sim, src, dst, receiver_id=0, params=params,
                 receiver_params=params).measure(1.0, 3.0)
    return net.sim.metrics.snapshot()


class TestCountedFamilies:
    def test_late_attach_reads_the_same_counters(self):
        early, late = _transfer_snapshot(False), _transfer_snapshot(True)
        for section, keep in (("counters", lambda k: _family(k) in
                               TABLE_FAMILIES),
                              ("gauges", lambda k: k.startswith("phy."))):
            want = {k: v for k, v in early[section].items() if keep(k)}
            got = {k: v for k, v in late[section].items() if keep(k)}
            assert got == want, section
        assert early["counters"]["mac.frames_tx{node=0}"] > 0
        assert {_family(k) for k in early["counters"]} >= TABLE_FAMILIES - {
            "mac.polls_sent", "mac.poll_timeouts"}

    def test_gateway_on_a_bare_network_exports_node_counters(self):
        from repro.gateway.server import Gateway

        net = build_pair(seed=1)
        Gateway(net, [])
        counters = net.sim.metrics.snapshot()["counters"]
        assert "mac.frames_tx{node=1}" in counters
        assert "net.delivered{node=0}" in counters

    def test_name_table_golden_and_docs_agree(self):
        golden = json.loads(
            (REPO_ROOT / "benchmarks" / "perf"
             / "metrics_golden.json").read_text())
        snaps = [snap for snaps in golden.values() for snap in snaps]
        counted = {_family(k) for snap in snaps for k in snap["counters"]
                   if "node=" in k}
        every = {_family(k) for snap in snaps for section in snap.values()
                 for k in section}
        assert TABLE_FAMILIES <= counted
        assert {f for f in counted - TABLE_FAMILIES
                if not f.startswith("phy.")} == set()
        doc = (REPO_ROOT / "docs" / "observability.md").read_text()
        listed = doc.split("### Metric families by layer", 1)[1]
        listed = listed.split("\n## ", 1)[0]
        named = {_family(m) for m in re.findall(r"`([a-z]+\.[a-z_.]+)", listed)}
        assert TABLE_FAMILIES <= named
        assert {f for f in named - every if not f.startswith("rt.")} == set()


class TestBenchClassification:
    def test_checked_in_golden_is_valid_json(self):
        golden = json.loads(
            (REPO_ROOT / "benchmarks" / "perf"
             / "metrics_golden.json").read_text())
        assert set(golden) == {"one_hop_bulk", "three_hop_hidden",
                               "duty_cycled_polling", "loss_sweep",
                               "chaos_faults", "dense_mesh",
                               "campaign_grid"}
        for snaps in golden.values():
            for snap in snaps:
                assert set(snap) == {"counters", "gauges", "histograms"}


class TestRunnerMetricsOut:
    def test_metrics_out_writes_snapshots(self, tmp_path):
        from repro.campaign import run_campaign

        report = run_campaign(
            {"experiments": ["single_hop_cell"], "grid": {"duration": [2.0]},
             "runner": {"metrics": True}}, progress=lambda *_: None)
        path = tmp_path / "runs.jsonl"
        report.write_jsonl(path)
        run, cell = [json.loads(line) for line in path.read_text().splitlines()]
        # one snapshot per simulator the run built, on its run line only
        [snap] = run["metrics_snapshots"]
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]
        assert "metrics_snapshots" not in cell
        # and the canonical report must not carry the snapshots
        assert "metrics_snapshots" not in report.to_json()


def test_lossy_transfer_traces_every_layers_repairs():
    """Each layer's repair and loss events reach the bus: a frame lost
    on the air, a link-layer give-up, a reassembly timeout, and TCP's
    retransmissions by RTO and by duplicate ACKs."""
    metrics_mod.auto_attach(True, capture_trace=True, trace_capacity=None)
    net = build_pair(seed=3)
    metrics_mod.auto_attach(False)
    net.medium.loss_models.append(UniformLoss(0.6, net.rng))
    params = tcplp_params()
    BulkTransfer(net.sim, net.tcp_stack(1), net.tcp_stack(0),
                 receiver_id=0, params=params, receiver_params=params)
    net.sim.run(until=60.0)
    kinds = {(ev.layer, ev.kind) for ev in net.sim.trace_bus.events}
    assert {("phy", "loss"), ("mac", "tx_failure"),
            ("lowpan", "reassembly_timeout"), ("tcp", "retransmit"),
            ("tcp", "rto"), ("tcp", "fast_retransmit")} <= kinds
