"""Mutation tests for the live invariant engine (repro.verify).

Each test corrupts one piece of live state and asserts the matching
probe fires on an immediate ``_check_now()`` — immediate because TCP
self-heals some corruptions (e.g. a smashed ``snd_nxt``) before the
next periodic sweep would see them.  A clean run stays silent.
"""

from types import SimpleNamespace

import pytest

from repro import verify
from repro.core.simplified import tcplp_params
from repro.core.socket_api import TcpStack
from repro.experiments.topology import build_pair
from repro.experiments.workload import BulkTransfer
from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.verify import InvariantEngine, check_no_armed_tcp_timers


def live_transfer(seed=5, run_until=4.0, **engine_kw):
    """A mid-flight one-hop bulk transfer with an engine attached."""
    net = build_pair(seed=seed)
    params = tcplp_params()
    n1, n0 = net.nodes[1], net.nodes[0]
    src = TcpStack(net.sim, n1.ipv6, 1, cpu=n1.radio.cpu)
    dst = TcpStack(net.sim, n0.ipv6, 0, cpu=n0.radio.cpu)
    xfer = BulkTransfer(net.sim, src, dst, receiver_id=0,
                        params=params, receiver_params=params)
    engine = InvariantEngine(net, **engine_kw).start()
    net.sim.run(until=run_until)
    assert xfer.connection is not None
    assert engine.ok, "baseline run must be clean before mutating"
    return net, xfer, engine


def details(violations):
    return [v.detail for v in violations]


def assert_fires(engine, fragment, layer=None):
    found = engine._check_now()
    matches = [v for v in found if fragment in v.detail]
    assert matches, (f"no violation matching {fragment!r} in "
                     f"{details(found)}")
    if layer is not None:
        assert matches[0].layer == layer
    return matches[0]


# ======================================================================
# Clean runs are silent
# ======================================================================
def test_clean_run_has_no_violations():
    net, xfer, engine = live_transfer(run_until=10.0)
    assert engine.ok
    assert engine.checks_run > 10  # the periodic sweep actually ran
    assert engine.first_violation() is None
    assert engine.summary() == {"checks_run": engine.checks_run,
                                "violations": []}


def test_stop_disarms_the_sweep():
    net, _xfer, engine = live_transfer(run_until=2.0)
    swept = engine.checks_run
    engine.stop()
    net.sim.run(until=4.0)
    assert engine.checks_run == swept


# ======================================================================
# TCP probes
# ======================================================================
def test_detects_snd_una_ahead_of_snd_nxt():
    _net, xfer, engine = live_transfer()
    conn = xfer.connection
    conn.snd_nxt = (conn.snd_una - 1000) & 0xFFFFFFFF
    v = assert_fires(engine, "snd_una", layer="tcp")
    assert v.probe == "probe_tcp_stack"
    assert not engine.ok


def test_detects_snd_nxt_past_snd_max():
    _net, xfer, engine = live_transfer()
    conn = xfer.connection
    conn.snd_nxt = (conn.snd_max + 5000) & 0xFFFFFFFF
    assert_fires(engine, "snd_max", layer="tcp")


def test_detects_nonpositive_cwnd():
    _net, xfer, engine = live_transfer()
    xfer.connection.cc.cwnd = 0
    assert_fires(engine, "cwnd=0", layer="tcp")


def test_detects_cwnd_above_ceiling():
    _net, xfer, engine = live_transfer()
    cc = xfer.connection.cc
    cc.cwnd = cc.max_window + 10 * cc.mss
    assert_fires(engine, "above ceiling", layer="tcp")


def test_detects_ssthresh_below_floor():
    _net, xfer, engine = live_transfer()
    xfer.connection.cc.ssthresh = 1
    assert_fires(engine, "ssthresh", layer="tcp")


def test_detects_overlapping_sack_ranges():
    _net, xfer, engine = live_transfer()
    conn = xfer.connection
    una = conn.snd_una
    conn.scoreboard._ranges = [
        ((una + 100) & 0xFFFFFFFF, (una + 300) & 0xFFFFFFFF),
        ((una + 200) & 0xFFFFFFFF, (una + 400) & 0xFFFFFFFF),
    ]
    assert_fires(engine, "overlap", layer="tcp")


def test_detects_recv_buffer_overflow():
    _net, xfer, engine = live_transfer()
    rb = xfer.connection.recv_buf
    rb._unread = rb.capacity + 5
    assert_fires(engine, "recv_buf unread", layer="tcp")


def test_detects_out_of_order_count_drift():
    _net, xfer, engine = live_transfer()
    xfer.connection.recv_buf._out_of_order += 3
    assert_fires(engine, "out-of-order count", layer="tcp")


def test_detects_data_sequenced_past_fin():
    _net, xfer, engine = live_transfer()
    conn = xfer.connection
    conn._fin_seq = (conn.snd_nxt - 10) & 0xFFFFFFFF
    assert_fires(engine, "beyond FIN", layer="tcp")


# ======================================================================
# 6LoWPAN probe
# ======================================================================
def test_detects_overlapping_reassembly_fragments():
    net, _xfer, engine = live_transfer()
    reasm = net.nodes[0].adaptation.reassembler
    reasm._partials[(1, 77)] = SimpleNamespace(
        size=200, received={(0, 100), (50, 100)}, bytes_received=200)
    v = assert_fires(engine, "overlaps", layer="lowpan")
    assert v.probe == "probe_reassembler"
    del reasm._partials[(1, 77)]


def test_detects_reassembly_span_outside_datagram():
    net, _xfer, engine = live_transfer()
    reasm = net.nodes[0].adaptation.reassembler
    reasm._partials[(1, 78)] = SimpleNamespace(
        size=200, received={(150, 100)}, bytes_received=100)
    assert_fires(engine, "outside", layer="lowpan")
    del reasm._partials[(1, 78)]


# ======================================================================
# MAC probe
# ======================================================================
def test_detects_orphaned_ack_timer():
    net, _xfer, engine = live_transfer()
    mac = net.nodes[1].mac
    mac._ack_timer_event = net.sim.schedule(30.0, engine._check_now)
    mac._current = None
    v = assert_fires(engine, "no in-flight", layer="mac")
    assert v.probe == "probe_mac"
    mac._ack_timer_event.cancel()
    mac._ack_timer_event = None


def test_detects_ack_window_out_of_step_with_the_ack_timer():
    """The ACK window is state in two places (the MAC's timer, the
    radio's ``ack_seq``); out of step, the address filter would pass a
    stranger's ACK or refuse our own."""
    net, _xfer, engine = live_transfer()
    mac, sim = net.nodes[1].mac, net.sim
    while mac._ack_timer_event is not None:  # to an instant outside a wait
        sim.run(until=sim.now + 1e-4)
    mac.radio.ack_seq = 5
    v = assert_fires(engine, "no ack timer armed", layer="mac")
    assert v.probe == "probe_mac"
    mac.radio.ack_seq = None
    while mac._ack_timer_event is None:  # and into the next one
        sim.run(until=sim.now + 1e-4)
    mac.radio.ack_seq ^= 1
    assert_fires(engine, "in-flight frame has seq", layer="mac")
    mac.radio.ack_seq ^= 1
    assert not engine._check_now()


# ======================================================================
# Kernel probes
# ======================================================================
def test_detects_time_rollback():
    net, _xfer, engine = live_transfer()
    engine._last_now = net.sim.now + 10.0
    v = assert_fires(engine, "backwards", layer="kernel")
    assert v.node == -1 and v.probe == "probe_kernel"


def test_detects_heap_order_corruption():
    net, _xfer, engine = live_transfer()
    q = net.sim._queue
    assert len(q) >= 2
    q[0], q[-1] = q[-1], q[0]
    assert_fires(engine, "heap property", layer="kernel")
    q[0], q[-1] = q[-1], q[0]


def test_detects_tombstone_accounting_drift():
    net, _xfer, engine = live_transfer()
    net.sim.cancelled_count += 3
    assert_fires(engine, "tombstone", layer="kernel")
    net.sim.cancelled_count -= 3


# ======================================================================
# Engine mechanics
# ======================================================================
def test_violation_cap_appends_sentinel_and_stops():
    net, _xfer, engine = live_transfer(max_violations=2)
    reasm = net.nodes[0].adaptation.reassembler
    for tag in range(5):  # five bad partials, each one violation
        reasm._partials[(9, tag)] = SimpleNamespace(
            size=200, received={(0, 100), (50, 100)}, bytes_received=200)
    engine._check_now()
    assert len(engine.violations) == 3  # cap + one sentinel
    assert "cap 2 reached" in engine.violations[-1].detail
    engine._check_now()  # further sweeps add nothing
    assert len(engine.violations) == 3


def test_trace_event_triggers_targeted_reprobe():
    _net, xfer, engine = live_transfer()
    conn = xfer.connection
    conn.snd_nxt = (conn.snd_una - 1000) & 0xFFFFFFFF
    swept = engine.checks_run
    engine._on_trace_event(
        SimpleNamespace(layer="tcp", node=1, kind="x", fields={}))
    assert engine.checks_run == swept + 1
    assert any("snd_una" in v.detail for v in engine.violations)
    # events for other layers/nodes don't re-probe TCP on node 1
    engine._on_trace_event(
        SimpleNamespace(layer="phy", node=1, kind="x", fields={}))
    assert engine.checks_run == swept + 1


def test_on_violation_hook_fires_per_violation():
    seen = []
    net, xfer, engine = live_transfer()
    engine.on_violation = seen.append
    xfer.connection.cc.cwnd = 0
    engine._check_now()
    assert seen and "cwnd=0" in seen[0].detail


def test_interval_must_be_positive():
    net = build_pair(seed=1)
    with pytest.raises(ValueError):
        InvariantEngine(net, interval=0.0)


# ======================================================================
# Post-run: armed-timer registry
# ======================================================================
def _noop():
    pass


def test_armed_tcp_timer_flagged_after_teardown():
    sim = Simulator()
    leak = Timer(sim, _noop, name="tcp-rexmit-leaked")
    other = Timer(sim, _noop, name="mac-poll")
    leak.start(3.0)
    other.start(3.0)
    violations = check_no_armed_tcp_timers(sim)
    assert len(violations) == 1
    assert "tcp-rexmit-leaked" in violations[0]
    assert "t=3.000" in violations[0]
    leak.stop()
    assert check_no_armed_tcp_timers(sim) == []
    other.stop()


def test_armed_timers_registry_tracks_start_and_fire():
    sim = Simulator()
    t = Timer(sim, _noop, name="tcp-probe")
    t.start(1.0)
    assert t in sim.armed_timers()
    sim.run(until=2.0)  # fires and withdraws itself
    assert sim.armed_timers() == []


# ======================================================================
# Auto-attach trio (runner --verify plumbing)
# ======================================================================
def test_auto_verify_attaches_engines_to_built_networks():
    try:
        verify.auto_verify(0.5)
        net = build_pair(seed=3)
        assert isinstance(net.verify, InvariantEngine)
        drained = verify.drain_auto()
        assert drained == [net.verify]
        assert verify.drain_auto() == []  # drained means forgotten
    finally:
        verify.auto_verify(None)
    net2 = build_pair(seed=3)
    assert net2.verify is None
