"""Kernel equivalence: the slim-entry path against a live reference.

The contract of the slim path is ``schedule_unref(d, fn, *a)`` ≡
``schedule(d, fn, *a)`` with the handle dropped.  The reference kernel
is therefore three lines of test code — ``schedule_unref`` patched to
call ``schedule`` — and the suite compares full ``(time, seq,
qualname)`` traces against it on every scenario family the bench suite
covers (clean chain, dense mesh, compound chaos faults), across seeds.
Each trace is additionally pinned to a sha256, so a change to the
kernel or the stack under it is proven behaviour-neutral or shows up
here.  The pins taken at af24a93 (before the slim path was folded into
``Simulator``) held until a frame's end of air became one event —
``Medium._end_transmission`` releases the sender itself, where a
second event used to run ``Radio._end_air`` — which removes one event
and one ``seq`` per frame from every trace.  They were re-taken at that
change; with the ``Radio._end_air`` rows dropped, the ``(time,
qualname)`` projection of all nine traces was identical before and
after it (digests in CHANGES.md, PR16).  Flattening the frame path to
one call per layer boundary (PR19) changed no event, so the pins held.

TCP's header-prediction fast path (``TcpConnection.on_segment``) has a
reference of the same kind: ``on_segment`` patched to ``_full_input``,
the path every segment took before.  Each scenario runs a third time
that way and must give the same trace, counters and CPU busy time; a
fast-path mutant under ``tests/fastpath_mutants`` shows the check bites.
"""

import hashlib
import math
import random
import types
from pathlib import Path

import pytest

from repro.core.connection import TcpConnection
from repro.core.simplified import tcplp_params
from repro.experiments.topology import build_chain, build_grid_mesh
from repro.experiments.workload import BulkTransfer, FlowSet, FlowSpec
from repro.faults import FaultInjector, FaultSchedule
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import RngStreams
from repro.verify.probes import probe_kernel

CHAOS_SPEC = {
    "name": "equivalence-chaos",
    "faults": [
        {"kind": "bursty_loss", "p_good_bad": 0.05, "p_bad_good": 0.3},
        {"kind": "frame_corruption", "rate": 0.01},
        {"kind": "link_flap", "a": 0, "b": 1, "at": 6.0, "down_for": 1.0},
        {"kind": "node_reboot", "node": 1, "at": 10.0, "outage": 2.0},
    ],
}


#: sha256 of each traced run (see _digest and the module docstring)
PINNED = {
    ("chain", 1): "d187fcc888107ff863830f5e2d5453f3e46b48fb658e55e8c46a3440af7db35f",
    ("chain", 2): "75ca0e75ddfe1afe1e258930b264a1fdcaac47225b9cc127e901a7c482870fb4",
    ("chain", 3): "275db38240d1f061743a8bda4c6600849c26fde0e2ddfb006c94dedecb0e42cf",
    ("chain", 4): "06913678faa192318471395733169bbdd0d24f9bceeaf310b2c100c398fd0b8b",
    ("chain", 5): "98c6b8b7dcd5ac32be0338b2ac75f9b89ddedac9605591f07a4a53831c0be892",
    ("mesh", 3): "0aa9b6e54e8d35c1bda5ebf991dc8e8bd564b657fbb133c8d1f57105da8bbfa8",
    ("mesh", 11): "a3de5df30ea77573d17236ee17640390a71540472c2880a85dc2eb2fb33e2e8b",
    ("chaos", 7): "b32ecd869946b1b8a3b5d963039b12d5ddf4beb13898ea4468a3b264228111ae",
    ("chaos", 23): "b43b9205c69fc7463d1f91c6d223787b491f6341d1a8fe4c4288263ef5fd36eb",
}


def _reference_schedule_unref(self, delay, fn, *args):
    self.schedule(delay, fn, *args)


def _digest(trace):
    h = hashlib.sha256()
    for time, seq, name in trace:
        h.update(f"{time!r} {seq} {name}\n".encode())
    return h.hexdigest()


def _slim_and_reference(run, seed, monkeypatch):
    """The run as shipped, checked against the reference kernel and
    against the full TCP input path."""
    slim = run(seed)
    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "schedule_unref", _reference_schedule_unref)
        reference = run(seed)
    assert len(reference[0]) > 4000  # the run exercised the whole stack
    assert slim == reference
    assert _full_input_run(run, seed, monkeypatch) == slim
    return slim


def _full_input_run(run, seed, monkeypatch):
    """``run(seed)`` with TCP's header-prediction fast path off."""
    with monkeypatch.context() as patch:
        patch.setattr(TcpConnection, "on_segment", TcpConnection._full_input)
        return run(seed)


def _numbers(net):
    """Every node's counters and simulated CPU busy time."""
    return [(nid, sorted(node.trace.counters.as_dict().items()),
             node.radio.cpu.busy_time())
            for nid, node in sorted(net.nodes.items())]


def _trace(sim):
    entries = []
    sim.on_event = lambda ev: entries.append(
        (ev.time, ev.seq, getattr(ev.fn, "__qualname__", repr(ev.fn))))
    return entries


def _chain_run(seed: int):
    """3-hop hidden-terminal bulk transfer, fully traced."""
    net = build_chain(3, seed=seed)
    for n in net.nodes.values():
        n.mac.params.retry_delay = 0.04
    params = tcplp_params(window_segments=4)
    trace = _trace(net.sim)
    xfer = BulkTransfer(net.sim, net.tcp_stack(3), net.tcp_stack(0),
                        receiver_id=0, params=params, receiver_params=params)
    res = xfer.measure(5.0, 10.0)
    return (trace, round(res.goodput_kbps, 3), net.medium.frames_delivered,
            _numbers(net))


def _mesh_run(seed: int):
    """A small router mesh with staggered concurrent flows, traced."""
    net = build_grid_mesh(4, 4, seed=seed)
    params = tcplp_params(window_segments=2)
    specs = [FlowSpec(src=3, dst=0, start=0.0),
             FlowSpec(src=15, dst=12, start=0.25),
             FlowSpec(src=12, dst=0, start=0.5),
             FlowSpec(src=7, dst=4, start=0.75)]
    trace = _trace(net.sim)
    flows = FlowSet(net, specs, params=params)
    res = flows.measure(warmup=4.0, duration=6.0)
    return (trace, round(res.aggregate_goodput_kbps, 3),
            net.medium.frames_delivered, res.flows_connected, _numbers(net))


def _chaos_run(seed: int):
    """2-hop chain under compound faults (flap + reboot + loss), traced."""
    net = build_chain(2, seed=seed, with_cloud=False)
    for n in net.nodes.values():
        n.mac.params.retry_delay = 0.04
    injector = FaultInjector(net, FaultSchedule.from_dict(CHAOS_SPEC)).arm()
    params = tcplp_params(window_segments=4)
    trace = _trace(net.sim)
    xfer = BulkTransfer(net.sim, net.tcp_stack(2), net.tcp_stack(0),
                        receiver_id=0, params=params, receiver_params=params)
    res = xfer.measure(5.0, 10.0)
    return (trace, round(res.goodput_kbps, 3),
            net.medium.frames_delivered, len(injector.events), _numbers(net))


# ======================================================================
# byte-identical traces, per scenario family, across seeds
# ======================================================================
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_chain_trace_identical(seed, monkeypatch):
    slim = _slim_and_reference(_chain_run, seed, monkeypatch)
    assert _digest(slim[0]) == PINNED["chain", seed]


@pytest.mark.parametrize("seed", [3, 11])
def test_mesh_trace_identical(seed, monkeypatch):
    slim = _slim_and_reference(_mesh_run, seed, monkeypatch)
    assert slim[3] > 0  # flows actually connected
    assert _digest(slim[0]) == PINNED["mesh", seed]


@pytest.mark.parametrize("seed", [7, 23])
def test_chaos_trace_identical(seed, monkeypatch):
    slim = _slim_and_reference(_chaos_run, seed, monkeypatch)
    assert slim[3] > 0  # faults actually fired
    assert _digest(slim[0]) == PINNED["chaos", seed]


# ======================================================================
# the TCP fast path's oracle bites
# ======================================================================
FAST_PATH_MUTANTS = sorted(
    (Path(__file__).parent / "fastpath_mutants").glob("*.patch"))


@pytest.mark.parametrize("patch", FAST_PATH_MUTANTS, ids=lambda p: p.stem)
def test_full_input_oracle_kills_fast_path_mutant(patch, monkeypatch):
    """Each patch breaks ``on_segment``'s fast path; run with the
    mutated method on the shipped class, chaos seed 7 must then differ
    from its full-path reference (the full path is left intact)."""
    from tests.test_tcp_machine import load_mutant

    _, mutant = load_mutant(patch)
    code = mutant.TcpConnection.on_segment.__code__
    assert code != TcpConnection.on_segment.__code__
    reference = _full_input_run(_chaos_run, 7, monkeypatch)
    shipped_globals = TcpConnection.on_segment.__globals__
    monkeypatch.setattr(TcpConnection, "on_segment", types.FunctionType(
        code, shipped_globals, "on_segment"))
    assert _chaos_run(7) != reference


# ======================================================================
# kernel construction
# ======================================================================
def test_deepcopy_preserves_kernel_class():
    import copy

    sim = Simulator()
    sim.schedule(1.0, sim.stop)
    sim.schedule_unref(2.0, sim.stop)
    clone = copy.deepcopy(sim)
    clone.run()  # the copied callbacks stop the clone, not the original
    assert (type(clone), clone.now, len(clone.pending_events())) == (Simulator, 1.0, 1)
    assert (sim.now, len(sim.pending_events())) == (0.0, 2)


# ======================================================================
# schedule_unref semantics
# ======================================================================
def test_schedule_unref_semantics():
    sim = Simulator()
    fired = []
    assert sim.schedule_unref(2.0, fired.append, "slim") is None
    ev = sim.schedule(1.0, fired.append, "event")
    assert len(sim.pending_events()) == 2
    assert sim.peek_time() == pytest.approx(1.0)
    fns = [e.fn for e in sim.pending_events()]
    assert fired.append in fns
    sim.run()
    assert fired == ["event", "slim"]
    assert ev.fired
    assert sim.events_processed == 2
    assert len(sim.pending_events()) == 0


def test_schedule_unref_rejects_negative_delay():
    sim = Simulator()
    for bad in (-0.1, math.nan):
        with pytest.raises(SimulationError):
            sim.schedule_unref(bad, lambda: None)
    assert sim.pending_events() == []


# ======================================================================
# invariant probes see through slim entries
# ======================================================================
def test_probe_kernel_clean_on_accel_mid_run():
    sim = Simulator()
    for i in range(50):
        sim.schedule_unref(0.1 * i + 5.0, lambda: None)
    events = [sim.schedule(0.1 * i + 5.0, lambda: None) for i in range(50)]
    for ev in events[::3]:
        ev.cancel()
    sim.schedule_periodic(1.0, lambda: None)
    sim.run(until=3.0)
    assert probe_kernel(sim, 0.0) == []
    assert len(sim.pending_events()) > 0


# ======================================================================
# the inlined CSMA backoff draw is replica-exact
# ======================================================================
def test_backoff_draw_matches_randint():
    """The MAC's inlined rejection loop must consume getrandbits exactly
    like CPython's Random.randint(0, 2**be - 1) so seeded traces stay
    byte-identical (pinned by the comment in MacLayer._backoff)."""
    for seed in range(20):
        for be in (0, 1, 3, 5, 8):
            ref_rng = random.Random(seed)
            inl_rng = random.Random(seed)
            for _ in range(50):
                expected = ref_rng.randint(0, (1 << be) - 1)
                n = 1 << be
                k = n.bit_length()
                getrandbits = inl_rng.getrandbits
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                assert r == expected
            # and the two streams remain aligned afterwards
            assert ref_rng.random() == inl_rng.random()


def test_retry_jitter_draw_matches_uniform():
    """The MAC draws its retry delay as ``d * random()``, not through
    ``Random.uniform(0.0, d)``: from the same ``retry:<id>`` stream
    state the two must agree bit for bit, over many ``d``, so that
    seeded traces stay byte-identical (the comment in
    MacLayer._retry)."""
    d_values = [0.001 * k for k in range(1, 200)]
    d_values += [1e-9, 0.005, 0.04, 0.1, 1 / 3, 0.7, 1.0, 3.0, 1e6]
    for node in (0, 1, 7):
        ref = RngStreams(node + 1).stream(f"retry:{node}")
        inl = RngStreams(node + 1).stream(f"retry:{node}")
        for d in d_values:
            assert (d * inl.random()).hex() == ref.uniform(0.0, d).hex()
        assert ref.random() == inl.random()

