"""Checkpoint/resume determinism tests (repro.sim.checkpoint).

The contract under test: restoring a snapshot taken mid-run and
running to the original horizon reproduces the original event trace
byte-identically — on a quiet chain and under chaos fault injection,
in memory and through the pickle wire format.
"""

import pytest

from repro.core.simplified import tcplp_params
from repro.core.socket_api import TcpStack
from repro.experiments.topology import build_chain, build_grid_mesh
from repro.experiments.workload import BulkTransfer, FlowSet, FlowSpec
from repro.faults import FaultInjector, FaultSchedule
from repro.sim.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointManager,
)
from repro.sim.engine import Simulator
from tests.trace_hook import TraceHook

CHAOS_SPEC = {
    "name": "checkpoint-chaos",
    "faults": [
        {"kind": "bursty_loss", "p_good_bad": 0.05, "p_bad_good": 0.3},
        {"kind": "frame_corruption", "rate": 0.01},
    ],
}


def build_transfer(seed=11, hops=2, fault_spec=None):
    """A bulk transfer over an N-hop chain, optionally under faults."""
    net = build_chain(hops, seed=seed, with_cloud=False)
    for n in net.nodes.values():
        n.mac.params.retry_delay = 0.04
    injector = None
    if fault_spec is not None:
        injector = FaultInjector(
            net, FaultSchedule.from_dict(fault_spec)).arm()
    params = tcplp_params(window_segments=4)
    node_s, node_r = net.nodes[hops], net.nodes[0]
    src = TcpStack(net.sim, node_s.ipv6, hops, cpu=node_s.radio.cpu)
    dst = TcpStack(net.sim, node_r.ipv6, 0, cpu=node_r.radio.cpu)
    xfer = BulkTransfer(net.sim, src, dst, receiver_id=0,
                        params=params, receiver_params=params)
    return net, xfer, injector


def resume_and_trace(cp, until):
    """Restore ``cp``, run to ``until``, return the restored trace."""
    sim2, _roots = cp.restore()
    hook = TraceHook().attach(sim2)
    sim2.run(until=until)
    return hook.entries


# ======================================================================
# Byte-identical resume
# ======================================================================
class TestResumeDeterminism:
    def test_resume_trace_identical_on_chain(self):
        net, xfer, _ = build_transfer()
        hook = TraceHook().attach(net.sim)
        manager = CheckpointManager(
            net.sim, roots={"xfer": xfer}, interval=5.0).start()
        net.sim.run(until=12.0)
        cp = manager.checkpoints[-1]
        assert cp is not None and cp.time == pytest.approx(10.0)
        reference = hook.suffix_after(cp)
        assert len(reference) > 100  # the tail is a real workload
        assert resume_and_trace(cp, 12.0) == reference

    def test_resume_trace_identical_on_grid_mesh(self):
        # a 4x4 mesh: one flow runs from the start, a second launches
        # after the snapshot, so its relays create their MAC streams
        # (first draw) and connections only in the restored run
        net = build_grid_mesh(4, 4, seed=5)
        flows = FlowSet(net, [FlowSpec(src=15, dst=0),
                              FlowSpec(src=3, dst=12, start=6.0)])
        hook = TraceHook().attach(net.sim)
        manager = CheckpointManager(
            net.sim, roots={"net": net, "flows": flows},
            interval=5.0).start()
        net.sim.run(until=10.0)
        cp = manager.nearest_before(6.0)
        assert cp.time == pytest.approx(5.0)
        reference = hook.suffix_after(cp)
        assert len(reference) > 100
        for snapshot in (cp, Checkpoint.from_bytes(cp.to_bytes())):
            sim2, roots = snapshot.restore()
            streams = roots["net"].rng._streams
            undrawn = [nid for nid in roots["net"].nodes
                       if f"csma:{nid}" not in streams]
            assert undrawn  # some nodes have never sent at the snapshot
            hook2 = TraceHook().attach(sim2)
            sim2.run(until=10.0)
            assert hook2.entries == reference
            assert any(f"csma:{nid}" in streams for nid in undrawn)

    def test_resume_trace_identical_under_chaos(self):
        net, xfer, injector = build_transfer(seed=23,
                                             fault_spec=CHAOS_SPEC)
        hook = TraceHook().attach(net.sim)
        manager = CheckpointManager(
            net.sim, roots={"xfer": xfer}, interval=5.0).start()
        net.sim.run(until=15.0)
        assert injector.summary()  # the chaos actually happened
        cp = manager.nearest_before(12.0)
        assert cp.time == pytest.approx(10.0)
        assert resume_and_trace(cp, 15.0) == hook.suffix_after(cp)

    def test_pickle_round_trip_resumes_identically(self, tmp_path):
        net, xfer, _ = build_transfer(seed=31)
        hook = TraceHook().attach(net.sim)
        manager = CheckpointManager(
            net.sim, roots={"xfer": xfer}, interval=5.0).start()
        net.sim.run(until=12.0)
        cp = manager.checkpoints[-1]
        path = tmp_path / "snap.ckpt"
        nbytes = cp.save(path)
        assert nbytes == path.stat().st_size > 0
        loaded = Checkpoint.load(path)
        assert (loaded.time, loaded.seq) == (cp.time, cp.seq)
        assert loaded.boundary == cp.boundary
        assert resume_and_trace(loaded, 12.0) == hook.suffix_after(cp)

    def test_restores_are_isolated(self):
        net, xfer, _ = build_transfer(seed=7)
        manager = CheckpointManager(
            net.sim, roots={"xfer": xfer}, interval=5.0).start()
        net.sim.run(until=11.0)
        cp = manager.checkpoints[-1]
        sim_a, roots_a = cp.restore()
        sim_b, roots_b = cp.restore()
        sim_a.run(until=14.0)
        # running one restore moves neither its sibling nor the original
        assert sim_b.now == pytest.approx(cp.time)
        assert net.sim.now == pytest.approx(11.0)
        assert roots_a["xfer"] is not roots_b["xfer"]
        assert roots_a["xfer"] is not xfer

    def test_restored_manager_resumes_checkpointing(self):
        net, xfer, _ = build_transfer(seed=7)
        manager = CheckpointManager(
            net.sim, roots={"xfer": xfer}, interval=5.0).start()
        net.sim.run(until=11.0)
        sim2, _roots = manager.checkpoints[-1].restore()
        clone = next(
            ev.fn.__self__ for ev in sim2.pending_events()
            if isinstance(getattr(ev.fn, "__self__", None),
                          CheckpointManager))
        # the ring of past snapshots is excluded from the snapshot...
        assert clone.taken == 0 and not clone.checkpoints
        sim2.run(until=21.0)
        # ...but the cadence survives: the clone re-checkpoints on its own
        assert clone.taken == 2
        assert clone.checkpoints[-1].time == pytest.approx(20.0)


# ======================================================================
# Boundary semantics and error paths
# ======================================================================
class TestBoundariesAndErrors:
    def test_manual_capture_has_no_boundary(self):
        net, xfer, _ = build_transfer()
        hook = TraceHook().attach(net.sim)
        cp = Checkpoint.capture(net.sim, {"xfer": xfer})
        assert cp.boundary is None
        with pytest.raises(ValueError, match="no trace boundary"):
            hook.suffix_after(cp)

    def test_capture_preserves_on_event_hook(self):
        net, xfer, _ = build_transfer()
        hook = TraceHook().attach(net.sim)
        cp = Checkpoint.capture(net.sim, {"xfer": xfer})
        assert net.sim.on_event is hook  # masked only during the copy
        sim2, _ = cp.restore()
        assert sim2.on_event is None  # and never part of the snapshot

    def test_lambda_in_queue_is_not_serialisable(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        cp = Checkpoint.capture(sim)
        with pytest.raises(CheckpointError, match="bound methods"):
            cp.to_bytes()

    def test_from_bytes_rejects_garbage_header(self):
        import pickle

        data = pickle.dumps(("not-a-checkpoint", 1, 2, None)) + b"tail"
        with pytest.raises(CheckpointError, match="bad header"):
            Checkpoint.from_bytes(data)

    def test_manager_validates_arguments(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CheckpointManager(sim, interval=0.0)
        with pytest.raises(ValueError):
            CheckpointManager(sim, keep=0)

    def test_ring_is_bounded_and_nearest_before_reads_it(self):
        net, xfer, _ = build_transfer()
        manager = CheckpointManager(
            net.sim, roots={"xfer": xfer}, interval=1.0, keep=2).start()
        net.sim.run(until=6.5)
        assert manager.taken == 6
        assert len(manager.checkpoints) == 2
        times = [cp.time for cp in manager.checkpoints]
        assert times == pytest.approx([5.0, 6.0])
        assert manager.nearest_before(6.5).time == pytest.approx(6.0)
        assert manager.nearest_before(5.5).time == pytest.approx(5.0)
        assert manager.nearest_before(4.0) is None  # dropped from the ring
        manager.stop()
        assert manager.checkpoints[-1].time == pytest.approx(6.0)
