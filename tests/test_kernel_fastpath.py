"""Simulation-kernel fast-path regressions.

The kernel optimisations (cached adjacency in the medium, tombstone
compaction and periodic re-arming in the scheduler) must be invisible
to the simulation: same seed, byte-identical event trace.  These tests
pin that contract down, plus the cache-invalidation and compaction
behaviour itself.
"""

import sys

import pytest

from repro.core.params import TcpParams, mss_for_frames
from repro.core.simplified import tcplp_params
from repro.experiments.topology import build_chain, build_pair
from repro.experiments.workload import BulkTransfer
from repro.mac.frame import Frame, FrameKind
from repro.phy.medium import Medium
from repro.phy.radio import Radio
from repro.sim import metrics as metrics_mod
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import RngStreams
from repro.sim.timers import PeriodicTimer
from tests.reference_medium import use_brute_medium


# ----------------------------------------------------------------------
# determinism: the optimised kernel replays the exact same event trace
# ----------------------------------------------------------------------
def _hidden_chain(brute: bool = False):
    """The 3-hop hidden-terminal bulk transfer of
    ``bench/workloads.py::chain_hidden``, built but not yet run."""
    net = build_chain(3, seed=1)
    if brute:
        use_brute_medium(net.medium)
    for n in net.nodes.values():
        n.mac.params.retry_delay = 0.04
    params = tcplp_params(window_segments=4)
    xfer = BulkTransfer(net.sim, net.tcp_stack(3), net.tcp_stack(0),
                        receiver_id=0, params=params, receiver_params=params)
    return net, xfer


def _record_events(sim):
    trace = []
    sim.on_event = lambda ev: trace.append(
        (ev.time, ev.seq, getattr(ev.fn, "__qualname__", repr(ev.fn))
         .replace("BruteMedium.", "Medium."))
    )
    return trace


def _traced_chain_run(brute: bool = False):
    """Run a short 3-hop TCP transfer, recording every dispatched event."""
    net, xfer = _hidden_chain(brute)
    trace = _record_events(net.sim)
    res = xfer.measure(5.0, 10.0)
    return trace, res.goodput_kbps, net.medium.frames_delivered


def test_same_seed_reproduces_identical_event_trace():
    trace_a, goodput_a, delivered_a = _traced_chain_run()
    trace_b, goodput_b, delivered_b = _traced_chain_run()
    assert len(trace_a) > 5000  # the run actually exercised the stack
    assert trace_a == trace_b
    assert (goodput_a, delivered_a) == (goodput_b, delivered_b)


def test_adjacency_cache_does_not_change_the_simulation():
    """Cached and geometric connectivity paths must be byte-identical:
    same event times, same dispatch order, same RNG draw order."""
    cached, goodput_c, delivered_c = _traced_chain_run()
    uncached, goodput_u, delivered_u = _traced_chain_run(brute=True)
    assert cached == uncached
    assert (goodput_c, delivered_c) == (goodput_u, delivered_u)


def _watched_chain_run(watch):
    """The chain under one way of watching the channel: everything a
    delivery loop or the sender's release can leave behind."""
    metrics_mod.auto_attach(watch in ("metrics", "bus"),
                            capture_trace=watch == "bus")
    try:
        net, xfer = _hidden_chain()
    finally:
        metrics_mod.auto_attach(False)
    if watch == "filter":
        net.medium.frame_filters.append(lambda frame, src, dst: False)
    trace = _record_events(net.sim)
    xfer.measure(5.0, 10.0)
    medium = net.medium
    radios = [(r.frames_sent, r.frames_received, r.cpu.busy_time(),
               r.energy._settled(), r._listen_since)
              for r in medium.radios.values()]
    return trace, medium.frames_delivered, medium.frames_collided, radios


def test_observed_and_unobserved_delivery_are_the_same_simulation():
    """``Medium._end_transmission`` delivers through one of two loops:
    a metrics registry, a trace bus or an inert frame filter each take
    the observed one, and none of them may change a single event."""
    bare = _watched_chain_run(None)
    assert len(bare[0]) > 5000 and bare[2] > 0  # frames, and collisions
    for watch in ("metrics", "bus", "filter"):
        assert _watched_chain_run(watch) == bare, watch


def _count_calls(run):
    """Python-level calls made while ``run()`` runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def test_python_calls_per_frame_budget():
    """Host time on the frame path follows Python-level calls almost
    one for one (docs/architecture.md §7), and the count repeats
    exactly, so a budget on it guards the path on any host: 27.8 calls
    per delivered frame before the path was flattened to one call per
    layer boundary and one per event, 19.6 after, 18.8 since the
    radio's address filter (5,453 of these 14,192 receptions are
    overheard, and each used to cost ``Radio.deliver`` and
    ``MacLayer._on_frame``), 18.08 since the collision marking moved
    into ``begin_transmission`` (it was a call of its own, 0.71 per
    delivered frame, only because a second caller shared it), 15.49
    since the per-packet path above the MAC lost its call overhead
    (``test_python_calls_per_segment_budget``), and 11.49 since the
    frame path below 6LoWPAN folded each boundary that only one caller
    used: ``Medium.begin_transmission`` into ``Radio.transmit``, carrier
    sense into the MAC's ``_cca``, ``Radio.deliver`` into the unobserved
    delivery loop, ``Event._note_cancel`` into ``Event.cancel``, the MAC's
    ``_loaded`` step into ``_kick`` and ``_retry_fire``, frames and ops
    built by slot stores, ``Fragment.wire_bytes`` a slot and the retry
    jitter drawn without ``Random.uniform``."""
    net, _ = _hidden_chain()
    sim, medium = net.sim, net.medium
    sim.run(until=10.0)
    events0, frames0 = sim.events_processed, medium.frames_delivered
    calls = _count_calls(lambda: sim.run(until=50.0))
    frames = medium.frames_delivered - frames0
    # the same work as when the budget was set
    assert (frames, sim.events_processed - events0) == (14192, 30833)
    assert calls / frames <= 12


def test_python_calls_per_segment_budget():
    """The per-packet path above the MAC (TCP, IPv6, 6LoWPAN) has a
    budget like the frame path's, counted per TCP segment received on a
    one-hop bulk transfer of one-frame segments (the shape of the
    campaign cold runs, at the MSS where per-segment cost weighs most):
    155.2 calls per segment before header prediction took its fast path
    on the host and the layers above the MAC lost their call overhead
    (one-expression sequence comparisons, buffer sizes and the receive
    window kept as attributes, counters as dict stores, IPHC sizes
    cached per header shape), 76.5 after."""
    net = build_pair(seed=1)
    mss = mss_for_frames(1)
    params = TcpParams(mss=mss, send_buffer=4 * mss, recv_buffer=4 * mss)
    stacks = (net.tcp_stack(1), net.tcp_stack(0))
    BulkTransfer(net.sim, *stacks, receiver_id=0, params=params,
                 receiver_params=params)
    sim = net.sim
    sim.run(until=2.0)

    def received():
        return sum(s.trace.counters.get("tcp.segs_rcvd") for s in stacks)

    segments0, events0 = received(), sim.events_processed
    calls = _count_calls(lambda: sim.run(until=12.0))
    segments = received() - segments0
    # the same work as when the budget was set
    assert (segments, sim.events_processed - events0) == (1386, 7407)
    assert calls / segments <= 77


# ----------------------------------------------------------------------
# adjacency cache invalidation
# ----------------------------------------------------------------------
def _cache_net():
    sim = Simulator()
    medium = Medium(sim, rng=RngStreams(1), comm_range=6.0)
    radios = [Radio(sim, medium, node_id=i, position=pos)
              for i, pos in enumerate([(0, 0), (5, 0), (10, 0)])]
    return sim, medium, radios


def _send(sim, radios, src, dst):
    f = Frame(kind=FrameKind.DATA, src=src, dst=dst, payload=b"x",
              payload_bytes=40)
    radios[src].load(63, radios[src].transmit, f, 63, lambda: None)
    sim.run()


def test_block_link_invalidates_cache_after_traffic():
    sim, medium, radios = _cache_net()
    got = []
    radios[1].on_frame = lambda f, s: got.append(s)
    _send(sim, radios, 0, 1)
    assert got == [0]  # cache built and used
    medium.block_link(0, 1)
    _send(sim, radios, 0, 1)
    assert got == [0]  # no second delivery: the cache saw the block
    assert not medium.in_range(0, 1)


def test_force_link_invalidates_cache_after_traffic():
    sim, medium, radios = _cache_net()
    got = []
    radios[2].on_frame = lambda f, s: got.append(s)
    _send(sim, radios, 0, 2)
    assert got == []  # out of range
    medium.force_link(0, 2)
    _send(sim, radios, 0, 2)
    assert got == [0]
    assert medium.neighbors(0) == [1, 2]


def test_direct_link_set_mutation_invalidates_cache():
    """Chaos tests mutate _blocked_links directly (e.g. scheduling
    its .clear to heal a partition); the cache must notice."""
    sim, medium, radios = _cache_net()
    medium.block_link(0, 1)
    assert not medium.in_range(0, 1)
    medium._blocked_links.clear()
    assert medium.in_range(0, 1)
    assert medium.cache_rebuilds >= 2


# ----------------------------------------------------------------------
# scheduler: tombstone accounting and compaction
# ----------------------------------------------------------------------
def test_cancel_heavy_load_triggers_compaction():
    sim = Simulator()
    events = [sim.schedule(10.0, lambda: None) for _ in range(500)]
    keeper = sim.schedule(1.0, lambda: None)
    for ev in events:
        ev.cancel()
    # >50% of the heap was dead, so it was compacted in place
    assert sim.compactions >= 1
    assert sim.cancelled_count < 64
    assert len(sim._queue) <= 64 + 1
    assert len(sim.pending_events()) == 1
    sim.run()
    assert keeper.fired
    assert sim.events_processed == 1


def test_cancel_heavy_workload_keeps_heap_bounded():
    """The TCP rexmit-timer pattern — every tick re-arms a batch of
    timers and cancels the previous batch — must not grow the heap, and
    the tombstone accounting must agree with the heap afterwards even
    with slim handle-free entries mixed into the same heap."""
    sim = Simulator()
    live = []

    def tick():
        for ev in live:
            ev.cancel()
        live.clear()
        live.extend(sim.schedule(5.0, lambda: None) for _ in range(40))
        # handle-free churn rides along (slim 4-tuples)
        sim.schedule_unref(0.005, lambda: None)

    sim.schedule_periodic(0.01, tick)
    sim.run(until=2.0)
    # ~200 ticks x 40 cancels: without compaction the heap would hold
    # thousands of dead entries; with it, live batch + tombstone
    # allowance + the periodic tick is the ceiling
    assert sim.compactions > 0
    assert len(sim._queue) <= 40 + 64 + 1
    assert len(sim.pending_events()) == 40 + 1
    tombstones = sum(
        1 for e in sim._queue if len(e) == 3 and e[2].cancelled)
    assert tombstones == sim.cancelled_count


def test_compaction_preserves_pending_dispatch_order():
    """Compacting mid-flight must not reorder or drop survivors."""
    sim = Simulator()
    fired = []
    keep = [sim.schedule(1.0 + 0.1 * i, fired.append, i) for i in range(5)]
    doomed = [sim.schedule(10.0, lambda: fired.append("dead"))
              for _ in range(300)]
    sim.schedule_unref(1.25, fired.append, "slim")
    for ev in doomed:
        ev.cancel()
    assert sim.compactions >= 1 and sim.cancelled_count < 64
    assert len(sim.pending_events()) == 6
    sim.run()
    assert fired == [0, 1, 2, "slim", 3, 4]
    assert all(ev.fired for ev in keep)


def test_slim_entry_views_report_pending_until_dispatched():
    sim = Simulator()
    sim.schedule_unref(1.0, lambda: None)
    (queued,) = sim.pending_events()
    assert queued.pending and not queued.fired and not queued.cancelled
    seen = []
    sim.on_event = seen.append
    sim.run()
    (dispatched,) = seen
    assert dispatched.fired and not dispatched.pending
    assert (dispatched.time, dispatched.seq) == (queued.time, queued.seq)


def test_double_cancel_counts_once():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    assert sim.cancelled_count == 1
    sim.run()
    assert sim.cancelled_count == 0
    assert sim.events_processed == 0


# ----------------------------------------------------------------------
# periodic events
# ----------------------------------------------------------------------
def test_schedule_periodic_fires_every_interval():
    sim = Simulator()
    fires = []
    ev = sim.schedule_periodic(1.0, lambda: fires.append(sim.now))
    sim.run(until=5.5)
    assert fires == [1.0, 2.0, 3.0, 4.0, 5.0]
    ev.cancel()
    sim.run(until=10.0)
    assert len(fires) == 5


def test_schedule_periodic_rejects_bad_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_periodic(0.0, lambda: None)


def test_periodic_timer_ensure_keeps_phase():
    sim = Simulator()
    fires = []
    timer = PeriodicTimer(sim, lambda: fires.append(sim.now), name="t")
    timer.start(1.0)
    sim.run(until=2.5)
    assert fires == [1.0, 2.0]
    timer.ensure(1.0)  # same interval: must NOT reset the phase
    sim.run(until=3.5)
    assert fires == [1.0, 2.0, 3.0]
    timer.ensure(0.5)  # interval change: re-arms from now (t=3.5)
    sim.run(until=4.6)
    assert fires == [1.0, 2.0, 3.0, 4.0, 4.5]
    timer.stop()
    assert timer._event is None
    sim.run(until=10.0)
    assert len(fires) == 5
