"""Advanced MAC behaviours: preemption, pause, indirect overflow, deaf CSMA."""

from repro.mac.frame import Frame, FrameKind
from repro.mac.link import MacLayer, MacParams
from repro.phy.energy import RadioState
from repro.phy.medium import Medium
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


def make_macs(positions, params=None, seed=3, deaf=False):
    sim = Simulator()
    rng = RngStreams(seed)
    medium = Medium(sim, rng=rng, comm_range=10.0)
    macs = []
    for i, pos in enumerate(positions):
        radio = Radio(sim, medium, node_id=i, position=pos, deaf_csma=deaf)
        macs.append(MacLayer(sim, radio, rng, params=params or MacParams()))
    return sim, medium, macs


def test_indirect_release_preempts_contending_op():
    """§9.5 improvement 1: a waiting indirect frame preempts the direct
    frame still contending for the channel."""
    params = MacParams(retry_delay=0.2)  # long retry waits to preempt in
    sim, medium, macs = make_macs([(0, 0), (5, 0), (0, 5)], params=params)
    parent = macs[0]
    parent.mark_sleepy_child(1)
    order = []
    macs[1].on_receive = lambda p, s, f: order.append(("child", p))
    macs[2].on_receive = lambda p, s, f: order.append(("router", p))
    # park a frame for the sleepy child, then start a big direct backlog
    parent.send(b"indirect", 30, dst=1)
    for i in range(5):
        parent.send(i, 100, dst=2)
    # the child polls while the parent is mid-backlog
    sim.schedule(0.02, lambda: macs[1].send_data_request(parent=0))
    sim.run(until=3.0)
    assert ("child", b"indirect") in order
    child_at = order.index(("child", b"indirect"))
    # the indirect frame beat most of the backlog
    assert child_at <= 2
    assert parent.trace.counters.get("mac.preemptions") >= 0  # accounted


def test_pause_holds_all_transmissions():
    sim, medium, macs = make_macs([(0, 0), (5, 0)])
    got = []
    macs[1].on_receive = lambda p, s, f: got.append(sim.now)
    macs[0].hold(True)
    macs[0].send(b"held", 20, dst=1)
    sim.run(until=1.0)
    assert got == []
    macs[0].hold(False)  # a release starts the queued frame
    sim.run(until=2.0)
    assert len(got) == 1 and got[0] > 1.0


def test_indirect_queue_overflow_drops():
    params = MacParams(indirect_queue_limit=2)
    sim, medium, macs = make_macs([(0, 0), (5, 0)], params=params)
    parent = macs[0]
    parent.mark_sleepy_child(1)
    results = []
    for i in range(4):
        parent.send(i, 20, dst=1, on_done=results.append)
    assert len(parent._indirect[1]) == 2
    assert results.count(False) == 2
    assert parent.trace.counters.get("mac.indirect_drops") == 2


def test_deaf_csma_radio_goes_deaf_during_backoff():
    sim, medium, macs = make_macs([(0, 0), (5, 0)], deaf=True)
    states = []
    # sample radio state right after the send begins (during backoff)
    macs[0].send(b"x", 50, dst=1)

    def probe():
        states.append(macs[0].radio.energy.state)

    # SPI load takes ~2.3 ms; backoff follows
    sim.schedule(0.0028, probe)
    sim.run(until=1.0)
    assert RadioState.DEAF in states


def test_failed_indirect_frame_requeues_for_next_poll():
    params = MacParams(indirect_max_retries=1, ack_wait=0.002)
    sim, medium, macs = make_macs([(0, 0), (5, 0)], params=params)
    parent, child = macs[0], macs[1]
    parent.mark_sleepy_child(1)
    got = []
    child.on_receive = lambda p, s, f: got.append(p)
    parent.send(b"retryme", 20, dst=1)
    # first poll: child immediately sleeps, so the data frame dies
    child.send_data_request(parent=0)

    def deafen():
        child.radio.sleep()

    sim.schedule(0.012, deafen)  # right after the poll exchange
    sim.run(until=1.0)
    if not got:
        # frame failed and went back to the indirect queue
        assert len(parent._indirect[1]) == 1
        child.radio.listen()
        child.send_data_request(parent=0)
        sim.run(until=2.0)
    assert got == [b"retryme"]


def test_data_request_jumps_send_queue():
    sim, medium, macs = make_macs([(0, 0), (5, 0)])
    kinds = []
    orig = macs[0].radio.transmit

    def spy(frame, nbytes, cb, *args, **kwargs):
        kinds.append(frame.kind)
        orig(frame, nbytes, cb, *args, **kwargs)

    macs[0].radio.transmit = spy
    for i in range(3):
        macs[0].send(i, 80, dst=1)
    macs[0].send_data_request(parent=1)
    sim.run(until=2.0)
    # the data request went out before at least the queue's tail
    first_request = kinds.index(FrameKind.DATA_REQUEST)
    assert first_request <= 2


def test_preempted_frame_runs_one_csma_chain():
    """A frame preempted while it waits (CSMA backoff or retry delay)
    goes back to the queue as a fresh op: the event still pending for
    it must not find it current again later and run a second CSMA chain
    beside the one its reload starts."""
    params = MacParams(retry_delay=0.1, max_retries=2)
    sim, medium, macs = make_macs([(0, 0), (5, 0)], params=params)
    parent, child = macs
    parent.mark_sleepy_child(1)
    done = []
    parent.send(b"lost", 20, dst=9, on_done=done.append)  # nobody ACKs
    parent.send(b"parked", 20, dst=1)
    # the child polls while the first attempt's retry wait runs
    sim.schedule(0.012, child.send_data_request, 0)
    while not parent.trace.counters.get("mac.preemptions"):
        sim.run(until=sim.peek_time())
    waiting = parent._queue
    assert [op.frame.dst for op in waiting] == [9]
    assert not [ev for ev in sim.pending_events()
                if getattr(ev.fn, "__self__", None) is parent
                and ev.args and ev.args[0] in waiting]
    sim.run(until=2.0)
    assert done == [False]
    assert parent.trace.counters.get("mac.frames_tx") == params.max_retries + 2


def test_deaf_csma_radio_listens_again_after_a_csma_failure():
    """Hardware CSMA is deaf during its backoff only: a frame that
    fails channel access leaves the radio in receive mode, so the node
    still hears the frames sent to it."""
    params = MacParams(max_csma_backoffs=0, max_retries=0)
    # node 2, which only node 0 hears, jams the channel there with
    # back-to-back frames to nobody
    sim, medium, macs = make_macs([(0, 0), (5, 0), (-6, 0)], params=params,
                                  deaf=True)
    jammer = macs[2].radio
    noise = Frame(kind=FrameKind.DATA, src=2, dst=9, payload_bytes=100)
    jamming = [True]

    def jam():
        if jamming[0]:
            jammer.transmit(noise, noise.byte_size, jam)

    jam()
    done = []
    macs[0].send(b"x", 50, dst=1, on_done=done.append)
    sim.run(until=0.5)
    assert done == [False]
    assert macs[0].trace.counters.get("mac.csma_failures") == 1
    assert macs[0].radio.energy.state is RadioState.LISTEN
    jamming[0] = False
    sim.run(until=0.51)  # the last jamming frame leaves the air
    got = []
    macs[0].on_receive = lambda p, s, f: got.append(p)
    macs[1].send(b"y", 50, dst=0)
    sim.run(until=1.0)
    assert got == [b"y"]
