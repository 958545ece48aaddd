"""Link-layer behaviour: delivery, ACKs, retries, dedup, hidden terminals."""

import pytest

from repro.mac.frame import BROADCAST, Frame, FrameKind
from repro.mac.link import MacLayer, MacParams
from repro.phy.energy import RadioState
from repro.phy.medium import Medium
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus


def make_macs(positions, comm_range=10.0, seed=3, params=None, deaf=False):
    sim = Simulator()
    rng = RngStreams(seed)
    medium = Medium(sim, rng=rng, comm_range=comm_range)
    macs = []
    for i, pos in enumerate(positions):
        radio = Radio(sim, medium, node_id=i, position=pos, deaf_csma=deaf)
        macs.append(MacLayer(sim, radio, rng, params=params or MacParams()))
    return sim, medium, macs


def test_unicast_delivery_and_ack():
    sim, medium, macs = make_macs([(0, 0), (5, 0)])
    got = []
    done = []
    macs[1].on_receive = lambda p, s, f: got.append((p, s))
    macs[0].send(b"hello", 5, dst=1, on_done=done.append)
    sim.run()
    assert got == [(b"hello", 0)]
    assert done == [True]
    assert macs[0].trace.counters.get("mac.tx_success") == 1


def test_queue_serialises_frames_in_order():
    sim, medium, macs = make_macs([(0, 0), (5, 0)])
    got = []
    macs[1].on_receive = lambda p, s, f: got.append(p)
    for i in range(5):
        macs[0].send(i, 50, dst=1)
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_tail_drop_beyond_queue_limit():
    params = MacParams(tx_queue_limit=2)
    sim, medium, macs = make_macs([(0, 0), (5, 0)], params=params)
    results = []
    for i in range(5):
        macs[0].send(i, 50, dst=1, on_done=results.append)
    # 1 in flight + 2 queued accepted; but the first send may already be
    # in flight when the rest arrive, so at least one drop occurs
    assert macs[0].trace.counters.get("mac.tail_drops") >= 1
    sim.run()
    assert results.count(False) == macs[0].trace.counters.get("mac.tail_drops")


def test_a_refused_frame_is_emitted_on_the_trace_bus():
    """Each refusal names its queue and the frame's destination on an
    attached trace bus, next to its counter."""
    sim = Simulator()
    sim.trace_bus = TraceBus(sim)
    rng = RngStreams(3)
    medium = Medium(sim, rng=rng)
    macs = [MacLayer(sim, Radio(sim, medium, node_id=i, position=(5 * i, 0)),
                     rng, params=MacParams(tx_queue_limit=1,
                                           indirect_queue_limit=1))
            for i in range(2)]
    macs[0].mark_sleepy_child(1)
    results = []
    # parked, refused; in flight, queued, refused
    for dst in (1, 1, 9, 9, 9):
        macs[0].send(b"x", 20, dst=dst, on_done=results.append)
    drops = [(e.layer, e.node, e.kind, e.fields)
             for e in sim.trace_bus.events if e.kind.endswith("_drop")]
    assert drops == [("mac", 0, "indirect_drop", {"dst": 1}),
                     ("mac", 0, "tail_drop", {"dst": 9})]
    assert results == [False, False]


def test_retry_on_lost_frame_succeeds():
    sim, medium, macs = make_macs([(0, 0), (5, 0)])
    # drop the first data frame copy; the retry gets through
    class OneShotLoss:
        def __init__(self):
            self.dropped = False
        def __call__(self, s, r, now):
            if not self.dropped and r == 1:
                self.dropped = True
                return True
            return False
    medium.loss_models.append(OneShotLoss())
    got = []
    macs[1].on_receive = lambda p, s, f: got.append(p)
    done = []
    macs[0].send(b"x", 20, dst=1, on_done=done.append)
    sim.run()
    assert got == [b"x"]
    assert done == [True]
    assert macs[0].trace.counters.get("mac.link_retries") >= 1


def test_permanent_loss_exhausts_retries():
    params = MacParams(max_retries=3)
    sim, medium, macs = make_macs([(0, 0), (5, 0)], params=params)
    medium.loss_models.append(lambda s, r, now: r == 1)  # child never hears
    done = []
    macs[0].send(b"x", 20, dst=1, on_done=done.append)
    sim.run()
    assert done == [False]
    assert macs[0].trace.counters.get("mac.tx_failures") == 1


def test_duplicate_suppression_when_ack_lost():
    sim, medium, macs = make_macs([(0, 0), (5, 0)])
    # drop ACKs (frames toward node 0) once
    class AckLoss:
        def __init__(self):
            self.count = 0
        def __call__(self, s, r, now):
            if r == 0 and self.count < 1:
                self.count += 1
                return True
            return False
    medium.loss_models.append(AckLoss())
    got = []
    macs[1].on_receive = lambda p, s, f: got.append(p)
    macs[0].send(b"x", 20, dst=1)
    sim.run()
    assert got == [b"x"]  # delivered exactly once despite retransmission
    assert macs[1].trace.counters.get("mac.duplicates") >= 1


def test_broadcast_no_ack_no_retry():
    sim, medium, macs = make_macs([(0, 0), (5, 0), (5, 5)])
    got = []
    macs[1].on_receive = lambda p, s, f: got.append((1, p))
    macs[2].on_receive = lambda p, s, f: got.append((2, p))
    done = []
    macs[0].send(b"b", 20, dst=BROADCAST, on_done=done.append)
    sim.run()
    assert sorted(got) == [(1, b"b"), (2, b"b")]
    assert done == [True]
    assert macs[0].trace.counters.get("mac.ack_timeouts") == 0


def test_hidden_terminal_losses_reduced_by_retry_delay():
    """§7.1: a random inter-retry delay defuses hidden-terminal collisions."""
    def run(delay):
        params = MacParams(retry_delay=delay, max_retries=7)
        sim, medium, macs = make_macs(
            [(0, 0), (8, 0), (16, 0)], params=params, seed=11
        )
        got = []
        macs[1].on_receive = lambda p, s, f: got.append(p)
        n = 40
        fails = []

        def send_from(mac, idx, left):
            if left == 0:
                return
            mac.send((idx, left), 100, dst=1,
                     on_done=lambda ok: (fails.append(ok), send_from(mac, idx, left - 1)))

        send_from(macs[0], 0, n)
        send_from(macs[2], 2, n)
        sim.run()
        return len(got), fails.count(False)

    delivered_d0, failed_d0 = run(0.0)
    delivered_d40, failed_d40 = run(0.04)
    assert delivered_d40 >= delivered_d0
    assert failed_d40 <= failed_d0


def test_csma_defers_to_busy_channel():
    # Node 2 transmits a long frame; node 0's CSMA should defer, so both
    # frames are delivered to node 1 without collision.
    sim, medium, macs = make_macs([(0, 0), (5, 0), (5, 5)])
    got = []
    macs[1].on_receive = lambda p, s, f: got.append(p)
    macs[2].send(b"long", 100, dst=1)
    sim.schedule(0.0095, lambda: macs[0].send(b"short", 20, dst=1))
    sim.run()
    assert sorted(got) == [b"long", b"short"]


def test_sleepy_child_indirect_queue():
    sim, medium, macs = make_macs([(0, 0), (5, 0)])
    parent, child_mac = macs[0], macs[1]
    parent.mark_sleepy_child(1)
    got = []
    child_mac.on_receive = lambda p, s, f: got.append(p)
    parent.send(b"down", 30, dst=1)
    # frame parks on the indirect queue; nothing transmits yet
    sim.run(until=1.0)
    assert got == []
    assert len(parent._indirect[1]) == 1
    # child polls; the parent releases the queue
    child_mac.send_data_request(parent=0)
    sim.run(until=2.0)
    assert got == [b"down"]
    assert len(parent._indirect[1]) == 0


def test_poll_ack_carries_pending_bit():
    sim, medium, macs = make_macs([(0, 0), (5, 0)])
    parent, child = macs[0], macs[1]
    parent.mark_sleepy_child(1)
    pendings = []
    child.on_poll_ack = pendings.append
    # empty queue: pending False
    child.send_data_request(parent=0)
    sim.run(until=0.5)
    assert pendings == [False]
    parent.send(b"d", 10, dst=1)
    child.send_data_request(parent=0)
    sim.run(until=1.0)
    assert pendings == [False, True]


def test_multiple_indirect_frames_drain_with_pending_bits():
    sim, medium, macs = make_macs([(0, 0), (5, 0)])
    parent, child = macs[0], macs[1]
    parent.mark_sleepy_child(1)
    got = []
    pendings = []
    child.on_receive = lambda p, s, f: got.append(p)
    child.on_data_pending = pendings.append
    for i in range(3):
        parent.send(i, 30, dst=1)
    child.send_data_request(parent=0)
    sim.run(until=2.0)
    assert got == [0, 1, 2]
    assert pendings == [True, True, False]


# ----------------------------------------------------------------------
# the radio's address filter, as the MAC drives it
# ----------------------------------------------------------------------
def _run_to_ack_wait(sim, mac):
    """Advance to the first instant ``mac`` waits for a link ACK."""
    while mac.radio.ack_seq is None:
        assert sim.now < 1.0, "never entered an ack-wait"
        sim.run(until=sim.now + 1e-5)


def test_address_filter_spares_a_bystander_the_frame_and_its_ack():
    sim, medium, macs = make_macs([(0, 0), (5, 0), (0, 5)])
    got = []
    macs[2].on_receive = lambda p, s, f: got.append(p)
    macs[0].send(b"x", 20, dst=1)
    sim.run()
    assert macs[0].trace.counters.get("mac.tx_success") == 1
    # the channel delivered both frames to both of their hearers ...
    assert medium.frames_delivered == 4
    # ... and node 2 was interrupted by neither
    bystander = macs[2].radio
    assert got == [] and bystander.frames_received == 0
    assert bystander.cpu.busy_time() == 0.0
    assert macs[0].radio.frames_received == macs[1].radio.frames_received == 1


def test_address_filter_ack_window_is_exactly_the_ack_wait():
    sim, medium, macs = make_macs([(0, 0), (5, 0)])
    mac, radio = macs[0], macs[0].radio
    # matched ACK
    mac.send(b"x", 20, dst=1)
    assert radio.ack_seq is None  # loading, CSMA and air time are no ack-wait
    _run_to_ack_wait(sim, mac)
    assert radio.ack_seq == mac._current.frame.seq
    sim.run()
    assert mac.trace.counters.get("mac.tx_success") == 1
    assert radio.ack_seq is None
    # timeout: nobody answers for node 9; closed between the retries too
    mac.params.retry_delay = 0.04
    mac.send(b"y", 20, dst=9)
    _run_to_ack_wait(sim, mac)
    sim.run(until=sim.now + mac.params.ack_wait)
    assert mac.trace.counters.get("mac.ack_timeouts") == 1
    assert radio.ack_seq is None and mac._current is not None
    sim.run()
    assert mac.trace.counters.get("mac.tx_failures") == 1
    assert radio.ack_seq is None
    # reset (node crash) in the middle of a wait
    mac.send(b"z", 20, dst=1)
    _run_to_ack_wait(sim, mac)
    mac.reset()
    assert radio.ack_seq is None
    # broadcasts ask for no ACK and open no window
    mac.send(b"b", 20, dst=BROADCAST)
    sim.run()
    assert radio.ack_seq is None


def test_address_filter_false_positive_on_a_shared_sequence_number():
    """Imm-ACKs carry no address, so a radio waiting on the same
    sequence number cannot tell a neighbour's ACK from its own: the
    false positive of the hardware, kept."""
    sim, medium, macs = make_macs([(0, 0), (5, 0), (0, 5)])
    done = []
    macs[2].send(b"into the void", 20, dst=9, on_done=done.append)
    _run_to_ack_wait(sim, macs[2])
    seq = macs[2].radio.ack_seq
    # node 1 acknowledges somebody else's frame with that number
    ack = Frame(kind=FrameKind.ACK, src=1, dst=0, seq=seq, ack_request=False)
    macs[1].radio.transmit(ack, ack.byte_size, lambda: None)
    sim.run()
    assert done == [True]
    assert macs[2].trace.counters.get("mac.ack_timeouts") == 0
    assert macs[2].radio.ack_seq is None
    # node 0 heard the same ACK outside any ack-wait and ignored it
    assert macs[0].radio.frames_received == 0
    # with another number the wait runs out and the frame fails
    macs[2].send(b"again", 20, dst=9, on_done=done.append)
    _run_to_ack_wait(sim, macs[2])
    ack = Frame(kind=FrameKind.ACK, src=1, dst=0,
                seq=(macs[2].radio.ack_seq + 1) & 0xFF, ack_request=False)
    macs[1].radio.transmit(ack, ack.byte_size, lambda: None)
    sim.run()
    assert done == [True, False]


def test_a_backoff_during_its_own_link_ack_leaves_the_ack_on_the_air():
    """A node whose CSMA starts while it sends a link ACK leaves its
    radio alone: the energy ledger books the whole ACK as TX, not the
    rest of it as LISTEN."""
    def run(send_at=None):
        sim, medium, macs = make_macs([(0, 0), (5, 0)])
        macs[0].send(b"data", 50, dst=1)
        if send_at is not None:
            sim.schedule_at(send_at, macs[1].send, b"own", 20, 0)
        radio = macs[1].radio
        while not radio._tx_busy:  # until node 1's ACK goes on the air
            sim.run(until=sim.peek_time())
        return sim, macs, radio

    sim, _, radio = run()
    ack_start = sim.now
    # node 1's own frame finishes its SPI load 0.1 ms into that ACK, so
    # its first backoff starts while the ACK is on the air
    load = ((radio._air_base + (23 + 20) * radio._air_per_byte)
            * radio._spi_factor)
    sim, macs, radio = run(send_at=ack_start + 1e-4 - load)
    assert sim.now == ack_start
    backoffs = macs[1].trace.counters.get("mac.csma_backoffs")
    sim.run(until=ack_start + 2e-4)
    assert macs[1].trace.counters.get("mac.csma_backoffs") > backoffs
    assert radio._tx_busy
    sim.run(until=1.0)
    assert macs[1].trace.counters.get("mac.tx_success") == 1
    ack_air = radio._air_base + 5 * radio._air_per_byte
    own_air = radio._air_base + (23 + 20) * radio._air_per_byte
    tx_time = radio.energy._settled()[RadioState.TX]
    assert tx_time == pytest.approx(ack_air + own_air, rel=1e-9)

