"""Medium behaviour: range, delivery, collisions, hidden terminals."""

import random

import pytest

from repro.mac.frame import BROADCAST, Frame, FrameKind
from repro.phy.medium import Medium, UniformLoss
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from tests.reference_medium import BruteMedium, use_brute_medium


def make_net(positions, comm_range=10.0, seed=1):
    sim = Simulator()
    medium = Medium(sim, rng=RngStreams(seed), comm_range=comm_range)
    radios = [
        Radio(sim, medium, node_id=i, position=pos)
        for i, pos in enumerate(positions)
    ]
    return sim, medium, radios


def frame(src, dst, nbytes=50):
    return Frame(
        kind=FrameKind.DATA, src=src, dst=dst, payload=b"x", payload_bytes=nbytes
    )


def test_in_range_and_neighbors():
    _, medium, _ = make_net([(0, 0), (5, 0), (20, 0)])
    assert medium.in_range(0, 1)
    assert not medium.in_range(0, 2)
    assert medium.neighbors(1) == [0]
    assert medium.neighbors(0) == [1]


def test_forced_and_blocked_links():
    _, medium, _ = make_net([(0, 0), (5, 0), (20, 0)])
    medium.force_link(0, 2)
    assert medium.in_range(0, 2) and medium.in_range(2, 0)
    medium.block_link(0, 1)
    assert not medium.in_range(0, 1)


def test_clean_delivery():
    sim, medium, radios = make_net([(0, 0), (5, 0)])
    got = []
    radios[1].on_frame = lambda f, s: got.append((f, s))
    radios[0].transmit(frame(0, 1), 73, on_done=lambda: None)
    sim.run()
    assert len(got) == 1
    assert got[0][1] == 0
    assert medium.frames_delivered == 1


def test_out_of_range_no_delivery():
    sim, medium, radios = make_net([(0, 0), (50, 0)])
    got = []
    radios[1].on_frame = lambda f, s: got.append(f)
    radios[0].transmit(frame(0, 1), 73, on_done=lambda: None)
    sim.run()
    assert got == []


def test_sleeping_radio_misses_frame():
    sim, medium, radios = make_net([(0, 0), (5, 0)])
    got = []
    radios[1].on_frame = lambda f, s: got.append(f)
    radios[1].sleep()
    radios[0].transmit(frame(0, 1), 73, on_done=lambda: None)
    sim.run()
    assert got == []


def test_radio_waking_mid_frame_misses_it():
    sim, medium, radios = make_net([(0, 0), (5, 0)])
    got = []
    radios[1].on_frame = lambda f, s: got.append(f)
    radios[1].sleep()
    radios[0].transmit(frame(0, 1), 127, on_done=lambda: None)
    # wake 1 ms into the ~8.2 ms transmission (during air time)
    sim.schedule(0.0050, radios[1].listen)
    sim.run()
    assert got == []


def test_hidden_terminal_collision():
    # 0 and 2 cannot hear each other; both can reach 1 (the middle).
    sim, medium, radios = make_net([(0, 0), (8, 0), (16, 0)])
    got = []
    radios[1].on_frame = lambda f, s: got.append(s)
    radios[0].transmit(frame(0, 1), 100, on_done=lambda: None)
    # 2 starts while 0's frame is in the air; neither carrier-senses the other
    assert not medium.carrier_busy(2) or True
    sim.schedule(0.001, lambda: radios[2].transmit(frame(2, 1), 100, lambda: None))
    sim.run()
    assert got == []  # both corrupted at node 1
    assert medium.frames_collided == 2


def test_non_overlapping_frames_both_delivered():
    sim, medium, radios = make_net([(0, 0), (8, 0), (16, 0)])
    got = []
    radios[1].on_frame = lambda f, s: got.append(s)
    radios[0].transmit(frame(0, 1), 50, on_done=lambda: None)
    sim.schedule(0.05, lambda: radios[2].transmit(frame(2, 1), 50, lambda: None))
    sim.run()
    assert sorted(got) == [0, 2]


def test_carrier_busy_during_air_phase():
    sim, medium, radios = make_net([(0, 0), (5, 0)])
    radios[0].transmit(frame(0, 1), 127, on_done=lambda: None)
    # during the SPI phase, the channel is still idle
    assert not medium.carrier_busy(1)
    seen = []
    # by mid-transmission the air phase is active
    sim.schedule(0.0060, lambda: seen.append(medium.carrier_busy(1)))
    sim.run()
    assert seen == [True]
    assert not medium.carrier_busy(1)


def test_half_duplex_transmitter_cannot_receive():
    sim, medium, radios = make_net([(0, 0), (5, 0)])
    got = []
    radios[0].on_frame = lambda f, s: got.append(f)
    radios[0].transmit(frame(0, 1), 127, on_done=lambda: None)
    sim.schedule(0.0001, lambda: radios[1].transmit(frame(1, 0), 127, lambda: None))
    sim.run()
    assert got == []  # node 0 was transmitting


def test_uniform_loss_drops_roughly_at_rate():
    sim, medium, radios = make_net([(0, 0), (5, 0)])
    rng = RngStreams(7)
    medium.loss_models.append(UniformLoss(0.5, rng))
    got = []
    radios[1].on_frame = lambda f, s: got.append(f)

    def send(n):
        if n == 0:
            return
        radios[0].transmit(frame(0, 1), 30, on_done=lambda: send(n - 1))

    send(200)
    sim.run()
    assert 60 < len(got) < 140  # ~100 expected


def test_uniform_loss_link_scoped():
    rng = RngStreams(7)
    loss = UniformLoss(1.0 - 1e-9, rng, link=(3, 4))
    assert not loss(1, 2, 0.0)
    assert loss(3, 4, 0.0)


def test_uniform_loss_validates_rate():
    with pytest.raises(ValueError):
        UniformLoss(1.5, RngStreams(0))
    with pytest.raises(ValueError):
        UniformLoss(-0.01, RngStreams(0))


def test_uniform_loss_accepts_closed_interval_boundaries():
    """rate is valid on the closed [0, 1]: 1.0 drops every frame,
    0.0 drops none (regression: 1.0 used to be rejected)."""
    always = UniformLoss(1.0, RngStreams(0))
    never = UniformLoss(0.0, RngStreams(0))
    assert all(always(0, 1, 0.0) for _ in range(50))
    assert not any(never(0, 1, 0.0) for _ in range(50))


def test_duplicate_registration_rejected():
    sim = Simulator()
    medium = Medium(sim)
    Radio(sim, medium, node_id=1, position=(0, 0))
    with pytest.raises(ValueError):
        Radio(sim, medium, node_id=1, position=(1, 1))


def test_oversized_frame_rejected():
    """Every guard of the radio's transmit path raises its declared
    error."""
    sim, medium, radios = make_net([(0, 0), (5, 0)])
    radio = radios[0]
    with pytest.raises(ValueError, match="exceeds 802.15.4 maximum"):
        radio.transmit(frame(0, 1), 200, on_done=lambda: None)
    with pytest.raises(ValueError, match="exceeds 802.15.4 maximum"):
        radio.load(200, lambda: None)
    radio.transmit(frame(0, 1), 50, lambda: None, skip_spi=True)
    with pytest.raises(RuntimeError, match="transmit while busy"):
        radio.transmit(frame(0, 1), 50, lambda: None, skip_spi=True)
    with pytest.raises(RuntimeError, match="cannot sleep while transmitting"):
        radio.sleep()
    sim.run()
    radio.sleep()  # the frame has left the air
    radio.power_off()
    with pytest.raises(RuntimeError, match="SPI load while powered off"):
        radio.load(50, lambda: None)


# ----------------------------------------------------------------------
# the radio's address filter, through each of the three delivery loops
# ----------------------------------------------------------------------
DELIVERY_LOOPS = ("unobserved", "observed", "brute")


def _overhearing_net(loop):
    """Three radios in mutual range; each logs the frames it reads out."""
    sim, medium, radios = make_net([(0, 0), (5, 0), (0, 5)])
    if loop == "brute":
        use_brute_medium(medium)
    elif loop == "observed":
        medium.frame_filters.append(lambda f, src, dst: False)
    heard = {r.node_id: [] for r in radios}
    for r in radios:
        r.on_frame = lambda f, s, log=heard[r.node_id]: log.append(f)
    return sim, medium, radios, heard


@pytest.mark.parametrize("loop", DELIVERY_LOOPS)
def test_address_filter_keeps_an_overheard_frame_from_the_mcu(loop):
    sim, medium, radios, heard = _overhearing_net(loop)
    unicast = frame(0, 1)
    radios[0].transmit(unicast, unicast.byte_size, lambda: None, skip_spi=True)
    sim.run()
    # both neighbours received it cleanly as far as the channel knows
    assert medium.frames_delivered == 2 and medium.frames_collided == 0
    assert heard == {0: [], 1: [unicast], 2: []}
    assert radios[1].frames_received == 1 and radios[1].cpu.busy_time() > 0
    # the bystander never read it out: no SPI time, no upcall, no count
    assert radios[2].frames_received == 0
    assert radios[2].cpu.busy_time() == 0.0
    # a broadcast, and a frame object with nothing to match, pass everywhere
    for everyone in (frame(0, BROADCAST), object()):
        radios[0].transmit(everyone, 73, lambda: None, skip_spi=True)
        sim.run()
        assert heard[1][-1] is everyone and heard[2][-1] is everyone
    assert medium.frames_delivered == 6
    assert (radios[1].frames_received, radios[2].frames_received) == (3, 2)


@pytest.mark.parametrize("loop", DELIVERY_LOOPS)
def test_address_filter_passes_an_imm_ack_only_where_it_is_awaited(loop):
    sim, medium, radios, heard = _overhearing_net(loop)
    # an Imm-ACK carries no address on the wire: ``dst`` must not matter
    ack = Frame(kind=FrameKind.ACK, src=0, dst=1, seq=7, ack_request=False)
    radios[2].ack_seq = 7   # in an ack-wait on that number
    radios[1].ack_seq = 8   # waiting for another one; radio 0 for none
    radios[0].transmit(ack, ack.byte_size, lambda: None, skip_spi=True)
    sim.run()
    assert medium.frames_delivered == 2
    assert heard == {0: [], 1: [], 2: [ack]}
    assert radios[1].frames_received == 0 and radios[1].cpu.busy_time() == 0.0
    assert radios[2].accepts(ack) and not radios[1].accepts(ack)
    assert not radios[0].accepts(ack)


# ----------------------------------------------------------------------
# spatial index: grid-bucketed adjacency must equal the pairwise sweep
# ----------------------------------------------------------------------
def _random_positions(n, side, seed):
    rng = RngStreams(seed)
    return [(rng.uniform("pos", 0.0, side), rng.uniform("pos", 0.0, side))
            for _ in range(n)]


def _build_both(positions, comm_range=10.0, mutate=None):
    """The same topology through the spatial-index and brute paths."""
    mediums = []
    for medium_cls in (Medium, BruteMedium):
        sim = Simulator()
        medium = medium_cls(sim, rng=RngStreams(1), comm_range=comm_range)
        for i, pos in enumerate(positions):
            Radio(sim, medium, node_id=i, position=pos)
        if mutate is not None:
            mutate(medium)
        mediums.append(medium)
    return mediums


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_spatial_index_matches_brute_force_random(seed):
    positions = _random_positions(80, side=60.0, seed=seed)
    grid, brute = _build_both(positions)
    assert grid.neighbor_sets == brute.neighbor_sets
    for node in range(80):
        assert grid.neighbors(node) == brute.neighbors(node)


def test_spatial_index_matches_with_forced_and_blocked_links():
    positions = _random_positions(50, side=45.0, seed=7)

    def mutate(medium):
        medium.force_link(0, 49)      # out-of-range pair, forced on
        medium.block_link(1, 2)
        # a pair that is both forced and blocked: blocked wins
        medium.force_link(5, 6)
        medium.block_link(5, 6)

    grid, brute = _build_both(positions, mutate=mutate)
    assert grid.neighbor_sets == brute.neighbor_sets
    assert grid.in_range(0, 49) and grid.in_range(49, 0)
    assert not grid.in_range(5, 6)


def test_spatial_index_forced_id_without_radio():
    # A forced link may name an id with no registered radio (the wired
    # cloud pattern); the grid path answers in_range() truthfully for
    # it.  Grid-only: the brute-force sweep predates this and raises
    # KeyError looking up a position for the unregistered id.
    sim = Simulator()
    medium = Medium(sim, rng=RngStreams(3), comm_range=10.0)
    for i in range(4):
        Radio(sim, medium, node_id=i, position=(3.0 * i, 0.0))
    medium.force_link(3, 1000)
    assert medium.in_range(3, 1000) and medium.in_range(1000, 3)
    assert not medium.in_range(2, 1000)
    assert 1000 in medium.neighbor_sets[3]


def test_spatial_index_boundary_distance_exact():
    # nodes exactly comm_range apart are in range on both paths
    positions = [(0.0, 0.0), (10.0, 0.0), (10.0 + 1e-9, 10.0)]
    grid, brute = _build_both(positions, comm_range=10.0)
    assert grid.neighbor_sets == brute.neighbor_sets
    assert grid.in_range(0, 1)


def test_spatial_index_zero_range_leaves_only_forced_links():
    # no cell size follows from comm_range=0; co-located nodes are still
    # in range (distance 0 <= 0) and forced links still answer
    positions = [(0.0, 0.0), (0.0, 0.0), (3.0, 4.0), (-2.5, 7.0)]
    grid, brute = _build_both(
        positions, comm_range=0.0, mutate=lambda m: m.force_link(2, 3))
    assert grid.neighbor_sets == brute.neighbor_sets
    assert grid.neighbor_sets == {0: {1}, 1: {0}, 2: {3}, 3: {2}}


def test_spatial_index_cross_cell_neighbors():
    # in range but in different grid cells (straddling a cell border)
    positions = [(9.9, 0.0), (10.1, 0.0), (19.0, 9.5), (-0.5, -0.5)]
    grid, brute = _build_both(positions, comm_range=10.0)
    assert grid.neighbor_sets == brute.neighbor_sets


def test_spatial_index_invalidated_on_register():
    sim = Simulator()
    medium = Medium(sim, rng=RngStreams(1), comm_range=10.0)
    Radio(sim, medium, node_id=0, position=(0.0, 0.0))
    Radio(sim, medium, node_id=1, position=(5.0, 0.0))
    assert medium.neighbor_sets[0] == {1}
    rebuilds = medium.cache_rebuilds
    Radio(sim, medium, node_id=2, position=(0.0, 5.0))
    assert medium.neighbor_sets[0] == {1, 2}
    assert medium.cache_rebuilds == rebuilds + 1


# ----------------------------------------------------------------------
# per-receiver channel state: must equal the brute-force oracle
# ----------------------------------------------------------------------
def _drive_random_schedule(medium_cls, seed):
    """One random grid under one random schedule of overlapping frames
    and mid-flight topology faults; everything observable is logged."""
    rng = random.Random(seed)
    cols, rows = rng.randint(2, 6), rng.randint(2, 6)
    # 6 m puts diagonals in range of each other (10 m), 8 m does not
    spacing = rng.choice((6.0, 8.0))
    sim = Simulator()
    medium = medium_cls(sim, rng=RngStreams(1), comm_range=10.0)
    radios = [
        Radio(sim, medium, node_id=i,
              position=(spacing * (i % cols), spacing * (i // cols)))
        for i in range(cols * rows)
    ]
    nodes = range(len(radios))
    log = []
    for radio in radios:
        radio.on_frame = (lambda f, s, me=radio.node_id:
                          log.append(("rx", sim.now, me, s, f)))
    txs = []

    def begin(sender, air_time):
        txs.append(medium.begin_transmission(
            radios[sender], len(txs), air_time))

    def sense():
        log.append(("cs", sim.now,
                    [medium.carrier_busy(n) for n in nodes]))

    at = 0.0
    for _ in range(rng.randint(30, 80)):
        at += rng.choice((0.0, 0.0003, 0.001, 0.004))
        roll = rng.random()
        a, b = rng.sample(nodes, 2)
        if roll < 0.65:
            sim.schedule_at(at, begin, a, rng.choice((0.0005, 0.002, 0.006)))
        elif roll < 0.75:
            sim.schedule_at(at, medium.block_link, a, b)
        elif roll < 0.83:
            sim.schedule_at(at, medium.unblock_link, a, b)
        elif roll < 0.92:
            sim.schedule_at(at, medium.force_link, a, b)
        else:
            sim.schedule_at(at, medium.drop_in_flight, a)
        if rng.random() < 0.5:  # else the next frame edge rebuilds
            sim.schedule_at(at, sense)
    sim.run()
    assert not medium._active
    return log, [sorted(tx.spoiled) for tx in txs], medium


@pytest.mark.parametrize("seed", range(25))
def test_receiver_channel_state_matches_brute_force(seed):
    log, spoiled, medium = _drive_random_schedule(Medium, seed)
    ref_log, ref_spoiled, _ = _drive_random_schedule(BruteMedium, seed)
    assert spoiled == ref_spoiled
    assert log == ref_log  # carrier sense answers and delivery order
    assert any(spoiled) and any(entry[0] == "rx" for entry in log)
    # nothing stays audible once the air is idle
    assert not any(medium.carrier_busy(n) for n in medium.radios)


def _entries(value, seen):
    """Entries held in a container and the containers inside it, each
    container counted once however many others share it."""
    if isinstance(value, dict):
        inner = value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        inner = value
    else:
        return 0
    if id(value) in seen:
        return 0
    seen.add(id(value))
    return len(value) + sum(_entries(v, seen) for v in inner)


def test_medium_state_does_not_grow_with_concurrent_sender_pairs():
    """Scale guard without a clock: many far-apart senders on the air
    at once must cost nothing per *pair* of them."""
    side = 30
    sim, medium, radios = make_net(
        [(8.0 * (i % side), 8.0 * (i // side)) for i in range(side * side)])
    degree = max(len(hearers) for hearers in medium.neighbor_sets.values())

    def held():
        seen = set()
        return sum(_entries(v, seen) for k, v in vars(medium).items()
                   if k not in ("radios", "positions"))

    idle = held()
    # adjacency as sets and as the channel table (a row entry plus its
    # three-field tuple per hearer) plus the audible lists
    assert idle <= 6 * len(radios) * degree
    # every third node of every third row: 100 senders, no common hearer
    senders = [radios[r * side + c]
               for r in range(0, side, 3) for c in range(0, side, 3)]
    for round_ in range(3):
        for radio in senders:
            medium.begin_transmission(radio, round_, 0.004)
        assert len(medium._active) == len(senders)
        # 4,950 sender pairs are on the air: each frame costs its own
        # entry and one per hearer, each pair nothing
        assert held() - idle <= len(senders) * (degree + 1)
        sim.run()
        assert held() == idle
    assert medium.frames_collided == 0
    assert medium.frames_delivered == 3 * sum(
        len(medium.neighbors(r.node_id)) for r in senders)
