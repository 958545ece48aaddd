"""Sleepy end device: polling, fast-poll, adaptive interval, slotting."""

from repro.mac.link import MacLayer
from repro.mac.poll import PollParams, SleepyEndDevice
from repro.phy.energy import RadioState
from repro.phy.medium import Medium
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


def make_pair(poll_params):
    sim = Simulator()
    rng = RngStreams(5)
    medium = Medium(sim, rng=rng, comm_range=10.0)
    parent_radio = Radio(sim, medium, 0, (0, 0))
    child_radio = Radio(sim, medium, 1, (5, 0))
    parent = MacLayer(sim, parent_radio, rng)
    child = MacLayer(sim, child_radio, rng)
    parent.mark_sleepy_child(1)
    device = SleepyEndDevice(sim, child, parent=0, params=poll_params)
    return sim, parent, child, device


def test_sleeps_between_polls():
    sim, parent, child, device = make_pair(PollParams(poll_interval=10.0))
    sim.run(until=5.0)
    assert child.radio.state is RadioState.SLEEP


def test_poll_retrieves_parked_frame():
    sim, parent, child, device = make_pair(PollParams(poll_interval=2.0))
    got = []
    child.on_receive = lambda p, s, f: got.append(p)
    parent.send(b"down", 20, dst=1)
    sim.run(until=1.0)
    assert got == []
    sim.run(until=3.0)  # past the poll
    assert got == [b"down"]
    # radio back asleep after the exchange (before the next poll at t=4)
    sim.run(until=3.9)
    assert child.radio.state is RadioState.SLEEP


def test_fast_poll_reduces_latency():
    sim, parent, child, device = make_pair(
        PollParams(poll_interval=100.0, fast_poll_interval=0.1)
    )
    got = []
    child.on_receive = lambda p, s, f: got.append((sim.now, p))
    device.set_fast_poll(True)
    sim.run(until=0.5)
    parent.send(b"x", 10, dst=1)
    sim.run(until=2.0)
    assert got and got[0][0] < 1.0


def test_fast_poll_off_returns_to_slow_and_sleeps():
    sim, parent, child, device = make_pair(
        PollParams(poll_interval=50.0, fast_poll_interval=0.1)
    )
    device.set_fast_poll(True)
    sim.run(until=1.0)
    device.set_fast_poll(False)
    sim.run(until=2.0)
    assert child.radio.state is RadioState.SLEEP
    assert device.sleep_interval == 50.0


def test_duty_cycle_scales_with_interval():
    results = {}
    for interval in (0.1, 1.0):
        sim, parent, child, device = make_pair(
            PollParams(poll_interval=interval)
        )
        sim.run(until=30.0)
        results[interval] = child.radio.energy.radio_duty_cycle()
    assert results[0.1] > 3 * results[1.0]


def test_adaptive_interval_grows_when_idle():
    sim, parent, child, device = make_pair(
        PollParams(adaptive=True, smin=0.05, smax=2.0)
    )
    sim.run(until=30.0)
    assert device.sleep_interval == 2.0


def test_adaptive_interval_resets_on_downstream_packet():
    sim, parent, child, device = make_pair(
        PollParams(adaptive=True, smin=0.05, smax=2.0)
    )
    sim.run(until=20.0)
    assert device.sleep_interval == 2.0
    parent.send(b"x", 10, dst=1)
    sim.run(until=25.0)
    assert (device.sleep_interval < 2.0
            or child.trace.counters.get("mac.polls_sent") > 10)


def test_uplink_any_time_even_while_duty_cycled():
    sim, parent, child, device = make_pair(PollParams(poll_interval=60.0))
    got = []
    parent.on_receive = lambda p, s, f: got.append((sim.now, p))
    sim.schedule(5.0, lambda: (device.notify_tx_pending(),
                               child.send(b"up", 10, dst=0)))
    sim.run(until=6.0)
    assert got and got[0][0] < 5.5


def test_hold_uplink_while_listening():
    sim, parent, child, device = make_pair(
        PollParams(poll_interval=1.0, listen_window=0.2,
                   hold_uplink_while_listening=True)
    )
    downs = []
    ups = []
    child.on_receive = lambda p, s, f: downs.append(sim.now)
    parent.on_receive = lambda p, s, f: ups.append(sim.now)
    # park two downlink frames, and queue an uplink frame at poll time
    parent.send(b"d1", 20, dst=1)
    parent.send(b"d2", 20, dst=1)

    def queue_up():
        child.send(b"up", 10, dst=0)

    sim.schedule(1.001, queue_up)  # right as the poll begins
    sim.run(until=3.0)
    assert len(downs) == 2
    assert len(ups) == 1
    # the uplink frame waited for the listen phase to finish
    assert ups[0] >= downs[-1]
    assert not child.paused


def test_data_request_timeout_counted():
    sim, parent, child, device = make_pair(
        PollParams(poll_interval=1.0, listen_window=0.05)
    )
    # disconnect the parent so polls fail
    parent.radio.medium.block_link(0, 1)
    sim.run(until=5.0)
    assert child.trace.counters.get("mac.poll_timeouts") >= 3
