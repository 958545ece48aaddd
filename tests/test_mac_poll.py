"""Sleepy end device: polling, fast-poll, adaptive interval, slotting."""

import math

import pytest

from repro.mac.link import MacLayer
from repro.mac.poll import PollParams, SleepyEndDevice
from repro.phy.energy import RadioState
from repro.phy.medium import Medium
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus


def make_pair(poll_params, bus=False):
    sim = Simulator()
    if bus:
        sim.trace_bus = TraceBus(sim)
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
    assert child.radio.energy.state is RadioState.SLEEP


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
    assert child.radio.energy.state is RadioState.SLEEP


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
    assert child.radio.energy.state is RadioState.SLEEP
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


def _lose_announced_frame(poll_params):
    """The parent parks two frames; the child polls fast, and the
    parent reboots as soon as the first arrives, losing the second
    that the first's pending bit announced."""
    sim, parent, child, device = make_pair(poll_params)
    got = []

    def reboot_parent():  # the second frame dies with the parent
        parent.radio.power_off()
        parent.reset()
        parent.radio.power_on()

    def on_receive(payload, src, frame):
        got.append(payload)
        sim.schedule(0.0, reboot_parent)

    child.on_receive = on_receive
    parent.send(b"d1", 20, dst=1)
    parent.send(b"d2", 20, dst=1)
    device.set_fast_poll(True)
    sim.run(until=1.0)
    assert got == [b"d1"]
    child.radio.energy.reset()
    sim.run(until=2.0)
    return child


def test_listen_ends_when_the_announced_frame_never_comes():
    """The parent's ACK to the next poll says nothing is pending, and
    the child goes back to sleeping between polls instead of listening
    until some frame arrives."""
    child = _lose_announced_frame(PollParams(poll_interval=1.0))
    assert child.radio.energy.radio_duty_cycle() < 0.2


def test_fast_polls_do_not_prolong_a_held_listen():
    """Holding uplink while it listens (Appendix C.1) holds the child's
    data requests too, so only the listen window can end the listen: a
    poll that re-armed the poll guard on top of it kept the listen, and
    the hold, going as long as fast polls came."""
    child = _lose_announced_frame(PollParams(
        poll_interval=1.0, listen_window=0.15,
        hold_uplink_while_listening=True))
    assert not child.paused and len(child._queue) <= 1
    assert child.radio.energy.radio_duty_cycle() < 0.2


@pytest.mark.parametrize("field, kwargs", [
    ("poll_interval", {"poll_interval": 0}),
    ("fast_poll_interval", {"fast_poll_interval": -0.1}),
    ("listen_window", {"listen_window": math.nan}),
    ("smin", {"smin": 0.0}),
    ("smax", {"smax": math.inf}),
    ("smin", {"adaptive": True, "smin": 2.0, "smax": 1.0}),
])
def test_poll_params_refuse_a_bad_interval_naming_the_field(field, kwargs):
    """A zero interval used to surface only at make_sleepy, as the
    kernel's schedule_periodic error."""
    with pytest.raises(ValueError, match=f"^PollParams.{field}: "):
        PollParams(**kwargs)


def test_poll_ack_and_timeout_reach_the_trace_bus():
    """A child's poll answered by its parent emits ``mac/poll_ack``
    with the pending bit and the poll's latency; a poll nobody answers
    emits ``mac/poll_timeout`` when its window closes."""
    sim, parent, child, device = make_pair(PollParams(poll_interval=1.0),
                                           bus=True)
    parent.send(b"down", 20, dst=1)
    sim.run(until=2.5)  # two polls: one finds the frame, one nothing
    acks = [e for e in sim.trace_bus.events if e.kind == "poll_ack"]
    assert [(e.layer, e.node, e.fields["pending"]) for e in acks] == [
        ("mac", 1, True), ("mac", 1, False)]
    assert all(0 < e.fields["latency"] < 0.05 for e in acks)
    parent.radio.power_off()
    sim.run(until=3.5)  # the third poll goes unanswered
    [timeout] = [e for e in sim.trace_bus.events
                 if e.kind == "poll_timeout"]
    assert (timeout.layer, timeout.node, timeout.fields) == ("mac", 1, {})
    assert timeout.time == pytest.approx(3.0 + 4 * 0.1, abs=0.05)
    assert child.trace.counters.get("mac.poll_timeouts") == 1
