"""Unit tests for the discrete-event scheduler."""

import math

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "x")
    ev.cancel()
    sim.run()
    assert fired == []
    assert not ev.pending


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=3.0)
    assert fired == [1]
    assert sim.now == 3.0
    sim.run()
    assert fired == [1, 5]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.run(until=1.0)
    # NaN compares false both ways: let in, it would corrupt the heap order
    for bad in (-0.1, math.nan):
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(sim.now + bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_periodic(bad, lambda: None)
    assert sim.pending_events() == []


def test_run_until_nan_raises():
    sim = Simulator()
    sim.schedule_periodic(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(until=math.nan)  # a NaN horizon would never stop the loop
    assert (sim.now, sim.events_processed) == (0.0, 0)


def test_schedule_from_callback():
    sim = Simulator()
    times = []

    def chain(n):
        times.append(sim.now)
        if n > 0:
            sim.schedule(1.0, chain, n - 1)

    sim.schedule(0.0, chain, 3)
    sim.run()
    assert times == [0.0, 1.0, 2.0, 3.0]


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, lambda: sim.stop())
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    # run can be resumed
    sim.run()
    assert fired == [1, 3]


def test_peek_time_skips_cancelled():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    ev.cancel()
    assert sim.peek_time() == 2.0


def test_pending_count():
    sim = Simulator()
    ev1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert len(sim.pending_events()) == 2
    ev1.cancel()
    assert len(sim.pending_events()) == 1
