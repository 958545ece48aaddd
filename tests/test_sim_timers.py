"""Unit tests for restartable timers."""

from repro.sim.engine import Simulator
from repro.sim.timers import Timer


def test_timer_fires_once():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.start(1.5)
    sim.run()
    assert fired == [1.5]
    assert not t.armed


def test_timer_restart_supersedes():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.start(1.0)
    t.start(2.0)  # restart pushes expiry out
    sim.run()
    assert fired == [2.0]


def test_timer_stop():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.start(1.0)
    t.stop()
    sim.run()
    assert fired == []


def test_start_if_idle_does_not_restart():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.start(1.0)
    t.start_if_idle(5.0)
    sim.run()
    assert fired == [1.0]


def test_remaining_and_expiry():
    sim = Simulator()
    t = Timer(sim, lambda: None)
    assert t.expiry is None
    t.start(2.0)
    assert t.expiry - sim.now == 2.0
    assert t.expiry == 2.0


def test_timer_rearm_from_callback():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: None)

    def cb():
        fired.append(sim.now)
        if len(fired) < 3:
            t.start(1.0)

    t.callback = cb
    t.start(1.0)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]
