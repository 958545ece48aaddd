"""Radio-state ledger and CPU meter accounting."""

import pytest

from repro.phy.energy import CpuMeter, EnergyLedger, RadioState
from repro.sim.engine import Simulator


def test_ledger_accumulates_state_time():
    sim = Simulator()
    ledger = EnergyLedger(sim)  # starts in LISTEN
    sim.now = 2.0
    ledger.transition(RadioState.SLEEP)
    sim.now = 5.0
    ledger.transition(RadioState.TX)
    sim.now = 6.0
    totals = ledger._settled()
    assert totals[RadioState.LISTEN] == pytest.approx(2.0)
    assert totals[RadioState.SLEEP] == pytest.approx(3.0)
    assert totals[RadioState.TX] == pytest.approx(1.0)


def test_radio_duty_cycle_excludes_sleep():
    sim = Simulator()
    ledger = EnergyLedger(sim)
    sim.now = 1.0
    ledger.transition(RadioState.SLEEP)
    sim.now = 10.0
    # awake 1 s of 10 s
    assert ledger.radio_duty_cycle() == pytest.approx(0.1)


@pytest.mark.parametrize("tx_at, listen_at, now", [
    (0.1, 0.2, 1.1),  # the per-state sum reads one ulp over 1
    (0.1, 1.1, 1.3),  # ... and here under it
])
def test_radio_that_never_slept_reads_exactly_one(tx_at, listen_at, now):
    sim = Simulator()
    ledger = EnergyLedger(sim)
    sim.now = tx_at
    ledger.transition(RadioState.TX)
    sim.now = listen_at
    ledger.transition(RadioState.LISTEN)
    sim.now = now
    assert ledger.radio_duty_cycle() == 1.0


def test_deaf_state_counts_as_awake_but_not_receiving():
    sim = Simulator()
    ledger = EnergyLedger(sim)
    ledger.transition(RadioState.DEAF)
    sim.now = 4.0
    ledger.transition(RadioState.SLEEP)
    sim.now = 10.0
    # deaf 4 s of 10 s: awake for the duty cycle
    assert ledger.radio_duty_cycle() == pytest.approx(0.4)


def test_ledger_reset():
    sim = Simulator()
    ledger = EnergyLedger(sim)
    sim.now = 5.0
    ledger.reset()
    sim.now = 10.0
    assert sim.now - ledger._start_time == pytest.approx(5.0)
    assert ledger.radio_duty_cycle() == pytest.approx(1.0)


def test_cpu_meter():
    sim = Simulator()
    cpu = CpuMeter(sim)
    cpu.charge(0.5)
    cpu.charge(0.25)
    sim.now = 10.0
    assert cpu.busy_time() == pytest.approx(0.75)
    assert cpu.cpu_duty_cycle() == pytest.approx(0.075)


def test_cpu_meter_rejects_negative():
    sim = Simulator()
    cpu = CpuMeter(sim)
    with pytest.raises(ValueError):
        cpu.charge(-1.0)


def test_cpu_duty_cycle_clamped():
    sim = Simulator()
    cpu = CpuMeter(sim)
    cpu.charge(100.0)
    sim.now = 1.0
    assert cpu.cpu_duty_cycle() == 1.0
