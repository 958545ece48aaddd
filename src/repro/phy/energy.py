"""Radio and CPU duty-cycle accounting.

The paper's power evaluation (§9) reports two proxies for energy:

* **radio duty cycle** — fraction of time the radio is not in its
  low-power sleep state, measured by instrumenting RIOT's radio driver;
* **CPU duty cycle** — fraction of time a thread is executing,
  measured by instrumenting RIOT's scheduler.

:class:`EnergyLedger` reproduces the radio instrumentation as a state
ledger (time spent per :class:`RadioState`), and :class:`CpuMeter`
reproduces the scheduler instrumentation by accumulating busy intervals
charged by the protocol layers (SPI transfers, header processing,
checksums).
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.sim.engine import Simulator


class RadioState(enum.Enum):
    """Power-relevant radio states.

    ``DEAF`` models the AT86RF233 hardware-CSMA backoff state in which
    the radio neither sleeps nor listens (paper §4, "deaf listening");
    it counts as awake for the duty cycle but cannot receive.
    """

    SLEEP = "sleep"
    LISTEN = "listen"
    TX = "tx"
    DEAF = "deaf"


# Positional index per member, so the ledger can account into a plain
# list — a dict keyed by enum members pays a Python-level __hash__ call
# on every transition, which shows up at simulation dispatch rates.
for _index, _state in enumerate(RadioState):
    _state.index = _index
del _index, _state


class EnergyLedger:
    """Accumulates time spent in each radio state."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: current radio state; read-only for callers (use transition())
        self.state = RadioState.LISTEN
        self._since = sim.now
        self._totals = [0.0] * len(RadioState)
        self._start_time = sim.now

    def transition(self, new_state: RadioState) -> None:
        """Charge time in the current state and switch to ``new_state``."""
        now = self.sim.now
        self._totals[self.state.index] += now - self._since
        self.state = new_state
        self._since = now

    def _settled(self) -> Dict[RadioState, float]:
        totals = {s: self._totals[s.index] for s in RadioState}
        totals[self.state] += self.sim.now - self._since
        return totals

    def radio_duty_cycle(self) -> float:
        """Fraction of elapsed time the radio was awake (not SLEEP):
        exactly 1.0 for a radio that never slept, which a sum of the
        per-state totals can miss by an ulp either way."""
        elapsed = self.sim.now - self._start_time
        if elapsed <= 0:
            return 0.0
        totals = self._settled()
        if not totals[RadioState.SLEEP]:
            return 1.0
        awake = sum(t for s, t in totals.items() if s is not RadioState.SLEEP)
        return awake / elapsed

    def reset(self) -> None:
        """Zero the ledger (used to exclude warm-up from measurements)."""
        self._totals = [0.0] * len(RadioState)
        self._since = self.sim.now
        self._start_time = self.sim.now


class CpuMeter:
    """Accumulates CPU busy time charged by protocol layers.

    Layers call :meth:`charge` with the duration of work performed
    (e.g. the SPI transfer of a frame, per-segment TCP processing).
    Charges are simple accumulation — we do not model contention, which
    matches the paper's single-core microcontrollers where the network
    workload is far from saturating the CPU (§6.4).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._busy = 0.0
        self._start_time = sim.now

    def charge(self, seconds: float) -> None:
        """Add ``seconds`` of CPU busy time."""
        if seconds < 0:
            raise ValueError("cannot charge negative CPU time")
        self._busy += seconds

    def busy_time(self) -> float:
        """Total busy seconds charged so far."""
        return self._busy

    def cpu_duty_cycle(self) -> float:
        """Fraction of elapsed time the CPU was busy."""
        elapsed = self.sim.now - self._start_time
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy / elapsed)

    def reset(self) -> None:
        """Zero the meter (used to exclude warm-up from measurements)."""
        self._busy = 0.0
        self._start_time = self.sim.now
