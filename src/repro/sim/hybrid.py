"""Hybrid fidelity (``fidelity="hybrid"``): analytic fast-forward of
steady bulk phases.

``HybridController`` watches registered bulk flows for steady state —
ESTABLISHED, cwnd and loss/retransmit counters flat, SACK scoreboard
empty, send buffer saturated, acks advancing — sustained for K RTTs.
While *every* active flow is steady and no veto (fault injector, paced
sensor stream) objects, it fast-forwards the clock analytically with
:meth:`repro.sim.engine.Simulator.warp` and credits each flow its
measured steady rate, cross-checked against the paper's §6.4/Appendix B
throughput model (``repro.models.throughput.lln_model_goodput`` with
p=0).  Any transient — loss, RTO, cwnd move, window stall, flow
join/leave — has already broken the signature by the next check, so the
controller simply keeps simulating; re-entry is the default, not a
recovery path.  The contract is *metric* equivalence (goodput within
2%, identical retransmit/fault counters), not trace equivalence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

if TYPE_CHECKING:  # engine imports this module
    from repro.sim.engine import Event, Simulator

__all__ = ["HybridController"]

#: seconds between steady-state checks
CHECK_INTERVAL = 0.25
#: steadiness must persist for max(MIN_STEADY, K_RTTS * srtt) before cruising
K_RTTS = 8.0
MIN_STEADY = 1.0
#: minimum accumulated real-sim seconds behind the rate estimate
MIN_RATE_WINDOW = 1.0
#: maximum single warp (re-enter event simulation between chunks)
WARP_CHUNK = 5.0
MIN_WARP = 0.5
#: real simulation kept before the run horizon after the last warp
RESIM_MARGIN = 0.25
#: measured rate must fall within [MODEL_LOW, MODEL_HIGH] x the paper's
#: p=0 model goodput (sanity band, measurement wins)
MODEL_LOW = 0.3
MODEL_HIGH = 2.0


class _FlowWatch:
    __slots__ = ("driver", "sig", "una", "steady_since", "bytes", "secs",
                 "carry", "last_check")

    def __init__(self, driver):
        self.driver = driver
        self.sig = None
        self.una = None
        self.steady_since = None
        self.bytes = 0
        self.secs = 0.0
        self.carry = 0.0
        self.last_check = 0.0


class HybridController:
    """Detects steady-state bulk phases and fast-forwards them.

    Attached as ``sim.hybrid`` when ``fidelity="hybrid"``.  Workload
    drivers (:class:`repro.experiments.workload.BulkTransfer`) call
    :meth:`register_flow`; anything that makes analytic fast-forward
    unsafe (fault injectors, paced sensor streams) registers a veto
    callable via :meth:`add_veto`.  The controller runs self-scheduled
    one-shot checks and goes dormant when no registered flow is live,
    so it never keeps an otherwise-drained queue alive.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._watches: List[_FlowWatch] = []
        self._vetoes: List[Callable[[], bool]] = []
        self._event: Optional["Event"] = None
        #: observability
        self.cruises = 0
        self.cruised_time = 0.0
        self.credited_bytes = 0

    # -- registration --------------------------------------------------
    def register_flow(self, driver) -> None:
        """Watch ``driver`` (must expose ``.connection``; may expose
        ``hybrid_credit(nbytes, interval)``) for steady-state cruising."""
        w = _FlowWatch(driver)
        w.last_check = self.sim.now
        self._watches.append(w)
        self._ensure_scheduled()

    def add_veto(self, fn: Callable[[], bool]) -> None:
        """Register a callable; cruising is blocked while it returns True."""
        self._vetoes.append(fn)

    def _ensure_scheduled(self) -> None:
        if self._event is None or not self._event.pending:
            self._event = self.sim.schedule(CHECK_INTERVAL, self._check)

    # -- steady-state detection ---------------------------------------
    def _check(self) -> None:
        from repro.models.throughput import lln_model_goodput

        sim = self.sim
        now = sim.now
        any_live = False
        all_steady = True
        steady: List[tuple] = []  # (watch, conn, rate bytes/s)
        for w in self._watches:
            conn = getattr(w.driver, "connection", None)
            state = getattr(conn, "state", None)
            if conn is None or state is None or state.name in ("CLOSED", "TIME_WAIT"):
                # finished (or never-built) flow: drop from steadiness
                # math, and don't keep the controller alive for it
                w.sig = None
                w.steady_since = None
                continue
            any_live = True
            probe = conn.cruise_probe()
            interval = now - w.last_check
            if probe is None:
                w.sig = None
                w.steady_since = None
                w.bytes = 0
                w.secs = 0.0
                all_steady = False
                continue
            sig, una, srtt = probe
            delta = (una - w.una) & 0xFFFFFFFF if w.una is not None else 0
            if w.sig is not None and sig == w.sig:
                if w.steady_since is None:
                    w.steady_since = w.last_check
                w.bytes += delta
                w.secs += interval
            else:
                w.steady_since = None
                w.bytes = 0
                w.secs = 0.0
            w.sig = sig
            w.una = una
            ok = (
                w.steady_since is not None
                and now - w.steady_since >= max(MIN_STEADY, K_RTTS * srtt)
                and w.secs >= MIN_RATE_WINDOW
                and w.bytes >= 2 * conn.mss
            )
            if ok:
                rate = w.bytes / w.secs
                # cross-check against the paper's zero-loss model: the
                # measured steady rate should be of the same order as
                # window/RTT; if not, something non-steady is going on.
                cc = conn.cc
                wnd = min(cc.cwnd, conn.send_buf.capacity) if cc.enabled \
                    else conn.send_buf.capacity
                model_bps = lln_model_goodput(
                    conn.mss, srtt, 0.0, max(1, wnd // conn.mss)
                )
                ok = MODEL_LOW * model_bps <= rate * 8.0 <= MODEL_HIGH * model_bps
            if ok:
                steady.append((w, rate))
            else:
                all_steady = False

        if any_live and all_steady and steady:
            self._maybe_cruise(steady)
        for w in self._watches:
            w.last_check = sim.now
        if any_live:
            self._event = sim.schedule(CHECK_INTERVAL, self._check)
        else:
            self._event = None

    def _maybe_cruise(self, steady: List[tuple]) -> None:
        sim = self.sim
        for veto in self._vetoes:
            if veto():
                return
        horizon = sim._run_until
        if horizon is None:
            return  # unbounded run: nothing to clamp a warp against
        delta = min(WARP_CHUNK, horizon - sim.now - RESIM_MARGIN)
        if delta < MIN_WARP:
            return
        sim.warp(delta)
        self.cruises += 1
        self.cruised_time += delta
        for w, rate in steady:
            exact = rate * delta + w.carry
            nbytes = int(exact)
            w.carry = exact - nbytes
            self.credited_bytes += nbytes
            credit = getattr(w.driver, "hybrid_credit", None)
            if credit is not None:
                credit(nbytes, delta)
            else:
                w.driver.meter.credit(nbytes, delta)
