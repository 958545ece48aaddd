"""Thread-style sleepy end device (listen-after-send duty cycling).

A leaf keeps its radio asleep and periodically sends a *data request*
to its always-on parent.  The parent's link ACK carries the pending
bit; if set, the leaf listens and the parent drains the leaf's indirect
queue, with each data frame's pending bit telling the leaf whether to
keep listening (paper §3.2, Appendix C).

Modes reproduced from the paper:

* **fixed** — poll every ``poll_interval`` (OpenThread default 240 s);
* **fast-poll** — the transport layer calls :meth:`set_fast_poll` while
  it is awaiting a TCP ACK / CoAP response, dropping the interval to
  100 ms (§9.2);
* **adaptive** — Trickle rule (Appendix C.2): collapse the interval to
  ``smin`` when a downstream packet arrives, double it toward ``smax``
  after an empty poll.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mac.link import MacLayer
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer, Timer


@dataclass(slots=True)
class PollParams:
    """Sleepy-end-device configuration."""

    poll_interval: float = 240.0  # OpenThread default data-request period
    fast_poll_interval: float = 0.1  # while a transport ACK is expected (§9.2)
    listen_window: float = 0.1  # data-request timeout / wait-for-frame window
    adaptive: bool = False  # Appendix C.2 Trickle rule
    smin: float = 0.02  # adaptive minimum sleep interval
    smax: float = 5.0  # adaptive maximum sleep interval
    #: Appendix C.1's slotted protocol: the node may send upstream only
    #: during the sleep interval; at the end of it, it *stops sending*
    #: (even with packets queued) and listens.  This is what makes
    #: downlink TCP stall in Figure 12/13 — ACKs wait out the listen
    #: phase.
    hold_uplink_while_listening: bool = False


class SleepyEndDevice:
    """Duty-cycles a node's radio around data-request polling."""

    def __init__(
        self,
        sim: Simulator,
        mac: MacLayer,
        parent: int,
        params: Optional[PollParams] = None,
    ):
        self.sim = sim
        self.mac = mac
        self.parent = parent
        self.params = params or PollParams()
        # Polling repeats at a (mostly) fixed cadence, so it rides on the
        # scheduler's allocation-free periodic events; interval changes
        # (fast-poll, adaptive growth) restart the cadence from now.
        self._poll_timer = PeriodicTimer(sim, self._poll, "poll")
        self._window_timer = Timer(sim, self._window_closed, "listen-window")
        self._fast_poll = False
        self._awaiting_poll_ack = False
        self._listening_for_data = False
        self._poll_sent_at = 0.0
        self._bus = getattr(sim, "trace_bus", None)
        metrics = getattr(sim, "metrics", None)
        #: time from sending a data request to its link ACK — the §9.2
        #: latency that fast-poll mode exists to shrink
        self._poll_latency = None if metrics is None else metrics.histogram(
            "mac.poll_latency_seconds", node=mac.node_id)

        mac.on_poll_ack = self._on_poll_ack
        mac.on_data_pending = self._on_data_pending
        mac.on_idle = self._maybe_sleep
        self.restart()

    # ------------------------------------------------------------------
    # public control
    # ------------------------------------------------------------------
    def set_fast_poll(self, active: bool) -> None:
        """Enter/leave the 100 ms fast-poll mode (§9.2)."""
        if active == self._fast_poll:
            return
        self._fast_poll = active
        # Re-arm at the new cadence immediately.
        self._poll_timer.start(self._current_interval())
        if not active:
            self._maybe_sleep()

    def notify_tx_pending(self) -> None:
        """Upper layer queued upstream data; wake the radio to send it."""
        self.mac.radio.listen()

    def halt(self) -> None:
        """Stop all polling activity (node crash): timers off, state
        cleared.  The device neither polls nor listens until
        :meth:`restart`."""
        self._poll_timer.stop()
        self._window_timer.stop()
        self._fast_poll = False
        self._awaiting_poll_ack = False
        self._listening_for_data = False

    def restart(self) -> None:
        """Cold-start the polling loop (at construction and after a
        reboot)."""
        self._interval = (
            self.params.smin if self.params.adaptive else self.params.poll_interval
        )
        self._poll_timer.start(self._current_interval())
        self._maybe_sleep()

    @property
    def sleep_interval(self) -> float:
        """The interval currently in force."""
        return self._current_interval()

    # ------------------------------------------------------------------
    # polling machinery
    # ------------------------------------------------------------------
    def _current_interval(self) -> float:
        if self._fast_poll:
            return self.params.fast_poll_interval
        return self._interval

    def _poll(self) -> None:
        self.mac.trace.counters.incr("mac.polls_sent")
        self._awaiting_poll_ack = True
        self._poll_sent_at = self.sim.now
        self.mac.radio.listen()
        self.mac.send_data_request(self.parent)
        # If the data request dies (no link ACK after retries), the MAC
        # goes idle without calling on_poll_ack; guard with a timeout.
        # During a listen its window is the guard: re-arming on every
        # poll would keep a listen going as long as polls come.
        if not self._listening_for_data:
            self._window_timer.start(self.params.listen_window * 4)
        # the periodic event re-arms itself at exactly now + interval;
        # only restart if the effective interval has changed under us
        self._poll_timer.ensure(self._current_interval())

    def _on_poll_ack(self, pending: bool) -> None:
        if self._awaiting_poll_ack:
            if self._poll_latency is not None:
                self._poll_latency.observe(self.sim.now - self._poll_sent_at)
            if self._bus is not None:
                self._bus.emit("mac", self.mac.node_id, "poll_ack",
                               pending=pending,
                               latency=self.sim.now - self._poll_sent_at)
        self._awaiting_poll_ack = False
        if pending:
            self._listening_for_data = True
            self.mac.radio.listen()
            if self.params.hold_uplink_while_listening:
                self.mac.hold(True)
            self._window_timer.start(self.params.listen_window)
        else:
            if self.params.adaptive:
                self._grow_interval()
            # the parent's pending bit also counts the frames it released
            # and has not delivered yet: nothing more is on its way
            self._end_listen()

    def _on_data_pending(self, more_pending: bool) -> None:
        # A downstream frame arrived while we listened.
        if self.params.adaptive:
            self._interval = self.params.smin
            self._poll_timer.start(self._current_interval())
        if more_pending:
            self._listening_for_data = True
            self._window_timer.start(self.params.listen_window)
        else:
            self._end_listen()

    def _window_closed(self) -> None:
        if self._awaiting_poll_ack:
            self.mac.trace.counters.incr("mac.poll_timeouts")
            if self._bus is not None:
                self._bus.emit("mac", self.mac.node_id, "poll_timeout")
            self._awaiting_poll_ack = False
        if self.params.adaptive and not self._listening_for_data:
            self._grow_interval()
        self._end_listen()

    def _end_listen(self) -> None:
        self._listening_for_data = False
        self._window_timer.stop()
        self._maybe_sleep()

    def _grow_interval(self) -> None:
        self._interval = min(self._interval * 2, self.params.smax)
        if self._interval <= 0:
            self._interval = self.params.smin
        self._poll_timer.start(self._current_interval())

    def _maybe_sleep(self) -> None:
        """Sleep the radio if nothing needs it awake."""
        if not self._listening_for_data and self.mac.paused:
            # listen phase over: release held uplink traffic
            self.mac.hold(False)
        if self._awaiting_poll_ack or self._listening_for_data:
            return
        if not self.mac.idle or self.mac.radio._tx_busy:
            return
        self.mac.radio.sleep()
