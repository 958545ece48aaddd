"""Event scheduler: the heart of the LLN simulator.

The simulator keeps virtual time as a float number of seconds.  Events
are callbacks scheduled at absolute times; ties are broken by insertion
order so that runs are fully deterministic.  Cancellation is handled by
tombstoning (the heap entry stays but is skipped), which keeps both
``schedule`` and ``cancel`` O(log n) / O(1).

Hot-path design notes:

* The heap stores tuples keyed ``(time, seq, ...)``, so ordering is
  decided by C-level tuple comparison, never by a Python call per heap
  sift — the single biggest dispatch-rate win for TCP-heavy workloads,
  which push hundreds of thousands of heap operations per simulated
  minute.  ``seq`` is unique, so the payload is never compared and two
  entry shapes share the heap: ``(time, seq, Event)`` for the
  handle-returning ``schedule*`` calls and the slim ``(time, seq, fn,
  args)`` pushed by ``schedule_unref`` — no Event allocation and no
  tombstone machinery for the PHY/MAC hot path, where nothing ever
  cancels a frame's air-time expiry (docs/architecture.md §7 has the
  measurements behind that choice).
* Cancelled events are tombstoned, but the tombstones are *counted*
  (``cancelled_count``) and the heap is compacted in place once more
  than half of it is dead.  TCP retransmit and delayed-ACK timers are
  cancelled far more often than they fire, so without compaction the
  heap grows with O(all-cancelled) garbage.
* ``schedule_periodic`` re-arms one Event object in the dispatch loop
  instead of allocating a fresh Event per tick — used by duty-cycle
  polling, which otherwise churns an allocation every poll interval.
"""

from __future__ import annotations

import heapq
import logging
import math
import time as _time
from typing import Any, Callable, List, Optional

from repro.checks import is_number, is_positive_number
from repro.sim import metrics as _metrics

_heappush = heapq.heappush
_heappop = heapq.heappop

_log = logging.getLogger("repro.sim.realtime")

#: compaction is considered once this many tombstones have accumulated
_COMPACT_MIN_TOMBSTONES = 64


class SimulationError(Exception):
    """Raised for invalid scheduler usage (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and can be
    cancelled with :meth:`cancel` (or ``Simulator.cancel``).  A fired or
    cancelled event is inert; cancelling twice is harmless.  Events
    created by :meth:`Simulator.schedule_periodic` carry an ``interval``
    and are re-armed (same object, fresh time/seq) by the dispatch loop
    until cancelled.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired",
                 "interval", "sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple,
                 interval: Optional[float] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        #: repeat period for periodic events; None for one-shots
        self.interval = interval
        #: owning simulator (set by the scheduler; used for tombstone
        #: accounting so cancel-heavy runs can trigger heap compaction)
        self.sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent this event from firing. Safe to call multiple times."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            # one more queued entry is a tombstone: compact if >50% dead
            dead = sim.cancelled_count = sim.cancelled_count + 1
            if dead >= _COMPACT_MIN_TOMBSTONES and dead * 2 > len(sim._queue):
                sim._compact()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and may still fire."""
        return not (self.cancelled or self.fired)


_new_event = Event.__new__


class _HookView:
    """Event-shaped, read-only view of a slim heap entry.

    Built only for observers — the ``on_event`` hook sees one with
    ``fired=True`` just before the callback runs, ``pending_events``
    hands out ones with ``fired=False`` for entries still queued — so
    they see the same ``time``/``seq``/``fn`` surface as for an Event.
    """

    __slots__ = ("time", "seq", "fn", "args", "fired")

    #: a slim entry never repeats and cannot be cancelled
    interval = None
    cancelled = False

    def __init__(self, time: float, seq: int, fn, args: tuple, fired: bool):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.fired = fired

    @property
    def pending(self) -> bool:
        """True while the entry is still queued."""
        return not self.fired


class RealtimePacer:
    """Maps simulated seconds onto a wall clock and accounts for slack.

    ``speed`` is simulated seconds per wall second (1.0 = true real
    time; 20.0 runs the simulation twenty times faster than the wall).
    The pacer anchors ``(wall, sim)`` at :meth:`resync`; from there
    :meth:`sim_due` converts a wall instant into the simulated instant
    that *should* have been reached, and :meth:`wall_for` gives a
    simulated time's wall deadline.

    **Slack** is how late an event is dispatched relative to its wall
    deadline, in wall seconds (positive = behind schedule).  Every
    observation updates ``last_slack``/``max_slack`` and — when a
    :class:`~repro.sim.metrics.MetricsRegistry` is attached — the
    ``rt.slack_last_seconds``/``rt.slack_max_seconds`` gauges and the
    ``rt.slack_seconds`` histogram.  Falling behind by more than
    ``slack_budget`` is *loud*: the ``rt.slack_violations`` counter
    increments, a ``rt/slack_violation`` trace event is emitted, and a
    rate-limited ``logging`` warning fires — a real-time serving tier
    must never fall behind silently.

    **Input lag** is the same quantity at the other crossing: how far
    the simulated clock was behind the wall when an outside input
    arrived, in wall seconds (:meth:`observe_input`,
    ``rt.input_lag_seconds``, ``max_input_lag``) — an input stamped
    with the instant of its arrival takes effect only after the backlog
    that is due before it.
    """

    def __init__(
        self,
        speed: float = 1.0,
        slack_budget: float = 0.25,
        clock: Callable[[], float] = _time.monotonic,
        metrics=None,
        trace_bus=None,
    ):
        if not is_positive_number(speed):
            raise SimulationError(
                f"realtime speed must be a finite number > 0 (got {speed!r})")
        if not is_number(slack_budget, 0):
            raise SimulationError(
                f"slack budget must be a finite number >= 0 "
                f"(got {slack_budget!r})")
        self.speed = speed
        self.slack_budget = slack_budget
        self.clock = clock
        self._trace_bus = trace_bus
        self._wall0 = clock()
        self._sim0 = 0.0
        #: slack accounting (wall seconds)
        self.last_slack = 0.0
        self.max_slack = 0.0
        self.violations = 0
        self.observations = 0
        self.max_input_lag = 0.0
        self._last_warn_wall: Optional[float] = None
        if metrics is not None:
            self._g_slack = metrics.gauge("rt.slack_last_seconds")
            self._g_slack_max = metrics.gauge("rt.slack_max_seconds")
            self._h_slack = metrics.histogram("rt.slack_seconds")
            self._c_violations = metrics.counter("rt.slack_violations")
            self._h_input_lag = metrics.histogram("rt.input_lag_seconds")
            self._g_speed = metrics.gauge("rt.speed")
            self._g_speed.set(speed)
        else:
            self._g_slack = None
            self._g_slack_max = None
            self._h_slack = None
            self._c_violations = None
            self._h_input_lag = None
            self._g_speed = None

    def resync(self, sim_now: float) -> None:
        """Re-anchor: simulated ``sim_now`` corresponds to wall *now*.

        Call once before pacing starts (and after any deliberate pause);
        resyncing forgives accumulated lateness rather than sprinting to
        catch up, which is the right behaviour after a debugger stop.
        """
        self._wall0 = self.clock()
        self._sim0 = sim_now

    def sim_due(self, wall: float) -> float:
        """Simulated time that should have been reached by ``wall``."""
        return self._sim0 + (wall - self._wall0) * self.speed

    def wall_for(self, sim_time: float) -> float:
        """Wall deadline of simulated instant ``sim_time``."""
        return self._wall0 + (sim_time - self._sim0) / self.speed

    def observe(self, sim_time: float, wall: float) -> float:
        """Record dispatch slack for an event due at ``sim_time``.

        Returns the slack in wall seconds (positive = late).
        """
        slack = wall - self.wall_for(sim_time)
        self.last_slack = slack
        self.observations += 1
        if slack > self.max_slack:
            self.max_slack = slack
        if self._g_slack is not None:
            self._g_slack.set(slack)
            self._g_slack_max.set(self.max_slack)
            self._h_slack.observe(max(0.0, slack))
        if slack > self.slack_budget:
            self.violations += 1
            if self._c_violations is not None:
                self._c_violations.inc()
            if self._trace_bus is not None:
                self._trace_bus.emit(
                    "rt", -1, "slack_violation",
                    slack=round(slack, 6), budget=self.slack_budget,
                )
            # loud but rate-limited: one warning per wall second at most
            if (self._last_warn_wall is None
                    or wall - self._last_warn_wall >= 1.0):
                self._last_warn_wall = wall
                _log.warning(
                    "realtime pacing fell behind: slack=%.3fs "
                    "(budget %.3fs, speed %gx, %d violations)",
                    slack, self.slack_budget, self.speed, self.violations,
                )
        return slack

    def observe_input(self, lag: float) -> None:
        """Record the clock's ``lag`` behind the wall at an input's
        arrival (wall seconds; zero or less: it was not behind)."""
        if lag > self.max_input_lag:
            self.max_input_lag = lag
        if self._h_input_lag is not None:
            self._h_input_lag.observe(max(0.0, lag))

    def stats(self) -> dict:
        """JSON-ready slack summary (the gateway smoke artifact shape)."""
        return {
            "speed": self.speed,
            "slack_budget": self.slack_budget,
            "last_slack": self.last_slack,
            "max_slack": self.max_slack,
            "violations": self.violations,
            "observations": self.observations,
            "max_input_lag": self.max_input_lag,
        }


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, callback, arg1, arg2)
        sim.run(until=10.0)

    The clock starts at 0.0.  ``run`` processes events in (time, insertion
    order) until the queue drains, ``until`` is reached, or ``stop()`` is
    called from within a callback.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: heap of ``(time, seq, Event)`` and slim ``(time, seq, fn, args)``
        self._queue: List[tuple] = []
        self._seq = 0
        self._running = False
        self.events_processed = 0
        #: tombstoned (cancelled) entries still sitting in the heap
        self.cancelled_count = 0
        #: number of in-place heap compactions performed (observability)
        self.compactions = 0
        #: optional dispatch hook, called with each Event just before its
        #: callback runs — used by the determinism regression tests to
        #: capture the exact event sequence of a run
        self.on_event: Optional[Callable[[Event], None]] = None
        #: observability (repro.sim.metrics / repro.sim.trace): both are
        #: None unless metrics.auto_attach() is active or the caller
        #: assigns them *before* building the network — layers cache
        #: their instruments at construction time.
        self.metrics, self.trace_bus = _metrics.attach(self)
        #: explicit registry of armed :class:`repro.sim.timers.Timer` /
        #: ``PeriodicTimer`` instances.  Timers add themselves on start
        #: and remove themselves on stop/fire, so invariant checks (e.g.
        #: "no tcp-* timer armed after teardown") ask the simulator
        #: directly instead of introspecting ``ev.fn.__self__`` on the
        #: heap.
        self._armed_timers: set = set()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also refuses NaN, which would corrupt the heap
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        # Event construction inlined (slot stores, no __init__ frame):
        # this is the single most-called method in the simulator.
        ev = _new_event(Event)
        ev.time = time
        ev.seq = seq
        ev.fn = fn
        ev.args = args
        ev.cancelled = False
        ev.fired = False
        ev.interval = None
        ev.sim = self
        _heappush(self._queue, (time, seq, ev))
        return ev

    def schedule_unref(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` without returning a cancellation handle.

        Semantically identical to :meth:`schedule` with the returned
        Event discarded (same sequence-number consumption, same dispatch
        order; ``tests/test_fastcore_equivalence.py`` holds it to that),
        but the contract — *no handle, so nobody can cancel it* — lets
        it push a slim ``(time, seq, fn, args)`` entry: no Event
        allocation, no tombstone machinery.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (self.now + delay, seq, fn, args))

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args)
        ev.sim = self
        _heappush(self._queue, (time, seq, ev))
        return ev

    def schedule_periodic(
        self, interval: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``fn(*args)`` every ``interval`` seconds, starting
        ``interval`` from now.

        The returned Event is re-armed in place by the dispatch loop
        (no per-tick allocation); each repeat fires at exactly
        ``previous_time + interval`` with a freshly allocated sequence
        number, so tie-breaking behaves as if the event had been
        re-scheduled at the top of its own callback.  Cancel it to stop
        the repetition.
        """
        if not interval > 0:
            raise SimulationError(
                f"periodic interval must be positive (got {interval})"
            )
        time = self.now + interval
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args, interval=interval)
        ev.sim = self
        _heappush(self._queue, (time, seq, ev))
        return ev

    # ------------------------------------------------------------------
    # tombstone accounting / heap compaction
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop tombstoned entries and re-heapify, in place.

        In-place mutation (slice assignment) keeps any local aliases of
        the queue held by a running dispatch loop valid.
        """
        queue = self._queue
        queue[:] = [e for e in queue if len(e) == 4 or not e[2].cancelled]
        heapq.heapify(queue)
        self.cancelled_count = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue drains or ``until`` is reached.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so duty-cycle accounting over
        a fixed horizon is exact.
        """
        if until is not None and math.isnan(until):
            raise SimulationError("cannot run until t=nan")
        self._running = True
        # Hot loop: attribute lookups hoisted into locals.  The queue is
        # aliased, never rebound — compaction mutates it in place.  The
        # observer hook is sampled once: install it before run().
        queue = self._queue
        heappop = _heappop
        heappush = _heappush
        limit = float("inf") if until is None else until
        hook = self.on_event
        processed = 0
        try:
            while queue:
                if queue[0][0] > limit:
                    break
                entry = heappop(queue)
                if len(entry) == 4:
                    ev = None
                else:
                    ev = entry[2]
                    if ev.cancelled:
                        self.cancelled_count -= 1
                        continue
                self.now = time = entry[0]
                processed += 1
                if ev is None:
                    fn = entry[2]
                    args = entry[3]
                    if hook is not None:
                        hook(_HookView(time, entry[1], fn, args, True))
                    fn(*args)
                    continue
                interval = ev.interval
                if interval is None:
                    ev.fired = True
                else:
                    # Re-arm the same Event object before dispatch so the
                    # repeat's insertion order matches a callback that
                    # re-schedules itself first thing.
                    ev.time = time + interval
                    seq = self._seq
                    self._seq = seq + 1
                    ev.seq = seq
                    heappush(queue, (ev.time, seq, ev))
                if hook is not None:
                    hook(ev)
                ev.fn(*ev.args)
            if until is not None and self.now < until:
                self.now = until
        finally:
            self.events_processed += processed
            self._running = False

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        queue = self._queue
        while queue:
            head = queue[0]
            if len(head) == 4 or not head[2].cancelled:
                return head[0]
            _heappop(queue)
            self.cancelled_count -= 1
        return None

    def pending_events(self) -> List[object]:
        """The non-cancelled events still queued, in heap order (O(n)).

        Slim entries appear as pending :class:`_HookView` objects.
        """
        out: List[object] = []
        for e in self._queue:
            if len(e) == 4:
                out.append(_HookView(*e, False))
            elif not e[2].cancelled:
                out.append(e[2])
        return out

    def armed_timers(self) -> List[object]:
        """Timers currently armed on this simulator, (expiry, name) order.

        The registry is maintained by ``Timer``/``PeriodicTimer``
        themselves (add on start, discard on stop/fire), so this is the
        authoritative ownership record — unlike heap introspection it
        cannot be fooled by tombstones or by non-timer callbacks that
        happen to have a ``name`` attribute.
        """
        armed = [t for t in self._armed_timers if t.armed]
        armed.sort(key=lambda t: (t.expiry, t.name))
        return armed
