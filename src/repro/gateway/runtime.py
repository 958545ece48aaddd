"""The asyncio-paced simulation driver behind the gateway.

:class:`PacedSimRunner` owns the discrete-event simulator inside an
asyncio event loop: a single long-lived task dispatches every event at
its wall-clock deadline (scaled by ``speed``) and waits in between, so
socket I/O interleaves with simulation progress on one thread.
The simulation is acted on only from that task: a socket callback hands
what it wants done (a connect, bytes into a send buffer, a close) to
:meth:`PacedSimRunner.inject`, which queues it as an event stamped with
the simulated instant of its arrival, so the kernel stays free of locks
and outside input never lands in the simulation's past.

Slack accounting (how late each dispatch ran, how far behind the wall
the clock was when an input arrived) is delegated to the engine's
:class:`~repro.sim.engine.RealtimePacer`, which exports the ``rt.*``
metrics.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Optional

from repro.sim.engine import RealtimePacer

_log = logging.getLogger("repro.gateway.runtime")

#: a selector rounds every timeout *up* to a whole millisecond
#: (``EpollSelector.select``: ``math.ceil(timeout * 1e3) * 1e-3``), so a
#: nearer deadline cannot be slept to, only yielded to
SELECTOR_RESOLUTION = 1e-3

_NEVER = float("inf")


class PacedSimRunner:
    """Dispatch simulator events at wall-clock rate inside asyncio.

    ``speed`` is simulated seconds per wall second.

    Lifecycle::

        runner = PacedSimRunner(sim, speed=1.0).start()
        ...   # socket callbacks call runner.inject(fn, *args)
        await runner.stop()
    """

    def __init__(self, sim, speed: float = 1.0, slack_budget: float = 0.25):
        self.sim = sim
        self.pacer = RealtimePacer(
            speed=speed,
            slack_budget=slack_budget,
            metrics=sim.metrics,
            trace_bus=sim.trace_bus,
        )
        self._wake = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._stopped = False

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    def start(self) -> "PacedSimRunner":
        """Begin pacing (must be called from inside a running loop)."""
        if self._task is not None:
            raise RuntimeError("runner already started")
        self._stopped = False
        self.pacer.resync(self.sim.now)
        self._task = asyncio.get_running_loop().create_task(
            self._loop(), name="paced-sim-runner"
        )
        return self

    def inject(self, fn, *args) -> None:
        """Run ``fn(*args)`` inside the simulation, at the instant of now.

        The one way in for outside input: the call becomes a simulator
        event stamped with the simulated instant the wall clock has
        reached — not ``sim.now``, which is as old as the last dispatch
        — and the dispatch task is woken to run it, after whatever
        backlog is due before it.  Inputs keep their arrival order.
        """
        sim, pacer = self.sim, self.pacer
        wall = pacer.clock()
        # the clock is behind by as much as its oldest undispatched
        # event is overdue; with nothing overdue it is merely unread
        t_next = sim.peek_time()
        pacer.observe_input(
            0.0 if t_next is None else wall - pacer.wall_for(t_next))
        sim.schedule_at(max(sim.now, pacer.sim_due(wall)), fn, *args)
        self._wake.set()

    async def stop(self) -> None:
        """Dispatch what is already due, stop pacing, wait for the task."""
        self._stopped = True
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None

    async def _loop(self) -> None:
        sim, pacer, wake = self.sim, self.pacer, self._wake
        call_later = asyncio.get_running_loop().call_later
        try:
            while True:
                wall = pacer.clock()
                due = pacer.sim_due(wall)
                t_next = sim.peek_time()
                if t_next is None:
                    delay = _NEVER
                elif t_next <= due:
                    # a batch is due: account its lateness, dispatch it
                    pacer.observe(t_next, wall)
                    sim.run(until=due)
                    delay = 0.0
                else:
                    delay = pacer.wall_for(t_next) - wall
                if self._stopped:
                    break
                if delay <= SELECTOR_RESOLUTION:
                    # after a batch, or before a deadline the selector
                    # would oversleep: yield to the loop (sockets are
                    # serviced) and look again
                    await asyncio.sleep(0)
                    continue
                # nothing near: block in the selector until an input
                # arrives or the deadline is one resolution away
                wake.clear()
                timer = None if t_next is None else call_later(
                    delay - SELECTOR_RESOLUTION, wake.set)
                try:
                    await wake.wait()
                finally:
                    if timer is not None:
                        timer.cancel()
        except asyncio.CancelledError:
            raise
        except Exception:
            _log.exception("paced simulation runner crashed")
            raise
