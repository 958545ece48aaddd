"""Restartable one-shot timers built on the event scheduler.

TCP and the MAC layer juggle many timers (retransmit, delayed-ACK,
persist, keepalive, link-retry, poll).  :class:`Timer` wraps the
schedule/cancel dance: ``start`` (re)arms, ``stop`` disarms, and the
callback only fires if the timer is still armed.  This mirrors the
"tickless timer" adaptation described in §4.1 of the paper.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Event, Simulator

class Timer:
    """A restartable one-shot timer.

    The callback receives no arguments; bind state via closure or
    functools.partial at construction time.
    """

    __slots__ = ("sim", "callback", "name", "_event", "_registry")

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = ""):
        self.sim = sim
        self.callback = callback
        self.name = name
        self._event: Optional[Event] = None
        self._registry = getattr(sim, "_armed_timers", None)

    @property
    def armed(self) -> bool:
        """True if the timer is pending."""
        return self._event is not None and self._event.pending

    @property
    def expiry(self) -> Optional[float]:
        """Absolute expiry time if armed, else None."""
        if self.armed:
            assert self._event is not None
            return self._event.time
        return None

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` seconds from now."""
        self.stop()
        self._event = self.sim.schedule(delay, self._fire)
        if self._registry is not None:
            self._registry.add(self)

    def start_if_idle(self, delay: float) -> None:
        """Arm the timer only if it is not already armed."""
        if not self.armed:
            self.start(delay)

    def stop(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        if self._registry is not None:
            self._registry.discard(self)

    def _fire(self) -> None:
        self._event = None
        if self._registry is not None:
            self._registry.discard(self)
        self.callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"armed@{self.expiry:.6f}" if self.armed else "idle"
        return f"<Timer {self.name or self.callback!r} {state}>"


class PeriodicTimer:
    """A repeating timer built on ``Simulator.schedule_periodic``.

    Unlike re-arming a :class:`Timer` from its own callback, the
    underlying Event object is reused tick after tick — no allocation
    per period.  ``start`` (re)starts the cadence from now; ``ensure``
    is a cheap no-op when the requested interval is already in force
    (the common case for a fixed-cadence poll loop).
    """

    __slots__ = ("sim", "callback", "name", "_event", "_interval",
                 "_registry")

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = ""):
        self.sim = sim
        self.callback = callback
        self.name = name
        self._event: Optional[Event] = None
        self._interval: Optional[float] = None
        self._registry = getattr(sim, "_armed_timers", None)

    @property
    def armed(self) -> bool:
        """True while the cadence runs."""
        return self._event is not None and self._event.pending

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time of the next tick if armed, else None."""
        return self._event.time if self.armed else None

    def start(self, interval: float) -> None:
        """(Re)start firing every ``interval`` seconds, first in ``interval``."""
        self.stop()
        self._event = self.sim.schedule_periodic(interval, self.callback)
        self._interval = interval
        if self._registry is not None:
            self._registry.add(self)

    def ensure(self, interval: float) -> None:
        """Keep the cadence if unchanged; otherwise restart at ``interval``."""
        event = self._event
        if event is None or event.cancelled or self._interval != interval:
            self.start(interval)

    def stop(self) -> None:
        """Stop the repetition."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
            self._interval = None
        if self._registry is not None:
            self._registry.discard(self)
