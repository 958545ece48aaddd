"""Overload-protection policy for the gateway serving tier.

:class:`GatewayLimits` is the single knob bundle the gateway consults
when deciding whether to *admit* a real client, when to *shed* one that
is already connected, and how much memory the splice path may pin:

* **Admission** — a hard cap on concurrent bridged connections
  (``max_connections``) and a token-bucket accept rate
  (``accept_rate`` / ``accept_burst``).  A refused client is reset
  before any simulated state is created; every refusal is counted in
  the labelled ``gw.shed`` counter and traced, so shedding is an
  explicit, observable decision rather than an accept-queue overflow.
* **Deadlines** — ``establish_timeout`` bounds how long a client may
  wait for its simulated leg to come up; ``idle_timeout`` reaps
  slow-loris clients that hold a bridge without moving bytes.  A
  single reaper task scans every ``reap_interval`` seconds.
* **Memory** — ``splice_budget`` caps the *total* client bytes buffered
  toward the sim across all bridges (see :class:`SpliceBudget`);
  ``high_water``/``low_water`` set the per-bridge pause/resume
  watermarks that were previously hardcoded module constants.
* **Failure isolation** — ``breaker_threshold`` consecutive terminal
  sim-side failures on one binding open a :class:`CircuitBreaker` for
  it: further clients are shed instantly (no doomed retry ladders)
  until a half-open probe succeeds.

Everything defaults to *off* (``None``), so a plain ``Gateway(...)``
behaves exactly as before; the smoke/chaos harnesses and production
configs opt in per deployment.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.checks import check_fields
from repro.gateway.bridge import HIGH_WATER, LOW_WATER


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/sec, capacity ``burst``.

    ``try_take`` never blocks — the gateway sheds instead of queueing,
    so an accept storm costs refused clients, not unbounded memory.
    The clock is injectable for deterministic tests.
    """

    def __init__(self, rate: float, burst: int = 1,
                 clock: Callable[[], float] = _time.monotonic):
        if rate <= 0 or burst < 1:
            raise ValueError("token bucket needs rate > 0 and burst >= 1")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self.tokens = float(burst)
        self._last = clock()

    def try_take(self, n: int = 1) -> bool:
        now = self._clock()
        self.tokens = min(float(self.burst),
                          self.tokens + (now - self._last) * self.rate)
        self._last = now
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


class CircuitBreaker:
    """Per-binding failure isolation: open / half-open / closed.

    ``threshold`` consecutive failures open the breaker; while open,
    :meth:`allow` refuses instantly.  After ``cooldown`` seconds the
    breaker goes half-open and lets exactly one probe through —
    success closes it, failure re-opens it for a fresh cooldown.
    """

    def __init__(self, threshold: int = 5, cooldown: float = 30.0,
                 clock: Callable[[], float] = _time.monotonic):
        if threshold < 1 or cooldown < 0:
            raise ValueError("breaker needs threshold >= 1, cooldown >= 0")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown:
            return "half_open"
        return "open"

    def allow(self) -> bool:
        """May a new session start?  Half-open admits a single probe."""
        state = self.state
        if state == "closed":
            return True
        if state == "half_open" and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._failures += 1
        if self._probing or self._failures >= self.threshold:
            # a failed half-open probe re-opens for a fresh cooldown
            self._opened_at = self._clock()
            self._probing = False


class SpliceBudget:
    """Global cap on client bytes buffered toward the sim.

    Each bridge already pauses its own client at ``high_water``, but a
    thousand bridges at 63 KiB each is still ~62 MiB pinned.  The
    budget bounds the *sum*: :meth:`acquire` returns ``False`` once the
    total is exhausted (callers pause their client until enough bytes
    drain into the sim that :attr:`should_resume` turns true).
    Accounting is exact — bytes are acquired on arrival and released
    when the simulated socket accepts them or the bridge dies.
    """

    def __init__(self, total: int, resume_ratio: float = 0.75):
        if total < 1:
            raise ValueError("splice budget must be >= 1 byte")
        if not 0.0 < resume_ratio < 1.0:
            raise ValueError("resume_ratio must be in (0, 1)")
        self.total = total
        self.resume_ratio = resume_ratio
        self.used = 0

    def acquire(self, n: int) -> bool:
        """Account ``n`` buffered bytes; False when over budget.

        The bytes are *always* counted (they are already in memory) —
        the return value only tells the caller to stop reading more.
        """
        self.used += n
        return self.used <= self.total

    def release(self, n: int) -> None:
        self.used = max(0, self.used - n)

    @property
    def should_resume(self) -> bool:
        return self.used <= self.total * self.resume_ratio


#: GatewayLimits field -> (int or float, rule, nullable); see
#: repro.checks.check_fields
_FIELDS = {
    "max_connections": (int, ">= 1", True),
    "accept_rate": (float, "> 0", True),
    "accept_burst": (int, ">= 1", False),
    "establish_timeout": (float, "> 0", True),
    "idle_timeout": (float, "> 0", True),
    "splice_budget": (int, ">= 1", True),
    "breaker_threshold": (int, ">= 1", True),
    "breaker_cooldown": (float, ">= 0", False),
    "backlog": (int, ">= 1", False),
    "high_water": (int, ">= 1", False),
    "low_water": (int, ">= 0", False),
    "reap_interval": (float, "> 0", False),
}


@dataclass
class GatewayLimits:
    """Overload policy consumed by :class:`~repro.gateway.server.Gateway`.

    The default instance disables every protection (matching the
    pre-limits gateway) while still carrying the now-configurable
    listener ``backlog`` and splice watermarks.
    """

    #: hard cap on concurrent bridged TCP connections (None = unlimited)
    max_connections: Optional[int] = None
    #: token-bucket accept rate in connections/sec (None = unlimited)
    accept_rate: Optional[float] = None
    #: bucket capacity for accept bursts
    accept_burst: int = 32
    #: seconds a client may wait for its sim leg before being shed
    establish_timeout: Optional[float] = None
    #: seconds of inactivity before an established bridge is reaped
    idle_timeout: Optional[float] = None
    #: total client bytes buffered toward the sim across all bridges
    splice_budget: Optional[int] = None
    #: consecutive terminal failures that open a binding's breaker
    #: (None = breaker disabled)
    breaker_threshold: Optional[int] = None
    #: seconds an open breaker waits before the half-open probe
    breaker_cooldown: float = 30.0
    #: listener accept-queue depth (was hardcoded 4096)
    backlog: int = 4096
    #: per-bridge pause/resume watermarks (were module constants)
    high_water: int = HIGH_WATER
    low_water: int = LOW_WATER
    #: reaper scan period
    reap_interval: float = 0.5

    def __post_init__(self) -> None:
        check_fields(vars(self), _FIELDS)
        if self.high_water <= self.low_water:
            raise ValueError("need high_water > low_water >= 0")

    @property
    def needs_reaper(self) -> bool:
        return (self.establish_timeout is not None
                or self.idle_timeout is not None)
