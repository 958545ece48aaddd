"""Counters, time-series recorders, and the structured event-trace bus.

The experiment harness extracts every number the paper reports (goodput,
segment-loss rate, RTT percentiles, duty cycles, cwnd traces, frame
counts) from these primitives rather than ad-hoc prints, so tests can
assert on them directly.

:class:`TraceBus` is the qualitative half of the observability layer
(its quantitative sibling is :class:`repro.sim.metrics.MetricsRegistry`):
typed event records stamped with simulated time, originating layer and
node, kept either in a bounded ring buffer or as a full capture, and
exportable to JSONL for offline analysis.  Layers emit behind
``is None`` guards, so a simulation without a bus pays nothing.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from typing import Dict, Iterable, List, Optional, Tuple


class Counter:
    """A named bag of monotonically increasing integer counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def incr(self, name: str, amount: int = 1) -> None:
        """Increase ``name`` by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters are monotonic; use a gauge instead")
        self._counts[name] += amount

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({dict(self._counts)!r})"


class SeriesRecorder:
    """Records (time, value) samples for one quantity (e.g. cwnd)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError("samples must be recorded in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def window(self, t0: float, t1: float) -> List[Tuple[float, float]]:
        """Samples with t0 <= time <= t1."""
        return [
            (t, v) for t, v in zip(self.times, self.values) if t0 <= t <= t1
        ]

    def last(self) -> Optional[float]:
        """Most recent value, or None if empty."""
        return self.values[-1] if self.values else None

    def mean(self) -> float:
        """Unweighted mean of sample values (0.0 if empty)."""
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)


class TraceRecorder:
    """A container for named counters and series used by one simulation."""

    def __init__(self) -> None:
        self.counters = Counter()
        self._series: Dict[str, SeriesRecorder] = {}

    def series(self, name: str) -> SeriesRecorder:
        """Return (creating on first use) the named series."""
        s = self._series.get(name)
        if s is None:
            s = SeriesRecorder(name)
            self._series[name] = s
        return s


class TraceEvent:
    """One structured trace record.

    ``fields`` carries event-specific details (sequence numbers, retry
    counts, window sizes) as a plain dict of JSON-serialisable values.
    """

    __slots__ = ("time", "layer", "node", "kind", "fields")

    def __init__(self, time: float, layer: str, node: int, kind: str,
                 fields: Optional[Dict[str, object]] = None):
        self.time = time
        self.layer = layer
        self.node = node
        self.kind = kind
        self.fields = fields or {}

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form (the JSONL line format)."""
        return {
            "t": self.time,
            "layer": self.layer,
            "node": self.node,
            "kind": self.kind,
            "fields": self.fields,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceEvent t={self.time:.6f} {self.layer}/{self.kind} "
                f"node={self.node} {self.fields!r}>")


class TraceBus:
    """Typed event-trace capture for one simulation.

    ``capacity=None`` keeps every event (full capture, for short
    debugging runs); an integer keeps only the most recent ``capacity``
    events (ring buffer — bounded memory for day-long simulations).
    ``emit`` stamps events with the owning simulator's current time.
    """

    def __init__(self, sim, capacity: Optional[int] = None):
        self.sim = sim
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.emitted = 0  # total ever emitted (ring may have dropped some)
        #: live subscribers called with each TraceEvent as it is emitted
        #: (the invariant engine's on-event evaluation hook); kept empty
        #: unless someone subscribes, so plain captures pay one truthy
        #: check per emit.
        self._subscribers: List = []

    def emit(self, layer: str, node: int, kind: str, /, **fields) -> None:
        """Record one event at the current simulated time.

        The first three parameters are positional-only so ``fields``
        may itself contain keys named ``layer``, ``node`` or ``kind``
        (e.g. a retransmit event's ``kind=rto|fast|sack`` detail).
        """
        self.emitted += 1
        event = TraceEvent(self.sim.now, layer, node, kind, fields)
        self._events.append(event)
        if self._subscribers:
            for fn in self._subscribers:
                fn(event)

    def subscribe(self, fn) -> None:
        """Call ``fn(event)`` on every subsequent emit (live consumers).

        Subscribers must not emit onto the same bus from inside the
        callback (no re-entrancy guard — keep them read-only).
        """
        if fn not in self._subscribers:
            self._subscribers.append(fn)

    def unsubscribe(self, fn) -> None:
        """Remove a subscriber added with :meth:`subscribe` (idempotent)."""
        if fn in self._subscribers:
            self._subscribers.remove(fn)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        """Drop all retained events (``emitted`` keeps counting)."""
        self._events.clear()

    # ------------------------------------------------------------------
    # export / import
    # ------------------------------------------------------------------
    def to_jsonl(self, path) -> int:
        """Write retained events as JSON Lines; returns the line count."""
        return write_jsonl(self._events, path)


def write_jsonl(events, path) -> int:
    """Write an iterable of :class:`TraceEvent` as JSON Lines.

    Module-level counterpart of :meth:`TraceBus.to_jsonl` for code that
    keeps its own event list (e.g. the fault injector's log, which must
    exist even when no bus is attached); returns the line count.
    """
    count = 0
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev.as_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def read_jsonl(path) -> List[TraceEvent]:
    """Load a JSONL trace export back into TraceEvent objects."""
    events: List[TraceEvent] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            events.append(TraceEvent(
                rec["t"], rec["layer"], rec["node"], rec["kind"],
                rec.get("fields") or {},
            ))
    return events


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return data[lo] * (1 - frac) + data[hi] * frac
