"""Discrete-event simulation substrate.

Every other subsystem in this reproduction (radio, MAC, 6LoWPAN, IPv6,
TCP, CoAP) is driven by the scheduler in :mod:`repro.sim.engine`.  The
engine is deliberately small: a binary-heap event queue with cancellable
events, a simulated clock, and per-simulation deterministic random
number streams (:mod:`repro.sim.rng`).  :mod:`repro.sim.trace` provides
counters, time-series recorders, and the structured event-trace bus;
:mod:`repro.sim.metrics` provides the simulator-scoped metrics registry
(labelled counters/gauges/histograms with deterministic snapshots) that
``benchmarks/perf/test_goldens.py`` turns into a behavioural gate.
See ``docs/observability.md`` for how the pieces fit.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.metrics import MetricsRegistry, diff_snapshots
from repro.sim.rng import RngStreams
from repro.sim.timers import Timer
from repro.sim.trace import (
    Counter,
    SeriesRecorder,
    TraceBus,
    TraceEvent,
    TraceRecorder,
)

__all__ = [
    "Event",
    "Simulator",
    "MetricsRegistry",
    "diff_snapshots",
    "RngStreams",
    "Timer",
    "Counter",
    "SeriesRecorder",
    "TraceBus",
    "TraceEvent",
    "TraceRecorder",
]
