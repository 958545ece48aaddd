"""Span tracer installed from outside the program.

The traced run wraps, from this directory only, the two kinds of
boundary between the repo's layers:

* every callback handed to ``Simulator.schedule`` / ``schedule_unref`` /
  ``schedule_at`` / ``schedule_periodic`` — the ``sim`` -> layer
  boundary.  The span is attributed to the package of the callback's
  module (a ``Timer``'s ``_fire`` is looked through to the timer's own
  ``callback``), so a TCP retransmit timer is ``core`` time, not ``sim``;
* the public cross-layer calls listed in :data:`ENTRY_POINTS`, the
  ``radio.on_frame`` / ``mac.on_receive`` upcall slots, and handlers
  passed to ``Ipv6Layer.register`` / ``CloudHost.register``.

A span's *self* time is its duration minus its child spans.  Aggregates
(calls, total, self per entry point) live for the whole run; raw spans
(id, name, start, end, parent, root) go to a bounded ring.  Nothing
under ``src/`` is edited, and every wrapper calls the original with the
original arguments in the original order, so scheduling order and
``seq`` consumption — the simulated outcome — are unchanged; the
benchmark checks that by comparing simulated counters with the
untraced run.

Every class, method and slot is looked up behind a guard: an entry
point that a later change renames or deletes is skipped and listed
under ``missing`` in the trace file instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import deque
from typing import Callable, Dict, List, Optional

#: the simulated stack, bottom-up; everything above ``core`` (the
#: ``repro.app`` programs, workload drivers, gateway glue) is ``app``
LAYERS = ("sim", "phy", "mac", "lowpan", "net", "core", "app")

#: (module, class, methods) wrapped at class level
ENTRY_POINTS = (
    ("repro.sim.engine", "Simulator", ("run",)),
    ("repro.phy.radio", "Radio",
     ("load", "transmit", "transmit_loaded", "deliver")),
    ("repro.phy.medium", "Medium", ("begin_transmission", "carrier_busy")),
    ("repro.mac.link", "MacLayer", ("send", "send_data_request")),
    ("repro.lowpan.adaptation", "LowpanAdaptation",
     ("send_packet", "send_multicast")),
    ("repro.net.ipv6", "Ipv6Layer",
     ("send", "route_out", "deliver", "forward")),
    ("repro.net.wired", "WiredLink", ("send",)),
    ("repro.net.wired", "CloudHost", ("send", "deliver")),
    ("repro.core.connection", "TcpConnection",
     ("connect", "send", "recv", "output", "on_segment", "close")),
    ("repro.app.sensor", "TcpTransport", ("pull",)),
    ("repro.app.sensor", "CoapTransport", ("pull",)),
    ("repro.app.coap", "CoapClient", ("post",)),
    # upcalls from core into the program on top of it, so that the
    # traffic generators' time is not booked as TCP time
    ("repro.app.sensor", "ReadingServer", ("_on_tcp_data",)),
    ("repro.experiments.workload", "GoodputMeter", ("on_data",)),
    ("repro.experiments.workload", "BulkTransfer", ("_fill",)),
    # the tiers around the stack (not part of the seven-layer shares)
    ("repro.campaign.spec", "CampaignSpec", ("expand",)),
    ("repro.campaign.store", "ResultStore", ("save", "load")),
)

#: scheduling calls, all ``(self, when, fn, *args)``: ``fn`` is wrapped
SCHEDULE_CALLS = ("schedule", "schedule_unref", "schedule_at",
                  "schedule_periodic")

#: classes whose ``register(next_header, handler)`` hands a layer an
#: upcall
REGISTER_CALLS = (("repro.net.ipv6", "Ipv6Layer"),
                  ("repro.net.wired", "CloudHost"))

_clock = time.perf_counter

#: the installed tracer of a traced trial, for code that builds networks
#: where the trial cannot reach them (campaign cells)
ACTIVE: Optional["Tracer"] = None


def layer_of(module: Optional[str]) -> str:
    """The layer a module's time is booked to."""
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro":
        if parts[1] in LAYERS or parts[1] == "campaign":
            return parts[1]
    return "app"


def _target_of(fn):
    """Look through timers and partials to the callable doing the work."""
    for _ in range(4):
        if isinstance(fn, functools.partial):
            fn = fn.func
            continue
        owner = getattr(fn, "__self__", None)
        inner = getattr(owner, "callback", None)
        if (inner is not None
                and type(owner).__module__ == "repro.sim.timers"):
            fn = inner
            continue
        break
    return fn


def _describe(fn) -> str:
    """``layer.Qualified.name`` of a callback."""
    target = _target_of(fn)
    module = getattr(target, "__module__", None)
    if module is None:
        module = type(target).__module__
    name = getattr(target, "__qualname__", None) or type(target).__qualname__
    return f"{layer_of(module)}.{name}"


class Tracer:
    """Aggregates and a bounded ring of raw spans."""

    def __init__(self, ring_size: int = 20000):
        #: name -> [calls, total_s, self_s]
        self.aggregates: Dict[str, List[float]] = {}
        #: open spans, innermost last: [start, child_s, span_id, root_id]
        self.stack: List[list] = []
        self.ring: deque = deque(maxlen=ring_size)
        self.ids = itertools.count(1)
        #: callbacks handed to the scheduler since the last reset
        self.scheduled = 0
        self.missing: List[str] = []
        self._names_by_code: Dict[object, str] = {}

    # -- recording -----------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers keep their slots)."""
        for agg in self.aggregates.values():
            agg[0] = 0
            agg[1] = agg[2] = 0.0
        self.ring.clear()
        self.scheduled = 0

    def _agg(self, name: str) -> List[float]:
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = [0, 0.0, 0.0]
        return agg

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span of ``name`` around every call."""
        agg = self._agg(name)
        stack = self.stack
        ring_append = self.ring.append
        ids = self.ids
        clock = _clock

        def traced(*args, **kwargs):
            span_id = next(ids)
            frame = [0.0, 0.0, span_id,
                     stack[0][2] if stack else span_id]
            stack.append(frame)
            frame[0] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                parent = 0
                if stack:
                    outer = stack[-1]
                    outer[1] += duration
                    parent = outer[2]
                ring_append((span_id, name, frame[0], end, parent,
                             frame[3]))

        traced.bench_traced = True
        return traced

    def wrap_callback(self, fn: Callable) -> Callable:
        """A scheduled callback, booked to the layer that owns it."""
        if getattr(fn, "bench_traced", False):
            return fn  # schedule_unref -> schedule: already wrapped
        self.scheduled += 1
        target = _target_of(fn)
        key = getattr(target, "__code__", None) or type(target)
        name = self._names_by_code.get(key)
        if name is None:
            name = self._names_by_code[key] = _describe(fn) + "()"
        return self.wrap(fn, name)

    # -- installation --------------------------------------------------

    def _lookup(self, module: str, cls: str):
        try:
            return getattr(importlib.import_module(module), cls)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{cls}")
            return None

    def install(self) -> "Tracer":
        """Wrap every entry point that exists; returns self."""
        for module, cls_name, methods in ENTRY_POINTS:
            cls = self._lookup(module, cls_name)
            if cls is None:
                continue
            layer = layer_of(module)
            for method in methods:
                if method not in cls.__dict__:
                    self.missing.append(f"{module}.{cls_name}.{method}")
                    continue
                setattr(cls, method, self.wrap(
                    cls.__dict__[method], f"{layer}.{cls_name}.{method}"))
        self._install_scheduling()
        for module, cls_name in REGISTER_CALLS:
            cls = self._lookup(module, cls_name)
            if cls is not None and "register" in cls.__dict__:
                setattr(cls, "register",
                        self._wrap_register(cls.__dict__["register"]))
        code_salt = self._lookup("repro.campaign.store", "code_salt")
        if code_salt is not None:
            setattr(importlib.import_module("repro.campaign.store"),
                    "code_salt", self.wrap(code_salt, "campaign.code_salt"))
        return self

    def _install_scheduling(self) -> None:
        engine = self._lookup("repro.sim.engine", "Simulator")
        if engine is None:
            return
        kernels = [engine]
        for cls in kernels:  # every kernel class already imported
            kernels.extend(cls.__subclasses__())
        for cls in kernels:
            for method in SCHEDULE_CALLS:
                if method in cls.__dict__:
                    setattr(cls, method, self._wrap_schedule(
                        cls.__dict__[method], f"sim.{method}"))
        event = self._lookup("repro.sim.engine", "Event")
        if event is not None and "cancel" in event.__dict__:
            setattr(event, "cancel",
                    self.wrap(event.__dict__["cancel"], "sim.cancel"))

    def _wrap_schedule(self, original, name: str):
        timed = self.wrap(original, name)
        wrap_callback = self.wrap_callback

        def schedule(sim, when, fn, *args):
            return timed(sim, when, wrap_callback(fn), *args)

        return schedule

    def _wrap_register(self, original):
        def register(layer, next_header, handler):
            name = _describe(handler) + "<-net"
            return original(layer, next_header, self.wrap(handler, name))

        return register

    def instrument_network(self, net) -> None:
        """Wrap the upcall slots of a built network's nodes."""
        for node in net.nodes.values():
            for owner, slot, source in ((node.radio, "on_frame", "phy"),
                                        (node.mac, "on_receive", "mac")):
                handler = getattr(owner, slot, None)
                if handler is None:
                    self.missing.append(f"slot {slot} on node "
                                        f"{node.node_id}")
                elif not getattr(handler, "bench_traced", False):
                    setattr(owner, slot, self.wrap(
                        handler, f"{_describe(handler)}<-{source}"))

    # -- reporting -----------------------------------------------------

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """calls / total / self per layer, and each layer's share of the
        seven-layer self time."""
        table = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for layer in LAYERS + ("campaign",)}
        for name, (calls, total, self_s) in self.aggregates.items():
            row = table[name.split(".", 1)[0]]
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += self_s
        stack_self = sum(table[layer]["self_s"] for layer in LAYERS)
        for layer in LAYERS:
            table[layer]["self_share"] = (
                table[layer]["self_s"] / stack_self if stack_self else 0.0)
        return table

    def calls(self, name: str) -> int:
        agg = self.aggregates.get(name)
        return int(agg[0]) if agg else 0

    def total_s(self, name: str) -> float:
        agg = self.aggregates.get(name)
        return agg[1] if agg else 0.0

    def snapshot(self) -> Dict:
        """The content of ``BENCH_trace_<workload>.json`` as of now, plus
        the number of callbacks scheduled."""
        entry_points = {
            name: {"calls": int(calls), "total_s": total, "self_s": self_s}
            for name, (calls, total, self_s)
            in sorted(self.aggregates.items()) if calls
        }
        return {
            "scheduled": self.scheduled,
            "layers": self.layer_table(),
            "entry_points": entry_points,
            "missing": sorted(set(self.missing)),
            "span_fields": ["id", "name", "start_s", "end_s", "parent_id",
                            "root_id"],
            "spans_recorded": sum(int(a[0])
                                  for a in self.aggregates.values()),
            "spans": [list(span) for span in self.ring],
        }
