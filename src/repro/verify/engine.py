"""Live cross-layer invariant engine.

An :class:`InvariantEngine` watches one built
:class:`~repro.experiments.topology.Network` while it runs:

* a cheap periodic sweep (default every 0.5 sim-seconds) runs every
  probe in :mod:`repro.verify.probes` over every node — TCP
  connections, 6LoWPAN reassembly buffers, MAC ACK machinery and the
  scheduler itself;
* when the PR 2 observability :class:`~repro.sim.trace.TraceBus` is
  attached, the engine additionally subscribes to it and re-probes just
  the layer/node a trace event touched, so a violation is pinned to
  within one event of its cause rather than one sweep interval.

Disabled is free: no engine object means no timer, no subscription and
no per-event work (the ``disabled-is-a-None-check`` pattern used by
metrics and faults).  Violations are collected as structured
:class:`Violation` records, capped at ``max_violations`` so a
catastrophically broken run cannot eat the heap; the cap is recorded
as a final sentinel violation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.verify import probes as _probes


class Violation:
    """One observed invariant violation, pinned to (time, layer, node)."""

    __slots__ = ("time", "layer", "node", "probe", "detail")

    def __init__(self, time: float, layer: str, node: int, probe: str,
                 detail: str):
        self.time = time
        self.layer = layer
        self.node = node
        self.probe = probe
        self.detail = detail

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form (campaign run lines, soak artifacts, triage)."""
        return {
            "time": round(self.time, 6),
            "layer": self.layer,
            "node": self.node,
            "probe": self.probe,
            "detail": self.detail,
        }


class InvariantEngine:
    """Periodic + trace-triggered invariant checking for one network."""

    def __init__(self, net, interval: float = 0.5,
                 max_violations: int = 200,
                 on_violation: Optional[Callable[[Violation], None]] = None):
        if interval <= 0:
            raise ValueError("check interval must be positive")
        self.net = net
        self.sim = net.sim
        self.interval = interval
        self.max_violations = max_violations
        #: optional hook fired (bounded) once per recorded violation
        self.on_violation = on_violation
        self.violations: List[Violation] = []
        self.checks_run = 0
        self._last_now = self.sim.now
        self._event = None
        self._subscribed = False
        self._truncated = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InvariantEngine":
        """Arm the periodic sweep and (if present) the trace subscription."""
        if self._event is None or not self._event.pending:
            self._event = self.sim.schedule_periodic(
                self.interval, self._tick)
        bus = getattr(self.sim, "trace_bus", None)
        if bus is not None and not self._subscribed:
            bus.subscribe(self._on_trace_event)
            self._subscribed = True
        return self

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def _check_now(self) -> List[Violation]:
        """Run every probe once; returns violations found *this* sweep."""
        found_before = len(self.violations)
        self.checks_run += 1
        self._report("kernel", -1, "probe_kernel",
                     _probes.probe_kernel(self.sim, self._last_now))
        self._last_now = self.sim.now
        for node_id, node in self.net.nodes.items():
            self._check_node_layer(node_id, node, "tcp")
            self._check_node_layer(node_id, node, "lowpan")
            self._check_node_layer(node_id, node, "mac")
        cloud = getattr(self.net, "cloud", None)
        if cloud is not None:
            cloud_id = getattr(cloud, "node_id", -1)
            self._check_node_layer(cloud_id, cloud, "tcp")
        return self.violations[found_before:]

    def _tick(self) -> None:
        self._check_now()

    def _on_trace_event(self, ev) -> None:
        """Targeted re-probe of the layer/node a trace event touched."""
        if ev.layer not in ("tcp", "lowpan", "mac"):
            return
        node = self.net.nodes.get(ev.node)
        if node is None:
            return
        self.checks_run += 1
        self._check_node_layer(ev.node, node, ev.layer)

    def _check_node_layer(self, node_id: int, node, layer: str) -> None:
        if layer == "tcp":
            stack = getattr(getattr(node, "ipv6", node), "tcp_stack", None)
            if stack is not None:
                self._report("tcp", node_id, "probe_tcp_stack",
                             _probes.probe_tcp_stack(stack))
        elif layer == "lowpan":
            adaptation = getattr(node, "adaptation", None)
            if adaptation is not None:
                self._report("lowpan", node_id, "probe_reassembler",
                             _probes.probe_reassembler(
                                 adaptation.reassembler))
        elif layer == "mac":
            mac = getattr(node, "mac", None)
            if mac is not None:
                self._report("mac", node_id, "probe_mac",
                             _probes.probe_mac(mac))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _report(self, layer: str, node: int, probe: str,
                details: List[str]) -> None:
        for detail in details:
            if len(self.violations) >= self.max_violations:
                if not self._truncated:
                    self._truncated = True
                    self.violations.append(Violation(
                        self.sim.now, "verify", -1, "engine",
                        f"violation cap {self.max_violations} reached; "
                        f"further violations dropped"))
                return
            v = Violation(self.sim.now, layer, node, probe, detail)
            self.violations.append(v)
            if self.on_violation is not None:
                self.on_violation(v)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """True while no violation has been recorded."""
        return not self.violations

    def first_violation(self) -> Optional[Violation]:
        """Earliest recorded violation (triage replays up to here)."""
        return self.violations[0] if self.violations else None

    def summary(self) -> Dict[str, object]:
        """JSON-ready digest for soak artifacts."""
        return {
            "checks_run": self.checks_run,
            "violations": [v.as_dict() for v in self.violations],
        }
