"""Drives a :class:`FaultSchedule` through a built network.

The injector installs the stochastic models on the medium, schedules
the timed injections (link flaps, node crash/reboot) on the simulator,
and keeps its own chronological log of ``layer="fault"``
:class:`~repro.sim.trace.TraceEvent` records — the log exists even when
no TraceBus is attached, so the chaos CI job can always export a JSONL
artifact.  When the PR 2 observability layer *is* attached, every
injection is mirrored onto the bus and counted in the
``fault.injections{kind=...}`` metric.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.faults.models import FrameCorruption, GilbertElliottLoss, SkewedClock
from repro.faults.schedule import FaultSchedule
from repro.phy.medium import UniformLoss
from repro.sim.trace import TraceEvent, write_jsonl


class FaultInjector:
    """Arms one schedule on one network; collect the log afterwards."""

    def __init__(self, net, schedule: FaultSchedule):
        self.net = net
        self.schedule = schedule
        self.sim = net.sim
        #: chronological fault log (always kept, bus or no bus)
        self.events: List[TraceEvent] = []
        #: per-kind injection counts (quick summary without the log)
        self.counts: Dict[str, int] = {}
        #: models installed by :meth:`arm`, for tests/introspection
        self.models: List[object] = []
        self.clocks: Dict[int, SkewedClock] = {}
        self._armed = False
        self._bus = getattr(net.sim, "trace_bus", None)
        self._metrics = getattr(net.sim, "metrics", None)

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Install all faults; idempotent per injector instance.

        Must run before TCP stacks are built for ``clock_drift`` to
        take effect (connections capture their timestamp clock at
        construction) — the topology builders arm auto-registered
        schedules at build time, which satisfies this.
        """
        if self._armed:
            return self
        self._armed = True
        rng = self.net.rng
        medium = self.net.medium
        for i, fault in enumerate(self.schedule.faults):
            kind = fault["kind"]
            if kind == "bursty_loss":
                model = GilbertElliottLoss(
                    fault["p_good_bad"], fault["p_bad_good"], rng,
                    loss_good=fault["loss_good"], loss_bad=fault["loss_bad"],
                    link=fault["link"], stream=f"fault-ge:{i}",
                    at=fault["at"], until=fault["until"],
                )
                medium.loss_models.append(model)
                self.models.append(model)
                self._record(kind, -1, index=i,
                             stationary=round(model.stationary_loss_rate(), 6))
            elif kind == "uniform_loss":
                model = _WindowedUniformLoss(
                    fault["rate"], rng, link=fault["link"],
                    stream=f"fault-uniform:{i}",
                    at=fault["at"], until=fault["until"],
                )
                medium.loss_models.append(model)
                self.models.append(model)
                self._record(kind, -1, index=i, rate=fault["rate"])
            elif kind == "frame_corruption":
                model = FrameCorruption(
                    fault["rate"], rng,
                    truncate_rate=fault["truncate_rate"],
                    link=fault["link"], stream=f"fault-corrupt:{i}",
                    at=fault["at"], until=fault["until"],
                    on_corrupt=self._on_corrupt,
                    clock=self._clock_now,
                )
                medium.frame_filters.append(model)
                self.models.append(model)
                self._record(kind, -1, index=i, rate=fault["rate"])
            elif kind == "link_flap":
                self._arm_link_flap(fault)
            elif kind == "node_reboot":
                self._arm_node_reboot(fault)
            elif kind == "clock_drift":
                self._arm_clock_drift(fault)
        return self

    def _arm_link_flap(self, fault: Dict[str, object]) -> None:
        a, b = fault["a"], fault["b"]
        period = fault["repeat_every"] or 0.0
        for i in range(fault["count"]):
            down_at = fault["at"] + i * period
            self.sim.schedule_at(down_at, self._flap_down, a, b)
            self.sim.schedule_at(
                down_at + fault["down_for"], self._flap_up, a, b)

    def _arm_node_reboot(self, fault: Dict[str, object]) -> None:
        node_id = fault["node"]
        if node_id not in self.net.nodes:
            raise ValueError(f"node_reboot: unknown node {node_id}")
        self.sim.schedule_at(fault["at"], self._crash, node_id)
        self.sim.schedule_at(
            fault["at"] + fault["outage"], self._reboot, node_id)

    def _arm_clock_drift(self, fault: Dict[str, object]) -> None:
        node_id = fault["node"]
        if node_id not in self.net.nodes:
            raise ValueError(f"clock_drift: unknown node {node_id}")
        clock = SkewedClock(skew=fault["skew"], offset_ms=fault["offset_ms"])
        self.net.nodes[node_id].ipv6.ts_clock = clock
        self.clocks[node_id] = clock
        self._record("clock_drift", node_id,
                     skew=fault["skew"], offset_ms=fault["offset_ms"])

    # ------------------------------------------------------------------
    # scheduled injections
    # ------------------------------------------------------------------
    def _flap_down(self, a: int, b: int) -> None:
        self.net.medium.block_link(a, b)
        self._record("link_down", -1, a=a, b=b)

    def _flap_up(self, a: int, b: int) -> None:
        self.net.medium.unblock_link(a, b)
        self._record("link_up", -1, a=a, b=b)

    def _crash(self, node_id: int) -> None:
        self.net.nodes[node_id].crash()
        self._record("node_crash", node_id)

    def _reboot(self, node_id: int) -> None:
        self.net.nodes[node_id].reboot()
        self._record("node_reboot", node_id)

    def _on_corrupt(self, sender: int, receiver: int, kind: str) -> None:
        self._record("frame_corrupted", receiver, sender=sender, mode=kind)

    def _clock_now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def _record(self, kind: str, node: int, **fields) -> None:
        self.events.append(
            TraceEvent(self.sim.now, "fault", node, kind, fields))
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self._bus is not None:
            self._bus.emit("fault", node, kind, **fields)
        if self._metrics is not None:
            self._metrics.counter("fault.injections", kind=kind).inc()

    def to_jsonl(self, path) -> int:
        """Export the fault log as JSON Lines; returns the line count."""
        return write_jsonl(self.events, path)

    def summary(self) -> Dict[str, int]:
        """Injection counts by kind (sorted copy, snapshot-friendly)."""
        return dict(sorted(self.counts.items()))


class _WindowedUniformLoss(UniformLoss):
    """UniformLoss with the schedule's [at, until) active window."""

    def __init__(self, rate, rng, link=None, stream="fault-uniform",
                 at: float = 0.0, until: Optional[float] = None):
        super().__init__(rate, rng, link=link, stream=stream)
        self.at = at
        self.until = until

    def __call__(self, sender: int, receiver: int, now: float) -> bool:
        if now < self.at or (self.until is not None and now >= self.until):
            return False
        return super().__call__(sender, receiver, now)
