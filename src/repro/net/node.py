"""Node assembly: radio + MAC + 6LoWPAN + IPv6 + transports.

A :class:`Node` is one embedded device (Hamilton-class).  Roles differ
only in configuration:

* **router** — always-on radio, forwards fragments;
* **border router** — a router with wired links; it reassembles
  datagrams leaving the mesh;
* **leaf** — a sleepy end device created with :meth:`Node.make_sleepy`,
  which duty-cycles the radio around Thread data-request polling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.lowpan.adaptation import LowpanAdaptation
from repro.mac.link import MacLayer, MacParams
from repro.mac.poll import PollParams, SleepyEndDevice
from repro.net.ipv6 import Ipv6Layer, Ipv6Packet
from repro.net.queues import RedParams, RedQueue
from repro.net.udp import UdpStack
from repro.phy.medium import Medium
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder


@dataclass(slots=True)
class NodeConfig:
    """Per-node configuration."""

    mac: MacParams = field(default_factory=MacParams)
    poll: PollParams = field(default_factory=PollParams)
    phy: Optional[object] = None  # PhyParams override (platform profiles)
    deaf_csma: bool = False  # reproduce the broken hardware-CSMA radio (§4)
    reassemble_per_hop: bool = False  # Appendix A relay mode
    red: Optional[RedParams] = None  # RED forward queue (implies per-hop)
    reassembly_timeout: float = 5.0
    cpu_per_packet: float = 0.0005  # network-layer processing charge


class Node:
    """One simulated embedded device."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        rng: RngStreams,
        node_id: int,
        position: tuple,
        routing,
        config: Optional[NodeConfig] = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.config = config or NodeConfig()
        self.trace = TraceRecorder()
        self.rng = rng
        self.radio = Radio(
            sim, medium, node_id, position,
            params=self.config.phy, deaf_csma=self.config.deaf_csma,
        )
        self.mac = MacLayer(sim, self.radio, rng, params=self.config.mac, trace=self.trace)
        self.routing = routing
        self.ipv6 = Ipv6Layer(sim, node_id, routing, trace=self.trace)
        self.adaptation = LowpanAdaptation(
            sim,
            self.mac,
            node_id,
            route_lookup=self._route_lookup,
            deliver_up=self._deliver_up,
            trace=self.trace,
            reassemble_per_hop=self.config.reassemble_per_hop or self.config.red is not None,
            should_reassemble=self._should_reassemble,
            reassembly_timeout=self.config.reassembly_timeout,
        )
        self.ipv6.adaptation = self.adaptation
        if self.config.red is not None:
            self.ipv6.forward_queue = RedQueue(self.config.red, rng, stream=f"red:{node_id}")
        self.udp = UdpStack(self.ipv6)
        self.sleepy: Optional[SleepyEndDevice] = None
        if sim.metrics is not None:
            self.export_metrics(sim.metrics)

    def export_metrics(self, metrics) -> None:
        """Register this node's counters and gauge collectors with
        ``metrics``: at construction, or when a registry is attached to
        a built network
        (:meth:`~repro.experiments.topology.Network.attach_metrics`)."""
        metrics.pull_counters("node", self.node_id, self.trace.counters)
        metrics.register_collector(self.radio.collect_metrics)
        if self.ipv6.forward_queue is not None:
            metrics.register_collector(self._collect_queue_metrics)
        if self.sleepy is not None:
            metrics.pull_counters("poll", self.node_id, self.trace.counters)

    def _collect_queue_metrics(self, metrics) -> None:
        """Export forward-queue state as gauges (snapshot-time pull)."""
        queue = self.ipv6.forward_queue
        metrics.gauge("net.forward_queue_depth", node=self.node_id).set(
            len(queue)
        )
        metrics.gauge("net.queue_drops_total", node=self.node_id).set(
            queue.drops
        )
        avg = getattr(queue, "avg", None)
        if avg is not None:
            metrics.gauge("net.red_avg_depth", node=self.node_id).set(avg)
            metrics.gauge("net.red_marks_total", node=self.node_id).set(
                queue.marks
            )

    # ------------------------------------------------------------------
    # wiring helpers
    # ------------------------------------------------------------------
    def _route_lookup(self, dst: int) -> Optional[int]:
        return self.routing.next_hop(self.node_id, dst)

    def _should_reassemble(self, final_dst: int) -> bool:
        if final_dst == self.node_id:
            return True
        # Border router: datagrams whose next hop leaves the mesh are
        # reassembled here before crossing the wired link.
        next_hop = self.routing.next_hop(self.node_id, final_dst)
        return next_hop is not None and next_hop in self.ipv6.wired_links

    def _deliver_up(self, packet: Ipv6Packet) -> None:
        self.radio.cpu.charge(self.config.cpu_per_packet)
        self.ipv6.deliver(packet)

    def make_sleepy(self, parent: "Node", poll: Optional[PollParams] = None) -> None:
        """Turn this node into a sleepy end device attached to ``parent``."""
        params = poll or self.config.poll
        parent.mac.mark_sleepy_child(self.node_id)
        self.sleepy = SleepyEndDevice(self.sim, self.mac, parent.node_id, params)
        if self.sim.metrics is not None:
            self.sim.metrics.pull_counters("poll", self.node_id,
                                           self.trace.counters)

    def add_wired_link(self, peer_id: int, link) -> None:
        """Attach a wired link (this node becomes a border router)."""
        self.ipv6.wired_links[peer_id] = link
        link.connect(self.node_id, self.ipv6.deliver)

    # ------------------------------------------------------------------
    # fault injection: crash and reboot
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power-fail this node: radio off, volatile state wiped.

        Everything a real mote keeps in RAM disappears — the MAC queue
        and dedup table, partial 6LoWPAN reassemblies, the forwarding
        queue, and every TCP connection (no FIN/RST is sent; peers must
        discover the loss via their own timers).  The object graph
        itself survives so :meth:`reboot` can cold-start the same node.
        """
        self.radio.power_off()
        self.mac.reset()
        self.mac.paused = True  # nothing transmits until reboot
        if self.sleepy is not None:
            self.sleepy.halt()
        self.adaptation.reassembler.clear()
        self.adaptation._forward_tags.clear()
        if self.ipv6.forward_queue is not None:
            while self.ipv6.forward_queue.dequeue() is not None:
                pass
        self.ipv6._forward_busy = False
        for stack in list(self.ipv6.tcp_stacks):
            stack.crash()

    def reboot(self) -> None:
        """Cold-start after :meth:`crash`: radio on, MAC unblocked,
        sleepy polling restarted.  TCP connections are *not* restored —
        applications must reconnect, exactly as on real hardware."""
        self.radio.power_on()
        self.mac.paused = False
        if self.sleepy is not None:
            self.sleepy.restart()
        else:
            self.mac._kick()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def radio_duty_cycle(self) -> float:
        """Fraction of time the radio was awake."""
        return self.radio.energy.radio_duty_cycle()

    def cpu_duty_cycle(self) -> float:
        """Fraction of time the CPU was busy."""
        return self.radio.cpu.cpu_duty_cycle()

    def reset_meters(self) -> None:
        """Restart energy/CPU accounting (exclude warm-up)."""
        self.radio.energy.reset()
        self.radio.cpu.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id}>"
