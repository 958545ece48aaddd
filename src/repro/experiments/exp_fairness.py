"""Table 9 and Appendix A: competing TCP flows, RED, and ECN.

Two flows transfer upstream to the border router simultaneously:

* one hop — both senders adjacent to the border router;
* three hops — both senders behind a shared two-hop relay chain
  (all but the first hop in common, §A).

With the paper's 4-segment windows, sharing is fair and efficient;
with 7-segment windows, relay tail drops make it erratic; RED with ECN
on the relays (and per-hop reassembly, which the paper added to
OpenThread for this) restores fairness and keeps the RTT near 1 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api import (
    BulkTransfer,
    Network,
    RngStreams,
    Simulator,
    tcplp_params,
)
from repro.net.node import Node, NodeConfig
from repro.net.queues import RedParams
from repro.net.routing import StaticRouting
from repro.phy.medium import Medium
from repro.sim.trace import percentile


def _build_fairness_net(
    hops: int,
    seed: int,
    red: Optional[RedParams],
    retry_delay: float = 0.04,
) -> Network:
    """Border router 0; senders A and B share all but the first hop."""
    sim = Simulator()
    rng = RngStreams(seed)
    medium = Medium(sim, rng=rng, comm_range=10.0)
    routing = StaticRouting()

    def config(is_relay: bool) -> NodeConfig:
        cfg = NodeConfig()
        cfg.mac.retry_delay = retry_delay
        if is_relay:
            # embedded relays buffer only a handful of packets; this is
            # where the tail drops behind Table 9's w=7 unfairness live
            cfg.mac.tx_queue_limit = 16
            if red is not None:
                cfg.red = RedParams(**vars(red))
        return cfg

    nodes: Dict[int, Node] = {}
    if hops == 1:
        positions = {0: (0.0, 0.0), 10: (6.0, 0.0), 11: (0.0, 6.0)}
        relays: List[int] = []
        for nid, pos in positions.items():
            nodes[nid] = Node(sim, medium, rng, nid, pos, routing, config(False))
        routing.add_path([10, 0])
        routing.add_path([11, 0])
    elif hops == 3:
        positions = {
            0: (0.0, 0.0), 1: (8.0, 0.0), 2: (16.0, 0.0),
            10: (24.0, 0.0), 11: (22.0, 6.0),
        }
        relays = [1, 2]
        for nid, pos in positions.items():
            nodes[nid] = Node(sim, medium, rng, nid, pos, routing,
                              config(nid in relays))
        routing.add_path([10, 2, 1, 0])
        routing.add_path([11, 2, 1, 0])
    else:
        raise ValueError("fairness experiments use 1 or 3 hops")
    return Network(sim, rng, medium, nodes, routing, border_id=0)


@dataclass
class _FairnessResult:
    """Outcome of one two-flow experiment (one Table 9 row pair)."""

    hops: int
    window_segments: int
    red: bool
    goodput_a_kbps: float
    goodput_b_kbps: float
    loss_a: float
    loss_b: float
    rtt_a_median: float
    rtt_b_median: float

    @property
    def aggregate_kbps(self) -> float:
        return self.goodput_a_kbps + self.goodput_b_kbps

    @property
    def fairness_ratio(self) -> float:
        """min/max goodput share (1.0 = perfectly fair)."""
        lo = min(self.goodput_a_kbps, self.goodput_b_kbps)
        hi = max(self.goodput_a_kbps, self.goodput_b_kbps)
        return lo / hi if hi > 0 else 1.0

    @property
    def jain_index(self) -> float:
        """Jain's fairness index over the two flows."""
        a, b = self.goodput_a_kbps, self.goodput_b_kbps
        if a + b == 0:
            return 1.0
        return (a + b) ** 2 / (2 * (a * a + b * b))


def _run_two_flows(
    hops: int,
    window_segments: int = 4,
    red: bool = False,
    ecn: bool = True,
    seed: int = 0,
    warmup: float = 10.0,
    duration: float = 120.0,
) -> _FairnessResult:
    """Run two simultaneous upstream flows and measure sharing."""
    red_params = RedParams(use_ecn=ecn) if red else None
    net = _build_fairness_net(hops, seed, red_params)
    params = tcplp_params(window_segments=window_segments, ecn=red and ecn)
    xfers = []
    for port, sender in ((8000, 10), (8001, 11)):
        xfers.append(BulkTransfer(
            net.sim, net.tcp_stack(sender), net.tcp_stack(0),
            receiver_id=0, port=port, params=params,
            receiver_params=tcplp_params(
                window_segments=window_segments, ecn=red and ecn
            ),
        ))
    net.sim.run(until=warmup)
    for x in xfers:
        x.meter.start()
    bases = []
    for x in xfers:
        bases.append(dict(x.connection.trace.counters.as_dict()))
    rtt_marks = [len(x.connection.trace.series("tcp.rtt")) for x in xfers]
    net.sim.run(until=warmup + duration)

    stats = []
    for x, base, mark in zip(xfers, bases, rtt_marks):
        counters = x.connection.trace.counters
        segs = counters.get("tcp.data_segs_sent") - base.get("tcp.data_segs_sent", 0)
        retx = counters.get("tcp.retransmits") - base.get("tcp.retransmits", 0)
        rtts = x.connection.trace.series("tcp.rtt").values[mark:]
        stats.append({
            "goodput": x.meter.goodput_bps() / 1000.0,
            "loss": retx / segs if segs else 0.0,
            "rtt_median": percentile(rtts, 50) if rtts else 0.0,
        })
    return _FairnessResult(
        hops=hops,
        window_segments=window_segments,
        red=red,
        goodput_a_kbps=stats[0]["goodput"],
        goodput_b_kbps=stats[1]["goodput"],
        loss_a=stats[0]["loss"],
        loss_b=stats[1]["loss"],
        rtt_a_median=stats[0]["rtt_median"],
        rtt_b_median=stats[1]["rtt_median"],
    )


def _run_single_flow_baseline(
    hops: int, seed: int = 0, duration: float = 120.0
) -> float:
    """One flow alone (the Table 9 'A' / 'B' single-flow rows), kb/s."""
    net = _build_fairness_net(hops, seed, None)
    params = tcplp_params()
    xfer = BulkTransfer(net.sim, net.tcp_stack(10), net.tcp_stack(0),
                        receiver_id=0, params=params,
                        receiver_params=tcplp_params())
    return xfer.measure(10.0, duration).goodput_kbps


def run_table9(seed: int = 0, duration: float = 120.0) -> List[Dict]:
    """Table 9 plus the Appendix A RED/ECN rows."""
    rows = []
    for hops in (1, 3):
        solo = _run_single_flow_baseline(hops, seed=seed, duration=duration)
        rows.append({"hops": hops, "config": "single flow",
                     "goodput_kbps": solo})
        for window, red in ((4, False), (7, False), (7, True)):
            r = _run_two_flows(hops, window_segments=window, red=red,
                              seed=seed, duration=duration)
            rows.append({
                "hops": hops,
                "config": f"2 flows w={window}" + (" +RED/ECN" if red else ""),
                "goodput_kbps": r.aggregate_kbps,
                "flow_a_kbps": r.goodput_a_kbps,
                "flow_b_kbps": r.goodput_b_kbps,
                "fairness_ratio": r.fairness_ratio,
                "jain": r.jain_index,
                "rtt_median": max(r.rtt_a_median, r.rtt_b_median),
            })
    return rows
