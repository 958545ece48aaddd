"""The §9 application study: anemometers over TCPlp vs CoAP vs CoCoA.

Reproduces (Figures 8 and 9 one point a run, as
``exp_cells.app_cell``):

* Figure 8 — radio/CPU duty cycle with and without batching
  (favourable conditions);
* Figure 9 — reliability, transport retransmissions, radio duty
  cycle, and CPU duty cycle as uniform packet loss is injected at the
  border router (0-21 %);
* Table 8 / Figure 10 — a day in a lossy environment (diurnal
  interference profile), including the unreliable (nonconfirmable
  CoAP) rows;
* the §9.6 cost-of-reliability comparison.

Four leaves (nodes 12-15) sample at 1 Hz and ship readings to a cloud
server through a 3-5 hop mesh, exactly the Figure 3 topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.app.coap import CoapClient
from repro.app.cocoa import CocoaRtoEstimator
from repro.app.sensor import (
    AnemometerConfig,
    AnemometerNode,
    CoapTransport,
    ReadingServer,
    TcpTransport,
)
from repro.api import (
    CLOUD_ID,
    Network,
    build_testbed,
    linux_like_params,
    tcplp_params,
)
from repro.mac.poll import PollParams

#: §9.2: leaves fast-poll at 100 ms while a transport ACK is expected
LEAF_POLL = PollParams(poll_interval=240.0, fast_poll_interval=0.1,
                       listen_window=0.1)


@dataclass
class _AppRunResult:
    """Per-protocol outcome of one application-study run."""

    protocol: str
    reliability: float
    radio_duty_cycle: float
    cpu_duty_cycle: float
    retransmissions: int
    rto_events: int
    generated: int
    delivered: int
    overflowed: int
    #: data messages the leaves put on the air (TCP data segments or
    #: CoAP messages, retransmissions included): generated readings per
    #: message says how full they were
    data_segments: int
    #: frames the leaves' MAC queues refused (a burst outran the radio)
    mac_tail_drops: int


def _leaf_duty_cycles(net: Network) -> Dict[str, float]:
    leaves = [net.nodes[leaf] for leaf in net.leaf_ids]
    return {
        "radio": sum(n.radio_duty_cycle() for n in leaves) / len(leaves),
        "cpu": sum(n.cpu_duty_cycle() for n in leaves) / len(leaves),
    }


def run_app_study(
    protocol: str,
    batching: bool = True,
    injected_loss: float = 0.0,
    duration: float = 1800.0,
    warmup: float = 120.0,
    seed: int = 0,
    mss_frames: int = 5,
    confirmable: bool = True,
    sample_interval: float = 1.0,
) -> _AppRunResult:
    """One run of the §9 workload.

    ``protocol`` is "tcp", "coap", or "cocoa"; ``confirmable=False``
    with "coap" gives Table 8's unreliable rows.  ``injected_loss`` is
    the §9.4 uniform packet loss at the border router.
    """
    if protocol not in ("tcp", "coap", "cocoa"):
        raise ValueError(f"unknown protocol {protocol}")
    net = build_testbed(seed=seed, leaf_poll=LEAF_POLL, wired_loss=injected_loss)
    server = ReadingServer(net.sim)
    apps = _deploy(net, server, protocol, mss_frames, confirmable, batching,
                   sample_interval)

    net.sim.run(until=warmup)
    net.reset_meters()
    delivered_before = server.total_readings()
    generated_before = sum(a.generated for a in apps)
    before = _leaf_counters(net)
    net.sim.run(until=warmup + duration)

    generated = sum(a.generated for a in apps) - generated_before
    delivered = server.total_readings() - delivered_before
    counts = {name: value - before[name]
              for name, value in _leaf_counters(net).items()}
    duty = _leaf_duty_cycles(net)
    return _AppRunResult(
        protocol=protocol if confirmable else f"{protocol}-unreliable",
        reliability=min(1.0, delivered / generated) if generated else 1.0,
        radio_duty_cycle=duty["radio"],
        cpu_duty_cycle=duty["cpu"],
        generated=generated,
        delivered=delivered,
        overflowed=sum(a.overflowed for a in apps),
        **counts,
    )


def _deploy(net: Network, server: ReadingServer, protocol: str,
            mss_frames: int, confirmable: bool, batching: bool,
            sample_interval: float = 1.0) -> List[AnemometerNode]:
    """The §9 deployment on a testbed: ``server`` on the cloud, and an
    anemometer on every leaf over ``protocol`` ("tcp", "coap", or
    "cocoa", which is CoAP with CoCoA's RTO estimator)."""
    if protocol == "tcp":
        server.attach_tcp(net.tcp_stack(CLOUD_ID, linux_like_params()),
                          port=8000)
    else:
        server.attach_coap(net.udp_stack(CLOUD_ID))
    apps = []
    for idx, leaf_id in enumerate(net.leaf_ids):
        leaf = net.nodes[leaf_id]
        if protocol == "tcp":
            transport = TcpTransport(
                net.sim, net.tcp_stack(leaf_id), CLOUD_ID, server_port=8000,
                params=tcplp_params(mss_frames=mss_frames, to_cloud=True),
            )
            queue_capacity = 64
        else:
            client = CoapClient(
                net.sim, leaf.udp, net.rng, CLOUD_ID,
                rto_estimator=CocoaRtoEstimator() if protocol == "cocoa" else None,
                trace=leaf.trace,
                on_ack_waiting=leaf.sleepy.set_fast_poll if leaf.sleepy else None,
            )
            transport = CoapTransport(client, confirmable=confirmable)
            queue_capacity = 104
        app = AnemometerNode(net.sim, transport, AnemometerConfig(
            queue_capacity=queue_capacity, batching=batching, batch_size=64,
            sample_interval=sample_interval,
            readings_per_message=_readings_per_message(mss_frames),
        ))
        # unsynchronised boot: stagger drains across the batch period
        app.start(phase=idx * sample_interval * 64 / len(net.leaf_ids))
        apps.append(app)
    return apps


def _readings_per_message(mss_frames: int) -> int:
    from repro.api import mss_for_frames

    return max(1, mss_for_frames(mss_frames, to_cloud=True) // 82)


#: _AppRunResult field -> the leaf counters it sums (both transports and
#: the MAC record into their leaf node's TraceRecorder)
_LEAF_COUNTERS = {
    "retransmissions": ("tcp.retransmits", "coap.retransmissions"),
    "rto_events": ("tcp.rto_events",),
    "data_segments": ("tcp.data_segs_sent", "coap.messages_sent"),
    "mac_tail_drops": ("mac.tail_drops",),
}


def _leaf_counters(net: Network) -> Dict[str, int]:
    """The leaves' transport and MAC-queue counters, summed."""
    traces = [net.nodes[leaf_id].trace.counters for leaf_id in net.leaf_ids]
    return {
        field: sum(t.get(name) for t in traces for name in names)
        for field, names in _LEAF_COUNTERS.items()
    }


#: A diurnal interference profile: (start_hour, loss_rate); §9.5 runs
#: during office hours see much more loss than night hours.  Peaks stay
#: at/below 10% — the paper "had not observed the loss rate exceed 15%
#: for an extended time" and reliable transports deliver ~99% all day.
DIURNAL_PROFILE = [
    (0, 0.01), (7, 0.04), (9, 0.08), (12, 0.06),
    (14, 0.10), (17, 0.05), (20, 0.02),
]


def run_fig10_daylong(
    protocol: str,
    hours: float = 24.0,
    seconds_per_hour: float = 300.0,
    seed: int = 0,
    confirmable: bool = True,
    batching: bool = True,
) -> List[Dict]:
    """Figure 10: a (scaled) day in a lossy environment, one row an
    hour.

    ``seconds_per_hour`` compresses each simulated 'hour'; the diurnal
    loss profile is applied to the border-router link hour by hour,
    and the leaf radio duty cycle is sampled per hour.  An hourly
    ``reliability`` charges a batch still queued when the hour ends to
    that hour.  ``run_reliability`` is the run's so far: the server's
    share of the readings generated less those still waiting in the
    leaves' queues (an overflowed reading was generated and is lost),
    so a run that loses nothing reads 1.0, and the first k rows of a
    day are a k-hour day's (:func:`table8_row`).
    """
    net = build_testbed(seed=seed, leaf_poll=LEAF_POLL)
    server = ReadingServer(net.sim)
    # §9.5: daytime interference warrants a 3-frame MSS
    apps = _deploy(net, server, protocol, 3, confirmable, batching)

    def loss_at(hour: float) -> float:
        current = DIURNAL_PROFILE[-1][1]
        for start, rate in DIURNAL_PROFILE:
            if hour >= start:
                current = rate
        return current

    rows = []
    for hour in range(int(hours)):
        net.wired.loss_rate = loss_at(hour)
        net.reset_meters()
        delivered_before = server.total_readings()
        generated_before = sum(a.generated for a in apps)
        net.sim.run(until=net.sim.now + seconds_per_hour)
        duty = _leaf_duty_cycles(net)
        generated = sum(a.generated for a in apps) - generated_before
        delivered = server.total_readings() - delivered_before
        offered = sum(a.generated - len(a.queue) for a in apps)
        rows.append({
            "hour": hour,
            "loss_rate": net.wired.loss_rate,
            "radio_dc": duty["radio"],
            "cpu_dc": duty["cpu"],
            "reliability": min(1.0, delivered / generated) if generated else 1.0,
            "run_reliability": (server.total_readings() / offered
                                if offered else 1.0),
        })
    return rows


#: Table 8's day: the first 12 compressed hours of a Fig. 10 day
TABLE8_HOURS = 12


def table8_row(protocol: str, hourly: List[Dict]) -> Dict:
    """Table 8's row for the day ``hourly`` (:func:`run_fig10_daylong`),
    over its first :data:`TABLE8_HOURS`: the run's reliability at their
    end and the mean hourly duty cycles.
    """
    day = hourly[:TABLE8_HOURS]
    return {
        "protocol": protocol,
        "reliability": day[-1]["run_reliability"],
        "radio_dc": sum(h["radio_dc"] for h in day) / len(day),
        "cpu_dc": sum(h["cpu_dc"] for h in day) / len(day),
    }
