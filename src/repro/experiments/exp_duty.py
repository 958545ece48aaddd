"""Appendix C: TCP over a duty-cycled link.

* Figure 12 — goodput and RTT against a *fixed* sleep interval: the
  RTT tracks the sleep interval (TCP self-clocking, §C.1), so once the
  window can no longer cover ``B x sleep_interval`` bytes, goodput
  collapses as ``w*MSS/s``; ``exp_cells.duty_cell`` is one point.
* Figure 13 — RTT distributions at a 2 s sleep interval: uplink RTTs
  cluster at ~1x the interval, downlink at small multiples of it.
* Figure 14 / §C.2 — the Trickle-based adaptive interval: near
  always-on throughput during a burst, ~0.1 % duty cycle when idle.

Setup mirrors §6's Figure 2: a duty-cycled embedded endpoint one hop
from an always-on border router, with the TCP peer on the router
itself (the wired hop adds nothing here).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api import BulkTransfer, TcpStack, build_pair, tcplp_params
from repro.mac.poll import PollParams


def _duty_cycled_pair(
    sleep_interval: Optional[float],
    adaptive: bool,
    seed: int,
    smin: float = 0.02,
    smax: float = 5.0,
):
    """Node 1 is the sleepy endpoint, node 0 the always-on router."""
    net = build_pair(seed=seed)
    if adaptive:
        poll = PollParams(adaptive=True, smin=smin, smax=smax,
                          listen_window=0.1,
                          hold_uplink_while_listening=True)
    else:
        poll = PollParams(poll_interval=sleep_interval,
                          fast_poll_interval=sleep_interval,
                          listen_window=0.1,
                          hold_uplink_while_listening=True)
    net.nodes[1].make_sleepy(net.nodes[0], poll=poll)
    return net


def run_duty_cycle_point(
    sleep_interval: float,
    uplink: bool = True,
    window_segments: int = 4,
    seed: int = 0,
    warmup: float = 20.0,
    duration: float = 60.0,
) -> Dict:
    """One Figure 12 cell: goodput and RTT at a fixed sleep interval.

    No fast-poll coupling — the point of the figure is what a *static*
    interval costs.
    """
    net = _duty_cycled_pair(sleep_interval, adaptive=False, seed=seed)
    params = tcplp_params(window_segments=window_segments)
    router = net.tcp_stack(0)
    # not net.tcp_stack(1): Fig. 12 measures a static interval, uncoupled
    leaf = TcpStack(net.sim, net.nodes[1].ipv6, 1)
    if uplink:
        xfer = BulkTransfer(net.sim, leaf, router, receiver_id=0,
                            params=params, receiver_params=params)
    else:
        xfer = BulkTransfer(net.sim, router, leaf, receiver_id=1,
                            params=params, receiver_params=params)
    result = xfer.measure(warmup, duration)
    return {
        "sleep_interval": sleep_interval,
        "direction": "uplink" if uplink else "downlink",
        "goodput_kbps": result.goodput_kbps,
        "rtt_mean": result.rtt_mean,
        "rtt_samples": result.rtt_samples,
    }


def run_fig13_rtt_distribution(
    sleep_interval: float = 2.0,
    seed: int = 0,
    duration: float = 300.0,
) -> Dict[str, List[float]]:
    """Figure 13: RTT samples at a 2 s sleep interval."""
    up = run_duty_cycle_point(sleep_interval, uplink=True, seed=seed,
                              duration=duration, warmup=30.0)
    down = run_duty_cycle_point(sleep_interval, uplink=False, seed=seed,
                                duration=duration, warmup=30.0)
    return {"uplink": up["rtt_samples"], "downlink": down["rtt_samples"]}


def run_adaptive_duty_cycle(
    uplink: bool = True,
    seed: int = 0,
    warmup: float = 20.0,
    duration: float = 60.0,
    idle_window: float = 120.0,
    smin: float = 0.02,
    smax: float = 5.0,
) -> Dict:
    """§C.2: Trickle-adapted sleep interval.

    Measures burst goodput (expect near always-on rates: the paper got
    68.6 kb/s up, 55.6 kb/s down) and then the *idle* radio duty cycle
    after the transfer stops (expect ~0.1 %).
    """
    net = _duty_cycled_pair(None, adaptive=True, seed=seed,
                            smin=smin, smax=smax)
    # §C.2 enlarged the buffers to 6 full-sized packets
    params = tcplp_params(window_segments=6)
    router = net.tcp_stack(0)
    # not net.tcp_stack(1): §C.2 adapts the interval without fast polling
    leaf = TcpStack(net.sim, net.nodes[1].ipv6, 1)
    if uplink:
        xfer = BulkTransfer(net.sim, leaf, router, receiver_id=0,
                            params=params, receiver_params=params)
    else:
        xfer = BulkTransfer(net.sim, router, leaf, receiver_id=1,
                            params=params, receiver_params=params)
    result = xfer.measure(warmup, duration)
    # stop the flow, let the interval decay, and measure idle duty cycle
    xfer.connection.abort()
    net.sim.run(until=net.sim.now + 4 * smax)  # decay transient
    net.nodes[1].reset_meters()
    net.sim.run(until=net.sim.now + idle_window)
    return {
        "direction": "uplink" if uplink else "downlink",
        "goodput_kbps": result.goodput_kbps,
        "idle_duty_cycle": net.nodes[1].radio_duty_cycle(),
        "sleep_interval_after_idle": net.nodes[1].sleepy.sleep_interval,
    }
