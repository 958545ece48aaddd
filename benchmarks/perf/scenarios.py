"""Canonical behaviour scenarios: the kernel's determinism fixtures.

Each scenario builds a fresh network, runs a fixed workload, and
returns raw counters: simulator events processed and the headline
behavioural metrics (goodput, frames delivered).  They are the guard
rail: a kernel change that shifts them has changed *what* is
simulated.  ``test_goldens.py`` exact-matches them, and the metrics
snapshot of each run, against the checked-in goldens; timing lives in
``bench/run.py``.  The scenarios deliberately cover the distinct hot
paths:

* ``one_hop_bulk`` — TCP self-clocking on a clean link: scheduler and
  TCP/6LoWPAN processing, almost no CSMA contention.
* ``three_hop_hidden`` — the §7.1 hidden-terminal chain: collision
  marking, link retries and carrier-sense dominate.
* ``duty_cycled_polling`` — a sleepy endpoint polling its router:
  periodic timers, indirect queues, radio state churn.
* ``loss_sweep`` — Figure 9-style ambient loss on one hop: loss-model
  RNG draws on every delivery plus TCP retransmission machinery.
* ``chaos_faults`` — the ``repro.faults`` chaos gate: Gilbert–Elliott
  bursty loss, link flapping, a relay crash-and-reboot, frame
  corruption and sender clock drift on a 2-hop chain.  Gates both the
  injector's determinism (``fault_events`` is exact-matched against
  the golden) and TCP's behaviour under compound faults.
* ``campaign_grid`` — the campaign-engine gate: a 2x2 grid of short
  bulk transfers expanded and executed through
  ``repro.api.run_campaign`` (no store), exact-matching the per-run
  goodput list so expansion order, cell execution, and the statistics
  pipeline are all pinned.
* ``dense_mesh`` — the hundred-node scale gate: a 10x10 router grid
  carrying 24 staggered concurrent TCP flows through a ``FlowSet``.
  Exercises the Medium's spatial-index adjacency rebuild, MeshRouting
  forwarding at scale, and per-flow/aggregate metering; ``fairness``
  (Jain's index over per-flow goodput) is exact-matched alongside the
  usual behavioural counters.
"""

from __future__ import annotations

from typing import Dict

from repro.api import (
    BulkTransfer,
    FlowSet,
    FlowSpec,
    TcpParams,
    TcpStack,
    build_chain,
    build_grid_mesh,
    build_pair,
    mss_for_frames,
    tcplp_params,
)
from repro.mac.poll import PollParams
from repro.phy.medium import UniformLoss


def _stack(net, node_id: int, **kwargs) -> TcpStack:
    node = net.nodes[node_id]
    return TcpStack(net.sim, node.ipv6, node_id, cpu=node.radio.cpu,
                    sleepy=node.sleepy, **kwargs)


def one_hop_bulk(duration: float = 60.0, seed: int = 1) -> Dict:
    """Bulk TCP transfer between two embedded nodes, one clean hop."""
    net = build_pair(seed=seed)
    params = tcplp_params()
    src, dst = _stack(net, 1), _stack(net, 0)
    xfer = BulkTransfer(net.sim, src, dst, receiver_id=0, params=params,
                        receiver_params=params)
    res = xfer.measure(10.0, duration)
    return {
        "events": net.sim.events_processed,
        "goodput_kbps": round(res.goodput_kbps, 2),
        "frames_delivered": net.medium.frames_delivered,
    }


def three_hop_hidden(duration: float = 60.0, seed: int = 1) -> Dict:
    """Bulk TCP over the 3-hop hidden-terminal chain (§7.1 setup)."""
    net = build_chain(3, seed=seed)
    for n in net.nodes.values():
        n.mac.params.retry_delay = 0.04
    params = tcplp_params(window_segments=4)
    src, dst = _stack(net, 3), _stack(net, 0)
    xfer = BulkTransfer(net.sim, src, dst, receiver_id=0, params=params,
                        receiver_params=params)
    res = xfer.measure(10.0, duration)
    return {
        "events": net.sim.events_processed,
        "goodput_kbps": round(res.goodput_kbps, 2),
        "frames_delivered": net.medium.frames_delivered,
    }


def duty_cycled_polling(duration: float = 60.0, seed: int = 0) -> Dict:
    """Uplink bulk transfer from a duty-cycled (polling) endpoint."""
    net = build_pair(seed=seed)
    poll = PollParams(poll_interval=0.1, fast_poll_interval=0.1,
                      listen_window=0.1,
                      hold_uplink_while_listening=True)
    net.nodes[1].make_sleepy(net.nodes[0], poll=poll)
    params = tcplp_params(window_segments=4)
    router = _stack(net, 0)
    leaf = _stack(net, 1)
    xfer = BulkTransfer(net.sim, leaf, router, receiver_id=0,
                        params=params, receiver_params=params)
    res = xfer.measure(20.0, duration)
    return {
        "events": net.sim.events_processed,
        "goodput_kbps": round(res.goodput_kbps, 2),
        "frames_delivered": net.medium.frames_delivered,
    }


def loss_sweep(duration: float = 40.0, seed: int = 1,
               rates=(0.0, 0.09, 0.18)) -> Dict:
    """Figure 9-style sweep: one-hop bulk under ambient frame loss."""
    events = 0
    delivered = 0
    goodputs = []
    for rate in rates:
        net = build_pair(seed=seed)
        if rate > 0:
            net.medium.loss_models.append(UniformLoss(rate, net.rng))
        params = tcplp_params()
        src, dst = _stack(net, 1), _stack(net, 0)
        xfer = BulkTransfer(net.sim, src, dst, receiver_id=0,
                            params=params, receiver_params=params)
        res = xfer.measure(10.0, duration)
        events += net.sim.events_processed
        delivered += net.medium.frames_delivered
        goodputs.append(round(res.goodput_kbps, 2))
    return {
        "events": events,
        "goodput_kbps": goodputs,
        "frames_delivered": delivered,
    }


def chaos_faults(duration: float = 40.0, seed: int = 7) -> Dict:
    """Compound fault schedule on a 2-hop chain (docs/faults.md).

    The relay (node 1) crashes mid-transfer and cold-restarts 3 s
    later; both endpoints keep their TCP state, so the connection must
    back off, survive the outage, and resume.  The sender's timestamp
    clock starts just below the 32-bit wrap, exercising the ``ts_ecr
    == 0`` echo path the PR 3 bugfixes cover.
    """
    from repro.faults import FaultInjector, FaultSchedule

    net = build_chain(2, seed=seed, with_cloud=False)
    for n in net.nodes.values():
        n.mac.params.retry_delay = 0.04
    schedule = FaultSchedule.from_dict({
        "name": "bench-chaos",
        "faults": [
            {"kind": "bursty_loss", "p_good_bad": 0.03, "p_bad_good": 0.3},
            {"kind": "frame_corruption", "rate": 0.01},
            {"kind": "link_flap", "a": 0, "b": 1, "at": 12.0,
             "down_for": 1.5, "repeat_every": 10.0, "count": 2},
            {"kind": "node_reboot", "node": 1, "at": 25.0, "outage": 3.0},
            {"kind": "clock_drift", "node": 2, "skew": 1.0005,
             "offset_ms": 4294965296},
        ],
    })
    injector = FaultInjector(net, schedule).arm()
    params = tcplp_params(window_segments=4)
    src, dst = _stack(net, 2), _stack(net, 0)
    xfer = BulkTransfer(net.sim, src, dst, receiver_id=0, params=params,
                        receiver_params=params)
    res = xfer.measure(5.0, duration)
    return {
        "events": net.sim.events_processed,
        "goodput_kbps": round(res.goodput_kbps, 2),
        "frames_delivered": net.medium.frames_delivered,
        "fault_events": len(injector.events),
    }


def dense_mesh(duration: float = 20.0, seed: int = 3) -> Dict:
    """24 concurrent TCP flows across a 100-node router grid.

    Flow pattern (all 3-4 hop Manhattan routes, senders spread over the
    lattice so contention is distributed, not a single convergecast):
    one west-bound flow per row, one north-bound flow per column, plus
    four short diagonal-area flows toward the border corner.  Launches
    are staggered 250 ms apart so connection setup itself overlaps with
    established flows — the regime a production mesh actually sees.
    """
    rows = cols = 10
    net = build_grid_mesh(rows, cols, seed=seed)
    params = tcplp_params(window_segments=2)
    specs = []
    # west-bound: rightmost column toward mid-grid, one per row 0..8
    specs += [FlowSpec(src=r * cols + 9, dst=r * cols + 6) for r in range(9)]
    # north-bound: top row toward row 6, one per column
    specs += [FlowSpec(src=90 + c, dst=60 + c) for c in range(10)]
    # short flows near the border corner
    specs += [FlowSpec(src=11, dst=0), FlowSpec(src=33, dst=30),
              FlowSpec(src=55, dst=52), FlowSpec(src=77, dst=74),
              FlowSpec(src=44, dst=14)]
    specs = [FlowSpec(src=s.src, dst=s.dst, start=0.25 * i)
             for i, s in enumerate(specs)]
    flows = FlowSet(net, specs, params=params)
    res = flows.measure(warmup=8.0, duration=duration)
    return {
        "events": net.sim.events_processed,
        "goodput_kbps": round(res.aggregate_goodput_kbps, 2),
        "frames_delivered": net.medium.frames_delivered,
        "fairness": round(res.fairness, 4),
        "flows_connected": res.flows_connected,
    }


def _campaign_cell(quick: bool, frames: int = 3, seed: int = 1,
                   duration: float = 10.0) -> Dict:
    """One campaign grid cell: a short one-hop bulk transfer.

    Module-level (the campaign catalog contract) so pooled campaign
    runs could dispatch it; here it runs serially in-process.
    """
    net = build_pair(seed=seed)
    mss = mss_for_frames(frames)
    params = TcpParams(mss=mss, send_buffer=4 * mss, recv_buffer=4 * mss)
    src, dst = _stack(net, 1), _stack(net, 0)
    xfer = BulkTransfer(net.sim, src, dst, receiver_id=0, params=params,
                        receiver_params=params)
    res = xfer.measure(5.0, duration)
    return {
        "events": net.sim.events_processed,
        "goodput_kbps": round(res.goodput_kbps, 2),
        "frames_delivered": net.medium.frames_delivered,
    }


def campaign_grid(duration: float = 10.0, seed: int = 1) -> Dict:
    """The campaign engine as a perf scenario (docs/campaigns.md).

    Expands a 2-frames x 2-seeds grid over :func:`_campaign_cell` and
    executes it through ``repro.api.run_campaign`` with no store, so
    every run goes through the full expansion + execution + statistics
    pipeline.  Guards the determinism of the whole path: the per-run
    goodput list and summed counters are exact-matched against the
    golden.
    """
    from repro.api import ExperimentCatalog, run_campaign

    catalog = ExperimentCatalog({"bulk_cell": _campaign_cell})
    spec = {
        "name": "bench-campaign",
        "experiments": ["bulk_cell"],
        "grid": {"frames": [2, 5], "duration": [duration]},
        "seeds": [seed, seed + 1],
    }
    report = run_campaign(spec, store=None, catalog=catalog,
                          progress=lambda *_: None)
    runs = [r for cell in report.cells for r in cell.results]
    if any(r is None for r in runs) or report.execution["errors"]:
        raise AssertionError(
            f"campaign_grid: failed runs: {report.execution['errors']}")
    return {
        "events": sum(r["events"] for r in runs),
        "goodput_kbps": [r["goodput_kbps"] for r in runs],
        "frames_delivered": sum(r["frames_delivered"] for r in runs),
        "campaign_cells": len(report.cells),
        "campaign_runs": len(runs),
    }


#: scenario name -> (callable, measured duration in simulated seconds)
SCENARIOS = {
    "one_hop_bulk": (one_hop_bulk, 20.0),
    "three_hop_hidden": (three_hop_hidden, 20.0),
    "duty_cycled_polling": (duty_cycled_polling, 30.0),
    "loss_sweep": (loss_sweep, 15.0),
    "chaos_faults": (chaos_faults, 40.0),
    "dense_mesh": (dense_mesh, 20.0),
    "campaign_grid": (campaign_grid, 6.0),
}
