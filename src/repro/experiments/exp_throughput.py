"""Throughput experiments: Figures 4 and 5, §4, §6.3, §7.2.

All functions return lists of plain dict rows shaped like the paper's
figures, so benchmarks can print them and tests can assert on trends.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api import (
    CLOUD_ID,
    BulkResult,
    BulkTransfer,
    TcpParams,
    build_chain,
    build_pair,
    linux_like_params,
    mss_for_frames,
)


def run_single_hop_transfer(
    params: TcpParams,
    uplink: bool = True,
    seed: int = 0,
    warmup: float = 10.0,
    duration: float = 60.0,
    retry_delay: float = 0.0,
) -> BulkResult:
    """One bulk transfer between the embedded endpoint and the cloud
    through the border router (the Figure 2 setup)."""
    net = build_chain(1, seed=seed)
    for n in net.nodes.values():
        n.mac.params.retry_delay = retry_delay
    node_stack = net.tcp_stack(1)
    cloud_stack = net.tcp_stack(CLOUD_ID, linux_like_params())
    if uplink:
        xfer = BulkTransfer(
            net.sim, node_stack, cloud_stack, receiver_id=CLOUD_ID,
            params=params, dst_is_cloud=True,
        )
    else:
        xfer = BulkTransfer(
            net.sim, cloud_stack, node_stack, receiver_id=1,
            params=linux_like_params(), receiver_params=params,
        )
    return xfer.measure(warmup, duration)


def run_fig4_mss_sweep(
    frames_range=range(2, 9),
    seed: int = 0,
    duration: float = 60.0,
) -> List[Dict]:
    """Figure 4: goodput vs MSS (in frames), uplink and downlink.

    (The paper could not run MSS = 1 frame because Linux ignores tiny
    negotiated MSS values; our stack can, so callers may pass
    ``range(1, 9)`` to extend the figure.)
    """
    rows = []
    for frames in frames_range:
        row = {"mss_frames": frames}
        for uplink in (True, False):
            mss = mss_for_frames(frames, to_cloud=uplink)
            params = TcpParams(mss=mss, send_buffer=4 * mss, recv_buffer=4 * mss)
            result = run_single_hop_transfer(
                params, uplink=uplink, seed=seed, duration=duration
            )
            row["uplink_kbps" if uplink else "downlink_kbps"] = result.goodput_kbps
        rows.append(row)
    return rows


def run_fig5_buffer_sweep(
    window_segments=range(1, 7),
    mss_frames: int = 5,
    seed: int = 0,
    duration: float = 60.0,
) -> List[Dict]:
    """Figure 5: goodput and RTT vs receive-buffer (window) size,
    downlink (cloud -> embedded node)."""
    rows = []
    for w in window_segments:
        mss = mss_for_frames(mss_frames, to_cloud=True)
        params = TcpParams(mss=mss, send_buffer=w * mss, recv_buffer=w * mss)
        result = run_single_hop_transfer(
            params, uplink=False, seed=seed, duration=duration
        )
        rows.append({
            "window_segments": w,
            "window_bytes": w * mss,
            "goodput_kbps": result.goodput_kbps,
            "rtt_mean": result.rtt_mean,
        })
    return rows


def run_node_to_node(
    params: Optional[TcpParams] = None,
    seed: int = 0,
    duration: float = 60.0,
    deaf_csma: bool = False,
) -> BulkResult:
    """§6.3: two embedded nodes over one hop, no border router.

    ``deaf_csma`` gives both radios hardware CSMA, which leaves the
    radio deaf during its backoff (§4)."""
    from repro.api import tcplp_params
    from repro.net.node import NodeConfig

    net = build_pair(seed=seed, node_config=NodeConfig(deaf_csma=deaf_csma))
    xfer = BulkTransfer(net.sim, net.tcp_stack(0), net.tcp_stack(1),
                        receiver_id=1,
                        params=params or tcplp_params(),
                        receiver_params=params or tcplp_params())
    return xfer.measure(10.0, duration)


def run_deaf_ablation(seed: int = 1, duration: float = 45.0) -> Dict:
    """§4: node-to-node goodput with software CSMA, which listens
    between backoff slots (TCPlp's fix), and with deaf hardware CSMA."""
    return {label: run_node_to_node(seed=seed, duration=duration,
                                    deaf_csma=deaf).goodput_kbps
            for label, deaf in (("software", False), ("deaf", True))}


def run_sec72_hops(
    hops_range=(1, 2, 3, 4),
    retry_delay: float = 0.04,
    seed: int = 0,
    duration: float = 60.0,
) -> List[Dict]:
    """§7.2: goodput vs hop count (64.1 / 28.3 / 19.5 / 17.5 kb/s).

    Per the paper, the four-hop experiment needs a window larger than
    four segments; we use six there.
    """
    from repro.api import tcplp_params
    from repro.models.throughput import multihop_bound, single_hop_ceiling

    rows = []
    for hops in hops_range:
        net = build_chain(hops, seed=seed)
        for n in net.nodes.values():
            n.mac.params.retry_delay = retry_delay
        params = tcplp_params(window_segments=4 if hops <= 3 else 6)
        xfer = BulkTransfer(net.sim, net.tcp_stack(hops), net.tcp_stack(0),
                            receiver_id=0, params=params,
                            receiver_params=params)
        result = xfer.measure(10.0, duration)
        rows.append({
            "hops": hops,
            "goodput_kbps": result.goodput_kbps,
            "bound_kbps": multihop_bound(single_hop_ceiling(), hops) / 1000.0,
            "rtt_mean": result.rtt_mean,
            "segment_loss": result.segment_loss,
        })
    return rows
