"""Throughput experiments: the one-hop transfer behind Figures 4 and 5
(``exp_cells.single_hop_cell`` is their point), §4 and §6.3.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.api import (
    CLOUD_ID,
    BulkResult,
    BulkTransfer,
    TcpParams,
    build_chain,
    build_pair,
    linux_like_params,
)


def run_single_hop_transfer(
    params: TcpParams,
    uplink: bool = True,
    seed: int = 0,
    warmup: float = 10.0,
    duration: float = 60.0,
) -> BulkResult:
    """One bulk transfer between the embedded endpoint and the cloud
    through the border router (the Figure 2 setup)."""
    net = build_chain(1, seed=seed)
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

