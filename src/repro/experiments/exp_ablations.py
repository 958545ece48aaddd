"""Ablations: what each of TCPlp's design choices buys.

The paper argues full-scale TCP features earn their memory cost
(Table 1, §4, §9.4).  These ablations quantify each one on the same
workload — a lossy single hop (uniform frame loss, partially masked by
link retries) and the 3-hop hidden-terminal chain:

* **delayed ACKs** — fewer reverse-path frames on a half-duplex channel;
* **SACK** — precise loss repair instead of go-back-N;
* **TCP timestamps** — RTT samples survive retransmissions (the CoCoA
  failure, §9.4, in TCP form: without timestamps, Karn's algorithm
  discards every sample taken during loss);
* **OOO reassembly** — without it, one lost segment forfeits everything
  already in flight behind it;
* **congestion control** — what New Reno costs/saves at LLN scale;
* **window size** — the §6.2 buffer sweep restated as an ablation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List

from repro.api import (
    BulkTransfer,
    TcpParams,
    build_chain,
    build_pair,
    tcplp_params,
)

#: name -> mutation applied to the full TCPlp profile
ABLATIONS: Dict[str, Callable[[TcpParams], TcpParams]] = {
    "full TCPlp": lambda p: p,
    "no delayed ACKs": lambda p: replace(p, delayed_ack=False),
    "no SACK": lambda p: replace(p, use_sack=False),
    "no timestamps": lambda p: replace(p, use_timestamps=False),
    "no OOO reassembly": lambda p: replace(
        p, ooo_reassembly=False, use_sack=False
    ),
    "no congestion control": lambda p: replace(p, congestion_control=False),
    "1-segment window": lambda p: replace(
        p, send_buffer=p.mss, recv_buffer=p.mss
    ),
}


def _run_ablation(
    name: str,
    scenario: str = "lossy-1hop",
    seed: int = 0,
    warmup: float = 10.0,
    duration: float = 60.0,
    frame_loss: float = 0.12,
) -> Dict:
    """Measure one ablated profile on one scenario.

    Scenarios: ``"clean-1hop"``, ``"lossy-1hop"`` (uniform frame loss,
    beyond what link retries fully mask), ``"hidden-3hop"`` (d = 0).
    """
    mutate = ABLATIONS[name]
    params = mutate(tcplp_params())
    if scenario == "clean-1hop":
        net = build_pair(seed=seed)
        sender_id, receiver_id = 0, 1
    elif scenario == "lossy-1hop":
        # uniform *packet* loss (link retries would mask frame loss):
        # one mesh hop, then the border router's lossy uplink (§9.4)
        net = build_chain(1, seed=seed, wired_loss=frame_loss)
        from repro.api import CLOUD_ID, linux_like_params

        xfer = BulkTransfer(net.sim, net.tcp_stack(1),
                            net.tcp_stack(CLOUD_ID, linux_like_params()),
                            receiver_id=CLOUD_ID, params=params,
                            dst_is_cloud=True)
        result = xfer.measure(warmup, duration)
        return _row(name, scenario, result)
    elif scenario == "hidden-3hop":
        net = build_chain(3, seed=seed, with_cloud=False)
        sender_id, receiver_id = 3, 0
    else:
        raise ValueError(f"unknown scenario {scenario}")
    xfer = BulkTransfer(net.sim, net.tcp_stack(sender_id),
                        net.tcp_stack(receiver_id), receiver_id=receiver_id,
                        params=params, receiver_params=mutate(tcplp_params()))
    result = xfer.measure(warmup, duration)
    return _row(name, scenario, result)


def _row(name: str, scenario: str, result) -> Dict:
    return {
        "ablation": name,
        "scenario": scenario,
        "goodput_kbps": result.goodput_kbps,
        "segment_loss": result.segment_loss,
        "rto_events": result.rto_events,
        "fast_retransmits": result.fast_retransmits,
        "retransmits": result.retransmits,
        "rtt_mean": result.rtt_mean,
    }


def run_ablation_table(
    scenario: str = "lossy-1hop",
    seed: int = 0,
    duration: float = 60.0,
) -> List[Dict]:
    """All ablations on one scenario."""
    return [
        _run_ablation(name, scenario=scenario, seed=seed, duration=duration)
        for name in ABLATIONS
    ]
