"""Ablations: what each of TCPlp's design choices buys.

The paper argues full-scale TCP features earn their memory cost
(Table 1, §4, §9.4).  These ablations quantify each one on the same
workload — a clean single hop, a lossy one (uniform packet loss at the
border router) and the 3-hop hidden-terminal chain — one
:func:`ablation_cell` point a run, which ``campaigns/paper.json``
sweeps over scenarios and ablations:

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
from typing import Callable, Dict

from repro.api import (
    CLOUD_ID,
    BulkTransfer,
    TcpParams,
    build_chain,
    build_pair,
    linux_like_params,
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


#: scenario -> its full (asserted) duration in simulated seconds
_DURATIONS = {"clean-1hop": 45.0, "lossy-1hop": 60.0, "hidden-3hop": 60.0}


def ablation_cell(
    quick: bool = True,
    scenario: str = "lossy-1hop",
    ablation: str = "full TCPlp",
    seed: int = 0,
) -> Dict:
    """One ablation point: the full TCPlp profile with ``ablation``
    applied, bulk goodput on one scenario after a 10 s warm-up.

    Scenarios: ``"clean-1hop"``, ``"lossy-1hop"`` (12 % uniform packet
    loss at the border router, beyond what link retries mask; the
    cloud receiver is not ablated), ``"hidden-3hop"`` (d = 0, built as
    the Figure 6 cell builds its chain, so that with nothing ablated it
    is Fig. 6b's d = 0 point).
    """
    if scenario not in _DURATIONS:
        raise ValueError(f"unknown scenario {scenario}")
    mutate = ABLATIONS[ablation]
    params = mutate(tcplp_params())
    if scenario == "lossy-1hop":
        # uniform *packet* loss (link retries would mask frame loss):
        # one mesh hop, then the border router's lossy uplink (§9.4)
        net = build_chain(1, seed=seed, wired_loss=0.12)
        xfer = BulkTransfer(net.sim, net.tcp_stack(1),
                            net.tcp_stack(CLOUD_ID, linux_like_params()),
                            receiver_id=CLOUD_ID, params=params,
                            dst_is_cloud=True)
    else:
        if scenario == "clean-1hop":
            net = build_pair(seed=seed)
            sender_id, receiver_id = 0, 1
        else:
            net = build_chain(3, seed=seed)
            sender_id, receiver_id = 3, 0
        xfer = BulkTransfer(net.sim, net.tcp_stack(sender_id),
                            net.tcp_stack(receiver_id),
                            receiver_id=receiver_id, params=params,
                            receiver_params=params)
    result = xfer.measure(10.0, 25.0 if quick else _DURATIONS[scenario])
    return {
        "ablation": ablation,
        "scenario": scenario,
        "goodput_kbps": result.goodput_kbps,
        "segment_loss": result.segment_loss,
        "rto_events": result.rto_events,
        "fast_retransmits": result.fast_retransmits,
        "retransmits": result.retransmits,
        "rtt_mean": result.rtt_mean,
    }
