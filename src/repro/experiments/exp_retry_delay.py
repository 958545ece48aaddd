"""Figure 6, Figure 7 and §7.2: one point of the link-retry-delay
sweep (``exp_cells.retry_delay_cell`` sweeps it over delays and hops)
with the Equation 1/2 model comparison of §8, and the congestion
behaviour at three hops.
"""

from __future__ import annotations

from typing import Dict

from repro.api import BulkTransfer, build_chain, tcplp_params
from repro.models.throughput import lln_model_goodput, mathis_goodput

#: simulated seconds each cell runs before its measured window opens
WARMUP_S = 10.0


def _run_retry_delay_point(
    hops: int,
    delay: float,
    seed: int = 0,
    warmup: float = WARMUP_S,
    duration: float = 60.0,
    record_cwnd: bool = False,
    ambient_frame_loss: float = 0.0,
) -> Dict:
    """One (hops, d) cell of Figure 6 and §7.2: goodput, segment loss,
    RTT, frames transmitted, and loss-recovery breakdown (Fig. 7b).

    Per §7.2, a chain of more than three hops needs a window larger
    than four segments; it gets six.  ``ambient_frame_loss`` models the testbed's residual interference;
    the single-hop sweep needs a little of it or no link retry ever
    fires and ``d`` has nothing to delay.
    """
    net = build_chain(hops, seed=seed)
    if ambient_frame_loss > 0:
        from repro.phy.medium import UniformLoss

        net.medium.loss_models.append(UniformLoss(ambient_frame_loss, net.rng))
    for n in net.nodes.values():
        n.mac.params.retry_delay = delay
    params = tcplp_params(window_segments=4 if hops <= 3 else 6)
    xfer = BulkTransfer(net.sim, net.tcp_stack(hops), net.tcp_stack(0),
                        receiver_id=0, params=params, receiver_params=params)
    frames_before = net.total_frames_sent()
    result = xfer.measure(warmup, duration)
    rtt_mean = result.rtt_mean
    w = params.segments_per_window()
    p = result.segment_loss
    row = {
        "hops": hops,
        "delay_ms": delay * 1000,
        "goodput_kbps": result.goodput_kbps,
        "segment_loss": p,
        "rtt_mean": rtt_mean,
        "frames_sent": net.total_frames_sent() - frames_before,
        "timeouts": result.rto_events,
        "fast_retransmits": result.fast_retransmits,
        # Equation 2 prediction from the empirical RTT and loss rate
        "predicted_kbps": (
            lln_model_goodput(params.mss, rtt_mean, p, w) / 1000.0
            if rtt_mean > 0 else 0.0
        ),
        # Equation 1 prediction (wildly high in this regime, §8)
        "mathis_kbps": (
            mathis_goodput(params.mss, rtt_mean, max(p, 1e-4)) / 1000.0
            if rtt_mean > 0 else 0.0
        ),
    }
    if record_cwnd:
        series = xfer.connection.trace.series("tcp.cwnd")
        row["cwnd_series"] = list(zip(series.times, series.values))
        ss = xfer.connection.trace.series("tcp.ssthresh")
        row["ssthresh_series"] = list(zip(ss.times, ss.values))
    return row


def run_fig7a_cwnd_trace(
    seed: int = 0,
    duration: float = 100.0,
) -> Dict:
    """Figure 7a: the cwnd trace at d = 0 over three hops.

    The signature observation (§7.3): cwnd sits pinned at the 4-segment
    maximum almost all the time despite frequent losses.
    """
    row = _run_retry_delay_point(
        3, 0.0, seed=seed, duration=duration, record_cwnd=True
    )
    series = row["cwnd_series"]
    if series:
        max_cwnd = max(v for _, v in series)
        # time-weighted fraction of the run spent at >= 75% of max:
        # cwnd is a step function between change samples
        t_end = series[-1][0]
        t_start = series[0][0]
        high_time = 0.0
        for (t, v), (t_next, _) in zip(series, series[1:] + [(t_end, 0)]):
            if v >= 0.75 * max_cwnd:
                high_time += t_next - t
        span = t_end - t_start
        row["fraction_near_max"] = high_time / span if span > 0 else 1.0
        row["max_cwnd"] = max_cwnd
    return row
