"""Figure 6 and Figure 7: the link-retry-delay sweep and congestion
behaviour at three hops, plus the Equation 1/2 model comparison (§8).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.api import BulkTransfer, build_chain, tcplp_params
from repro.models.throughput import lln_model_goodput, mathis_goodput

#: the paper's Figure 6 x-axis (seconds)
DEFAULT_DELAYS = (0.0, 0.005, 0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.1)
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
    """One (hops, d) cell of Figure 6: goodput, segment loss, RTT,
    frames transmitted, and loss-recovery breakdown (Fig. 7b).

    ``ambient_frame_loss`` models the testbed's residual interference;
    the single-hop sweep needs a little of it or no link retry ever
    fires and ``d`` has nothing to delay.
    """
    net = build_chain(hops, seed=seed)
    if ambient_frame_loss > 0:
        from repro.phy.medium import UniformLoss

        net.medium.loss_models.append(UniformLoss(ambient_frame_loss, net.rng))
    for n in net.nodes.values():
        n.mac.params.retry_delay = delay
    params = tcplp_params()
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


def run_fig6_sweep(
    hops: int,
    delays=DEFAULT_DELAYS,
    seed: int = 0,
    duration: float = 60.0,
    ambient_frame_loss: float = 0.0,
) -> List[Dict]:
    """Figure 6a (hops=1) / 6b-6d (hops=3): the full d sweep."""
    return [
        _run_retry_delay_point(hops, d, seed=seed, duration=duration,
                              ambient_frame_loss=ambient_frame_loss)
        for d in delays
    ]


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


def run_eq2_validation(
    hops_delays: Tuple = ((1, 0.0), (1, 0.04), (3, 0.0), (3, 0.04)),
    seed: int = 0,
    duration: float = 60.0,
) -> List[Dict]:
    """§8: empirical goodput vs Equation 2 vs Equation 1."""
    rows = []
    for hops, d in hops_delays:
        row = _run_retry_delay_point(hops, d, seed=seed, duration=duration)
        pred = row["predicted_kbps"]
        meas = row["goodput_kbps"]
        row["model_error"] = abs(pred - meas) / meas if meas else float("inf")
        rows.append(row)
    return rows
