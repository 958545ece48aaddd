"""Campaign grid cells: one factory call is one paper point.

The paper's swept figures (Figs. 4, 5, 6, 8, 9 and 12, and §7.2's hop
sweep) are entries of ``campaigns/paper.json`` that sweep one of these
cells over a grid, so each point has this one definition and a point
two figures share is one run: Fig. 5's window-4 point is Fig. 4's
5-frame downlink point, Fig. 8's batched points are Fig. 9's loss-0
points, and §7.2's three-hop point is Fig. 6b-d's d = 40 ms point.

Every factory follows the catalog contract ``factory(quick,
**params)``: ``quick=False`` runs the settings the paper suite asserts
on, ``quick=True`` an abbreviated run, and ``seed`` is the repetition
knob.  Each returns a flat dict of JSON scalars, so campaign
auto-metrics pick up every numeric field.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.api import TcpParams, mss_for_frames
from repro.experiments.exp_app import run_app_study
from repro.experiments.exp_duty import run_duty_cycle_point
from repro.experiments.exp_retry_delay import _run_retry_delay_point
from repro.experiments.exp_throughput import run_single_hop_transfer
from repro.models.throughput import segment_energy_model


def single_hop_cell(
    quick: bool = True,
    frames: int = 5,
    window: int = 4,
    uplink: bool = True,
    seed: int = 0,
    duration: Optional[float] = None,
) -> Dict:
    """One Figure 4/5 point: bulk goodput over one hop through the
    border router, at an MSS of ``frames`` frames and a buffer of
    ``window`` segments, node to cloud (``uplink``) or back."""
    if duration is None:
        duration = 25.0 if quick else 45.0
    mss = mss_for_frames(frames, to_cloud=uplink)
    params = TcpParams(mss=mss, send_buffer=window * mss,
                       recv_buffer=window * mss)
    result = run_single_hop_transfer(params, uplink=uplink, seed=seed,
                                     duration=duration)
    return {
        "frames": frames,
        "window": window,
        "uplink": uplink,
        "mss_bytes": mss,
        "goodput_kbps": result.goodput_kbps,
        "rtt_mean": result.rtt_mean,
        "retransmissions": result.retransmits,
        "bytes_delivered": result.bytes_delivered,
    }


def retry_delay_cell(
    quick: bool = True,
    hops: int = 3,
    delay: float = 0.0,
    ambient_loss: float = 0.0,
    seed: int = 0,
) -> Dict:
    """One Figure 6 or §7.2 point: bulk goodput over a ``hops``-hop
    chain with a link-retry delay of ``delay`` seconds, beside Eq. 1's and Eq. 2's
    predictions.  ``ambient_loss`` is a uniform frame loss: one hop
    needs a little, or no link retry fires for ``delay`` to act on."""
    return _run_retry_delay_point(hops, delay, seed=seed,
                                  duration=25.0 if quick else 60.0,
                                  ambient_frame_loss=ambient_loss)


def app_cell(
    quick: bool = True,
    protocol: str = "tcp",
    loss: float = 0.0,
    batching: bool = True,
    seed: int = 0,
    duration: Optional[float] = None,
) -> Dict:
    """One Figure 8/9 point: the §9 anemometer workload over
    ``protocol`` with ``loss`` injected at the border router, its
    readings batched or not."""
    if duration is None:
        duration = 400.0 if quick else 900.0
    result = run_app_study(protocol, batching=batching,
                           injected_loss=loss, duration=duration,
                           warmup=min(120.0, duration / 4.0), seed=seed)
    return {
        "protocol": protocol,
        "batching": batching,
        "injected_loss": loss,
        "reliability": result.reliability,
        "retransmissions_per_10min": result.retransmissions * 600 / duration,
        "rtos_per_10min": result.rto_events * 600 / duration,
        "radio_dc": result.radio_duty_cycle,
        "cpu_dc": result.cpu_duty_cycle,
        "data_segments": result.data_segments,
        "mac_tail_drops": result.mac_tail_drops,
    }


def duty_cell(
    quick: bool = True,
    sleep_interval: float = 0.1,
    uplink: bool = True,
    seed: int = 0,
) -> Dict:
    """One Figure 12 point: goodput and RTT over one duty-cycled hop at
    a fixed sleep interval, after a warm-up of ten intervals (20 s at
    least)."""
    row = run_duty_cycle_point(sleep_interval, uplink=uplink, seed=seed,
                               duration=25.0 if quick else 45.0,
                               warmup=max(20.0, 10 * sleep_interval))
    del row["rtt_samples"]
    return row


def ayadi_energy(
    quick: bool = True,
    frames: int = 5,
    frame_loss: float = 0.08,
    rtt: float = 0.1,
    window: int = 4,
) -> Dict:
    """Analytic Ayadi-style energy-per-byte cell (Eq. 2 objective).

    Deterministic (no seed): a campaign grid over ``frames`` whose
    argmin over ``energy_per_byte_uj`` recovers the optimal segment
    size; see docs/campaigns.md.  ``quick`` is part of the
    factory contract but has nothing to shorten here.
    """
    del quick  # analytic: nothing to shorten
    return segment_energy_model(frames, frame_loss=frame_loss, rtt=rtt,
                                window_segments=window)
