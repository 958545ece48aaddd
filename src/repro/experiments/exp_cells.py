"""Campaign grid cells: parameterised single-run experiment factories.

The classic ``exp_*`` modules expose *figure* runners — each produces
a whole figure's worth of rows in one call.  Campaign grids want the
opposite shape: one factory call = one cell = one scalar-rich dict,
with the axes (MSS frames, window, loss, duty cycle, ...) as keyword
parameters the :class:`~repro.campaign.spec.CampaignSpec` grid can
sweep and the seed as the repetition knob.

Every factory follows the catalog contract ``factory(quick,
**params)`` and returns a flat dict of JSON scalars, so campaign
auto-metrics pick up every numeric field.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.api import TcpParams, mss_for_frames
from repro.experiments.exp_app import run_app_study
from repro.experiments.exp_duty import run_duty_cycle_point
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
    """One Figure 4/5-style point: bulk goodput for one (MSS, buffer)
    configuration over one hop."""
    if duration is None:
        duration = 25.0 if quick else 60.0
    mss = mss_for_frames(frames)
    params = TcpParams(mss=mss, send_buffer=window * mss,
                       recv_buffer=window * mss)
    result = run_single_hop_transfer(params, uplink=uplink, seed=seed,
                                     duration=duration)
    return {
        "frames": frames,
        "window": window,
        "mss_bytes": mss,
        "goodput_bps": result.goodput_bps,
        "retransmissions": result.retransmits,
        "bytes_delivered": result.bytes_delivered,
    }


def fig9_cell(
    quick: bool = True,
    protocol: str = "tcp",
    loss: float = 0.0,
    batching: bool = True,
    seed: int = 0,
    duration: Optional[float] = None,
) -> Dict:
    """One Figure 9 point: §9 application workload under injected
    loss, per protocol."""
    if duration is None:
        duration = 400.0 if quick else 1500.0
    warmup = min(120.0, duration / 4.0)
    result = run_app_study(protocol, batching=batching,
                           injected_loss=loss, duration=duration,
                           warmup=warmup, seed=seed)
    return {
        "loss": loss,
        "reliability": result.reliability,
        "radio_duty_cycle": result.radio_duty_cycle,
        "cpu_duty_cycle": result.cpu_duty_cycle,
        "retransmissions": result.retransmissions,
        "rto_events": result.rto_events,
        "delivered": result.delivered,
    }


def duty_cell(
    quick: bool = True,
    sleep_interval: float = 0.1,
    window: int = 4,
    uplink: bool = True,
    seed: int = 0,
    duration: Optional[float] = None,
) -> Dict:
    """One Figure 12 point: goodput/RTT at a fixed duty-cycle sleep
    interval."""
    if duration is None:
        duration = 25.0 if quick else 60.0
    row = run_duty_cycle_point(sleep_interval, uplink=uplink,
                               window_segments=window, seed=seed,
                               duration=duration)
    out = {"sleep_interval": sleep_interval, "window": window}
    out.update({k: v for k, v in row.items()
                if isinstance(v, (int, float, str, bool))})
    return out


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
