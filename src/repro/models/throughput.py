"""TCP throughput models (§6.4, §7.2, §8, Appendix B).

Equation 1 (Mathis/Semke/Mahdavi/Ott) models loss-limited TCP::

    B = (MSS / RTT) * sqrt(3 / (2p))

Equation 2 is the paper's buffer-limited LLN model (Appendix B)::

    B = (MSS / RTT) * 1 / (1/w + 2p)

where ``w`` is the window in segments.  The §8 claim that LLN TCP is
robust to small loss rates is visible directly: the ``1/w`` additive
term dominates when ``p`` is small, so B barely moves.

The §6.4 single-hop ceiling and §7.2 multihop bound are radio-timing
arguments reproduced from :class:`repro.phy.params.PhyParams`.
"""

from __future__ import annotations

import math

from repro.phy.params import PhyParams


def mathis_goodput(mss_bytes: int, rtt: float, p: float) -> float:
    """Equation 1: loss-limited goodput in bits/second."""
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1) for the Mathis model")
    if rtt <= 0:
        raise ValueError("rtt must be positive")
    return (mss_bytes * 8.0 / rtt) * math.sqrt(3.0 / (2.0 * p))


def lln_model_goodput(mss_bytes: int, rtt: float, p: float, w: int) -> float:
    """Equation 2: buffer-limited LLN goodput in bits/second.

    Derivation (Appendix B): a flow is a sequence of bursts of ``b``
    full windows ended by a loss; b = 1/p_win with p_win ≈ w·p, and the
    recovery time is modelled as 2 RTTs, giving
    B = (w·b·MSS) / (b·RTT + 2·RTT) = (MSS/RTT) / (1/w + 2p).
    """
    if rtt <= 0:
        raise ValueError("rtt must be positive")
    if w < 1:
        raise ValueError("window must be at least one segment")
    if not 0 <= p < 1:
        raise ValueError("p must be in [0, 1)")
    return (mss_bytes * 8.0 / rtt) / (1.0 / w + 2.0 * p)


def single_hop_ceiling(
    app_bytes_per_segment: int = 462,
    frames_per_segment: int = 5,
    phy: PhyParams = PhyParams(),
    delayed_acks: bool = True,
) -> float:
    """§6.4's upper bound on single-hop goodput, bits/second.

    A five-frame segment takes ``frames * 8.2 ms`` to transmit; with
    delayed ACKs, half the segments cost one extra ACK frame's air time
    (~4.1 ms), giving the paper's 462 B / 45.1 ms ≈ 82 kb/s.
    """
    seg_time = frames_per_segment * phy.frame_tx_time(phy.max_frame_bytes)
    # the paper charges the TCP ACK at one frame's air time, halved by
    # delayed ACKs (one ACK per two segments)
    ack_time = phy.air_time(phy.max_frame_bytes) * (0.5 if delayed_acks else 1.0)
    return app_bytes_per_segment * 8.0 / (seg_time + ack_time)


def multihop_bound(single_hop_bps: float, hops: int) -> float:
    """§7.2: over h hops at most one of any three adjacent hops can be
    active, so the bound is B/min(h, 3)."""
    if hops < 1:
        raise ValueError("need at least one hop")
    return single_hop_bps / min(hops, 3)


def segment_energy_model(
    frames: int,
    frame_loss: float = 0.08,
    rtt: float = 0.1,
    window_segments: int = 4,
    listen_power_w: float = 0.060,
    tx_extra_power_w: float = 0.120,
    phy: PhyParams = None,
) -> dict:
    """Ayadi-style energy-per-byte objective over segment size (Eq. 2).

    Radio energy per delivered application byte when segments span
    ``frames`` 6LoWPAN fragments, combining two opposing costs:

    * **listen** — the radio idles/listens for the whole transfer, so
      its cost per byte is ``P_listen * 8 / B`` with ``B`` the Eq. 2
      goodput; larger segments amortize per-frame headers and the
      ``1/w`` window term, so this *falls* with ``frames``;
    * **transmit** — each frame loss (probability ``frame_loss``,
      independent across the ``frames`` fragments) kills the whole
      segment, ``p_seg = 1 - (1 - frame_loss)^frames``, and a lost
      segment retransmits end to end, inflating airtime by
      ``1/(1 - p_seg)``; this *rises* with ``frames``.

    The sum has an interior optimum in ``frames`` — the segment size
    the TCPlp paper fixes at ~5 frames, and the quantity the campaign
    search mode recovers (``objective`` over the ``ayadi_energy``
    catalog cell; see docs/campaigns.md).

    Returns the cost breakdown; ``energy_per_byte_uj`` (microjoules
    per delivered byte) is the scalar the search minimises.
    """
    if frames < 1:
        raise ValueError("a segment spans at least one frame")
    if not 0 <= frame_loss < 1:
        raise ValueError("frame_loss must be in [0, 1)")
    if listen_power_w < 0 or tx_extra_power_w < 0:
        raise ValueError("power draws must be non-negative")
    from repro.core.params import mss_for_frames

    if phy is None:
        phy = PhyParams()
    mss = mss_for_frames(frames)
    p_seg = 1.0 - (1.0 - frame_loss) ** frames
    goodput = lln_model_goodput(mss, rtt, p_seg, window_segments)
    listen_j = listen_power_w * 8.0 / goodput
    airtime = frames * phy.frame_tx_time(phy.max_frame_bytes)
    tx_j = tx_extra_power_w * airtime / (mss * max(1e-9, 1.0 - p_seg))
    return {
        "frames": frames,
        "mss_bytes": mss,
        "segment_loss": p_seg,
        "goodput_bps": goodput,
        "listen_uj_per_byte": listen_j * 1e6,
        "tx_uj_per_byte": tx_j * 1e6,
        "energy_per_byte_uj": (listen_j + tx_j) * 1e6,
    }
