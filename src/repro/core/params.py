"""TCP configuration and the frame-aligned MSS arithmetic of §6.1.

The paper tunes the Maximum Segment Size in units of 802.15.4 *frames*:
an MSS of 5 frames amortises the header overhead of Table 6 while
keeping the loss-amplification of 6LoWPAN fragmentation tolerable
(Figure 4).  :func:`mss_for_frames` computes the application payload
that makes a TCP segment occupy exactly ``k`` frames.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lowpan.frag import (
    FRAG1_HEADER_BYTES,
    FRAGN_HEADER_BYTES,
    MAX_FRAME_PAYLOAD,
)
from repro.lowpan.iphc import PROTO_TCP, CompressionContext, compressed_ipv6_bytes

#: TCP header with the timestamps option (20 + 12): the common case for
#: every data segment TCPlp sends.
TCP_HEADER_WITH_TS = 32


def _max_datagram_for_frames(frames: int) -> int:
    """Largest 6LoWPAN datagram that fits in ``frames`` 802.15.4 frames."""
    if frames < 1:
        raise ValueError("need at least one frame")
    if frames == 1:
        return MAX_FRAME_PAYLOAD
    first = (MAX_FRAME_PAYLOAD - FRAG1_HEADER_BYTES) // 8 * 8
    middle = (MAX_FRAME_PAYLOAD - FRAGN_HEADER_BYTES) // 8 * 8
    last = MAX_FRAME_PAYLOAD - FRAGN_HEADER_BYTES
    return first + middle * (frames - 2) + last


def mss_for_frames(
    frames: int,
    to_cloud: bool = False,
    tcp_header: int = TCP_HEADER_WITH_TS,
) -> int:
    """Application bytes per segment so it occupies exactly ``frames``.

    ``to_cloud`` accounts for the fatter compressed IPv6 header when the
    peer's address cannot be elided (the §9 cloud server).
    """
    ctx = CompressionContext(
        dst_prefix_context=not to_cloud, dst_iid_from_mac=not to_cloud
    )
    ip_header = compressed_ipv6_bytes(PROTO_TCP, ctx)
    mss = _max_datagram_for_frames(frames) - ip_header - tcp_header
    if mss <= 0:
        raise ValueError(f"{frames} frame(s) cannot fit headers")
    return mss


@dataclass(slots=True)
class TcpParams:
    """Feature flags and sizing for one TCP endpoint.

    The defaults are TCPlp's evaluation configuration: MSS of 5 frames,
    4-segment send/receive buffers (1848-byte class windows), SACK,
    timestamps, and delayed ACKs all on.  The simplified embedded
    stacks of Table 1 are expressed by turning features off — see
    :mod:`repro.core.simplified`.
    """

    mss: int = mss_for_frames(5)  # bytes of application data per segment
    send_buffer: int = 4 * mss_for_frames(5)
    recv_buffer: int = 4 * mss_for_frames(5)

    # features (Table 1 rows)
    congestion_control: bool = True
    rtt_estimation: bool = True
    use_timestamps: bool = True
    use_sack: bool = True
    delayed_ack: bool = True
    ooo_reassembly: bool = True
    ecn: bool = False

    # timers
    rto_initial: float = 1.0  # RFC 6298 initial RTO
    rto_min: float = 1.0  # FreeBSD uses 230 ms; LLN RTTs warrant more
    rto_max: float = 60.0
    delayed_ack_timeout: float = 0.1  # FreeBSD's 100 ms
    persist_min: float = 1.0
    persist_max: float = 60.0
    time_wait: float = 5.0  # shortened 2*MSL for simulation
    max_retransmits: int = 12  # §9.4: up to 12 retransmissions
    max_syn_retries: int = 6

    # misc
    dupack_threshold: int = 3
    cpu_per_segment: float = 0.0004  # CPU-meter charge per segment processed
    #: header prediction (§4.1): segments hitting the fast path charge
    #: a fraction of the full processing cost
    header_prediction: bool = True
    cpu_fast_path_factor: float = 0.4
    #: Nagle's algorithm (off by default: LLN applications are
    #: latency-sensitive and segments are already frame-aligned)
    nagle: bool = False
    #: keepalive probes for long-lived idle connections (the §3
    #: anemometers hold a connection open for days)
    keepalive: bool = False
    keepalive_idle: float = 600.0
    keepalive_interval: float = 60.0
    keepalive_probes: int = 6
    #: RFC 5961 challenge-ACK rate limit (per connection per second)
    challenge_ack_limit: int = 10
    #: FreeBSD-style bad-retransmit detection: if the ACK after an RTO
    #: echoes a timestamp older than the retransmission, the timeout was
    #: spurious and cwnd/ssthresh are restored (paper footnote 8)
    bad_rexmit_detection: bool = True

    def segments_per_window(self) -> int:
        """The 'w' of the paper's Equation 2."""
        return max(1, self.recv_buffer // self.mss)


def linux_like_params() -> TcpParams:
    """The unconstrained cloud endpoint (Linux-class buffers)."""
    return TcpParams(
        mss=1460,
        send_buffer=65535,
        recv_buffer=65535,
        rto_min=0.2,
        rto_initial=1.0,
    )
