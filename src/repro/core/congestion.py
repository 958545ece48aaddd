"""New Reno congestion control (RFC 5681 / RFC 6582) with ECN hooks.

The paper's §7.3 observation — that with a 4-segment window, cwnd
recovers to its maximum almost immediately after loss, making TCP
robust to LLN loss rates — falls out of this module: the window is so
small that slow start needs only a couple of RTTs, and fast recovery
ends with cwnd back at ssthresh = ~half of an already tiny window.

All quantities are in bytes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.trace import TraceRecorder


class NewRenoCongestion:
    """Congestion state for one connection."""

    def __init__(
        self,
        mss: int,
        max_window: int,
        enabled: bool = True,
        trace: Optional[TraceRecorder] = None,
        initial_window_segments: int = 2,
    ):
        self.mss = mss
        self.max_window = max_window  # send-buffer bound: cwnd can't exceed it
        self.enabled = enabled
        self.trace = trace or TraceRecorder()
        self.cwnd = min(initial_window_segments * mss, max_window)
        self.ssthresh = max_window
        self.in_recovery = False
        self.recover = 0  # snd_nxt at loss detection (NewReno 'recover')
        self.timeouts = 0
        self.fast_retransmits = 0
        self._cwnd_series = self.trace.series("tcp.cwnd")
        self._ssthresh_series = self.trace.series("tcp.ssthresh")
        #: optional observer fired on every window change with
        #: (now, effective_cwnd, ssthresh) — the connection wires this
        #: to the metrics/trace layer so this module stays sim-agnostic
        self.on_window_change: Optional[Callable[[float, int, int], None]] = None

    # ------------------------------------------------------------------
    def _record(self, now: float) -> None:
        # record the *effective* window: recovery inflation above the
        # buffer bound never reaches the wire (this is what Fig. 7a plots)
        effective = min(self.cwnd, self.max_window)
        self._cwnd_series.record(now, effective)
        self._ssthresh_series.record(now, min(self.ssthresh, 1 << 20))
        if self.on_window_change is not None:
            self.on_window_change(now, effective, min(self.ssthresh, 1 << 20))

    def window(self) -> int:
        """Bytes the congestion window currently allows in flight."""
        if not self.enabled:
            return self.max_window
        return min(self.cwnd, self.max_window)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, acked_bytes: int, now: float) -> None:
        """A cumulative ACK advanced snd_una outside recovery."""
        if not self.enabled or acked_bytes <= 0:
            return
        if self.cwnd < self.ssthresh:  # slow start
            self.cwnd += min(acked_bytes, self.mss)
        else:
            # standard appropriate-byte-counting congestion avoidance
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)
        self.cwnd = min(self.cwnd, self.max_window)
        self._record(now)

    # ------------------------------------------------------------------
    # loss events
    # ------------------------------------------------------------------
    def enter_recovery(self, flight_size: int, snd_nxt: int, now: float) -> None:
        """Third duplicate ACK: fast retransmit + fast recovery."""
        if not self.enabled:
            self.fast_retransmits += 1
            return
        self.ssthresh = max(flight_size // 2, 2 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self.cwnd = min(self.cwnd, self.max_window + 3 * self.mss)
        self.in_recovery = True
        self.recover = snd_nxt
        self.fast_retransmits += 1
        self._record(now)

    def on_dupack_in_recovery(self, now: float) -> None:
        """Window inflation for each further duplicate ACK."""
        if not self.enabled or not self.in_recovery:
            return
        # capped like enter_recovery: duplicated ACKs must not inflate
        # cwnd without bound (only min(cwnd, max_window) is ever used)
        self.cwnd = min(self.cwnd + self.mss, self.max_window + 3 * self.mss)
        self._record(now)

    def on_partial_ack(self, acked_bytes: int, now: float) -> None:
        """NewReno partial ACK: deflate by the acked amount (plus one
        MSS if that leaves room) and stay in recovery."""
        if not self.enabled:
            return
        self.cwnd = max(self.mss, self.cwnd - acked_bytes)
        if acked_bytes >= self.mss:
            self.cwnd += self.mss
        self.cwnd = min(self.cwnd, self.max_window)
        self._record(now)

    def exit_recovery(self, now: float) -> None:
        """Full ACK: deflate cwnd to ssthresh."""
        if not self.enabled:
            return
        self.in_recovery = False
        self.cwnd = min(self.ssthresh, self.max_window)
        self._record(now)

    def on_timeout(self, flight_size: int, now: float) -> None:
        """RTO fired: collapse to one segment and restart slow start."""
        self.timeouts += 1
        if not self.enabled:
            return
        self.ssthresh = max(flight_size // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.in_recovery = False
        self._record(now)

    def on_ecn_echo(self, flight_size: int, now: float) -> None:
        """ECE received: halve the window (once per window, caller
        enforces the once-per-RTT rule)."""
        if not self.enabled:
            return
        self.ssthresh = max(flight_size // 2, 2 * self.mss)
        self.cwnd = max(self.ssthresh, self.mss)
        self._record(now)
