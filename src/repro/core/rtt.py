"""RTT estimation and retransmission timeout (RFC 6298).

With TCP timestamps enabled (TCPlp's default), every ACK carries an
echo of the sender's clock, so RTT samples are valid **even for
retransmitted segments** — the property §9.4 credits for TCP's immunity
to the RTT-inflation failure that cripples CoCoA.  Without timestamps,
Karn's algorithm applies: samples from retransmitted segments are
discarded.
"""

from __future__ import annotations

from typing import Callable, Optional


class RttEstimator:
    """Jacobson/Karels smoothed RTT with RFC 6298 RTO computation."""

    ALPHA = 1 / 8
    BETA = 1 / 4
    K = 4

    def __init__(
        self,
        rto_initial: float = 1.0,
        rto_min: float = 1.0,
        rto_max: float = 60.0,
        clock_granularity: float = 0.001,
    ):
        self.rto_initial = rto_initial
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.granularity = clock_granularity
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.samples = 0
        self.last_sample: Optional[float] = None
        #: optional observer fired after each sample with (sample, srtt,
        #: rto); wired by the connection for metrics/tracing
        self.on_update: Optional[Callable[[float, float, float], None]] = None

    def update(self, sample: float) -> None:
        """Fold one RTT measurement into the estimator."""
        if sample < 0:
            raise ValueError("negative RTT sample")
        self.last_sample = sample
        self.samples += 1
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(
                self.srtt - sample
            )
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * sample
        if self.on_update is not None:
            self.on_update(sample, self.srtt, self.rto)

    @property
    def rto(self) -> float:
        """Current retransmission timeout (before backoff)."""
        if self.srtt is None:
            return self.rto_initial
        rto = self.srtt + max(self.granularity, self.K * self.rttvar)
        return min(self.rto_max, max(self.rto_min, rto))

    def backed_off(self, shift: int) -> float:
        """RTO after ``shift`` consecutive timeouts (exponential)."""
        return min(self.rto_max, self.rto * (1 << min(shift, 16)))

