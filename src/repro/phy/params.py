"""Physical-layer timing constants (IEEE 802.15.4, 2.4 GHz O-QPSK PHY).

All constants carry their provenance: either the 802.15.4 standard or a
measurement reported in the paper.  The single most important derived
quantity is the *effective* frame transmit time: the paper measures
8.2 ms for a full 127-byte frame whose air time is 4.1 ms, attributing
the other half to SPI transfer between the microcontroller and radio
(§6.4).  That 2x factor is ``spi_overhead_factor`` and it sets the
achievable goodput ceiling reproduced in our experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The 802.15.4 broadcast short address.  Defined here, below the MAC,
#: because the transceiver's address filter (``Radio.accepts``) knows it.
BROADCAST = 0xFFFF


@dataclass
class PhyParams:
    """Timing and size constants for the simulated 802.15.4 PHY."""

    bit_rate: float = 250_000.0  # bits/second on air (standard data rate)
    max_frame_bytes: int = 127  # aMaxPHYPacketSize
    phy_preamble_bytes: int = 6  # preamble (4) + SFD (1) + PHR (1)
    ack_frame_bytes: int = 5  # imm-ack MPDU (FCF + Seq + FCS)
    symbol_time: float = 16e-6  # 62.5 ksymbol/s
    turnaround_time: float = 192e-6  # aTurnaroundTime = 12 symbols
    cca_time: float = 128e-6  # 8 symbols of CCA detection
    unit_backoff: float = 320e-6  # aUnitBackoffPeriod = 20 symbols
    spi_overhead_factor: float = 2.0  # measured: 8.2 ms effective / 4.1 ms air

    def air_time(self, frame_bytes: int) -> float:
        """Seconds a frame of ``frame_bytes`` (MPDU) occupies the channel."""
        total = frame_bytes + self.phy_preamble_bytes
        return total * 8.0 / self.bit_rate

    def frame_tx_time(self, frame_bytes: int) -> float:
        """End-to-end transmit time: SPI load plus air time (paper: 8.2 ms)."""
        return self.air_time(frame_bytes) * self.spi_overhead_factor


DEFAULT_PHY = PhyParams()
