"""Header overhead and link-technology tables (Tables 5 and 6).

Everything here is *derived* from the codecs and PHY constants used by
the simulator, so a change to a header layout shows up in these tables
— they are checked against the paper's numbers in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.lowpan.frag import FRAG1_HEADER_BYTES, FRAGN_HEADER_BYTES
from repro.lowpan.iphc import best_case_ipv6, worst_case_ipv6
from repro.mac.frame import DATA_HEADER_BYTES


@dataclass
class _LinkRow:
    """One row of Table 5."""

    name: str
    bandwidth_bps: float
    frame_bytes: int

    @property
    def tx_time(self) -> float:
        """Seconds to put one maximum frame on the wire."""
        return self.frame_bytes * 8.0 / self.bandwidth_bps


def table5_rows() -> List[_LinkRow]:
    """Table 5: 802.15.4 versus traditional TCP/IP links."""
    return [
        _LinkRow("Gigabit Ethernet", 1e9, 1500),
        _LinkRow("Fast Ethernet", 100e6, 1500),
        _LinkRow("WiFi", 54e6, 1500),
        _LinkRow("Ethernet", 10e6, 1500),
        _LinkRow("IEEE 802.15.4", 250e3, 127),
    ]


@dataclass
class _HeaderRow:
    """One row of Table 6."""

    protocol: str
    first_frame_min: int
    first_frame_max: int
    other_frames_min: int
    other_frames_max: int


def table6_rows(tcp_header_min: int = 20, tcp_header_max: int = 44) -> List[_HeaderRow]:
    """Table 6: per-frame header overhead under 6LoWPAN fragmentation.

    The first frame carries the compressed IPv6 + TCP headers; later
    frames pay only MAC + FRAGN overhead — the asymmetry that makes a
    5-frame MSS efficient (§6.1).
    """
    rows = [
        _HeaderRow("IEEE 802.15.4", DATA_HEADER_BYTES, DATA_HEADER_BYTES,
                  DATA_HEADER_BYTES, DATA_HEADER_BYTES),
        _HeaderRow("6LoWPAN Frag.", FRAG1_HEADER_BYTES, FRAG1_HEADER_BYTES,
                  FRAGN_HEADER_BYTES, FRAGN_HEADER_BYTES),
        _HeaderRow("IPv6", best_case_ipv6(), worst_case_ipv6(), 0, 0),
        _HeaderRow("TCP", tcp_header_min, tcp_header_max, 0, 0),
    ]
    total = _HeaderRow(
        "Total",
        sum(r.first_frame_min for r in rows),
        sum(r.first_frame_max for r in rows),
        sum(r.other_frames_min for r in rows),
        sum(r.other_frames_max for r in rows),
    )
    rows.append(total)
    return rows

