"""Tables 5-6 and the §6.4 goodput ceiling: header/timing arithmetic."""

import pytest
from conftest import print_table

from repro.models.headers import table5_rows, table6_rows
from repro.models.throughput import multihop_bound, single_hop_ceiling


def test_table5_link_comparison():
    rows = table5_rows()
    print_table(
        "Table 5: IEEE 802.15.4 vs traditional TCP/IP links",
        ["Physical Layer", "Bandwidth", "Frame Size", "Tx Time"],
        [[r.name, f"{r.bandwidth_bps / 1e6:g} Mb/s", f"{r.frame_bytes} B",
          f"{r.tx_time * 1000:.3f} ms"] for r in rows],
    )
    lln = rows[-1]
    assert lln.tx_time == pytest.approx(4.1e-3, rel=0.02)


def test_table6_header_overhead():
    rows = table6_rows()
    print_table(
        "Table 6: 6LoWPAN header overhead per frame",
        ["Header", "First Frame (min-max)", "Other Frames (min-max)"],
        [[r.protocol,
          f"{r.first_frame_min} B - {r.first_frame_max} B",
          f"{r.other_frames_min} B - {r.other_frames_max} B"] for r in rows],
    )
    total = rows[-1]
    assert total.other_frames_min == 28


def test_sec64_goodput_ceiling():
    one_hop = single_hop_ceiling()
    bounds = [multihop_bound(one_hop, h) for h in (1, 2, 3, 4)]
    print_table(
        "§6.4/§7.2: analytic goodput ceilings",
        ["Hops", "Bound (kb/s)"],
        [[h, b / 1000] for h, b in zip((1, 2, 3, 4), bounds)],
    )
    assert one_hop == pytest.approx(82_000, rel=0.08)
