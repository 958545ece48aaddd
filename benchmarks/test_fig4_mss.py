"""Figure 4: goodput vs Maximum Segment Size (in frames)."""

from conftest import paper, print_table


def test_fig4_mss_sweep():
    rows = paper("fig4_mss")
    print_table(
        "Figure 4: goodput vs MSS (frames), single hop via border router",
        ["MSS (frames)", "Uplink (kb/s)", "Downlink (kb/s)"],
        [[r["mss_frames"], r["uplink_kbps"], r["downlink_kbps"]] for r in rows],
    )
    by_frames = {r["mss_frames"]: r for r in rows}
    # poor at tiny MSS due to header overhead; diminishing returns past 5
    assert by_frames[5]["uplink_kbps"] > 1.4 * by_frames[2]["uplink_kbps"]
    assert by_frames[8]["uplink_kbps"] < 1.25 * by_frames[5]["uplink_kbps"]
    # the paper's headline plateau: ~60-75 kb/s at MSS = 5 frames
    assert 55 < by_frames[5]["uplink_kbps"] < 85
