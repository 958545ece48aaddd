"""Figure 5: goodput and RTT vs window (receive-buffer) size."""

from conftest import paper, print_table


def test_fig5_buffer_sweep():
    rows = paper("fig5_buffer")
    print_table(
        "Figure 5: effect of window size (downlink, single hop)",
        ["Window (segs)", "Window (bytes)", "Goodput (kb/s)", "RTT (s)"],
        [[r["window_segments"], r["window_bytes"], r["goodput_kbps"],
          r["rtt_mean"]] for r in rows],
    )
    g = {r["window_segments"]: r["goodput_kbps"] for r in rows}
    rtt = {r["window_segments"]: r["rtt_mean"] for r in rows}
    # goodput saturates: going 4 -> 6 segments buys little (BDP filled
    # at ~1.5-2 KiB, §6.2)
    assert g[4] > 1.5 * g[1]
    assert g[6] < 1.2 * g[4]
    # RTT grows with buffering (Fig. 5b)
    assert rtt[6] > rtt[1]
