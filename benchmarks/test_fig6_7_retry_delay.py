"""Figures 6 and 7: the link-retry-delay sweep and TCP loss recovery."""

from conftest import _emit, paper, print_table


def test_fig6a_one_hop():
    rows = paper("fig6a_one_hop")
    print_table(
        "Figure 6a: one hop — goodput & segment loss vs retry delay d "
        "(3% ambient frame loss)",
        ["d (ms)", "Goodput (kb/s)", "Pred. Eq.2 (kb/s)", "Seg. loss"],
        [[r["delay_ms"], r["goodput_kbps"], r["predicted_kbps"],
          r["segment_loss"]] for r in rows],
    )
    # single hop: no hidden terminals — link retries mask nearly all
    # frame loss, and a larger d only slows things down somewhat
    assert rows[0]["segment_loss"] < 0.03
    assert rows[-1]["goodput_kbps"] < rows[0]["goodput_kbps"]
    assert rows[-1]["goodput_kbps"] > 0.7 * rows[0]["goodput_kbps"]


def test_fig6bcd_three_hops():
    rows = paper("fig6bcd_three_hops")
    print_table(
        "Figure 6b-d: three hops vs retry delay d",
        ["d (ms)", "Goodput (kb/s)", "Pred. Eq.2", "Seg. loss",
         "RTT (s)", "Frames sent", "RTOs", "FastRtx"],
        [[r["delay_ms"], r["goodput_kbps"], r["predicted_kbps"],
          r["segment_loss"], r["rtt_mean"], r["frames_sent"],
          r["timeouts"], r["fast_retransmits"]] for r in rows],
    )
    d = {r["delay_ms"]: r for r in rows}
    # 6b: heavy segment loss at d=0 from hidden terminals, cured by d>=20
    assert d[0.0]["segment_loss"] > 0.04
    assert d[40.0]["segment_loss"] < 0.35 * d[0.0]["segment_loss"]
    # goodput roughly flat in the mid-range, despite the loss change
    assert d[20.0]["goodput_kbps"] > 0.8 * max(r["goodput_kbps"] for r in rows)
    # 6c: RTT rises with d;  6d: fewer frames needed at moderate d
    assert d[100.0]["rtt_mean"] > d[0.0]["rtt_mean"]
    assert d[40.0]["frames_sent"] < d[0.0]["frames_sent"]
    # 7b: fast retransmissions shrink as d grows (hidden-terminal losses)
    assert d[40.0]["fast_retransmits"] <= d[0.0]["fast_retransmits"]


def test_fig7a_cwnd_trace():
    row = paper("fig7a_cwnd")
    print_table(
        "Figure 7a: cwnd over time, d=0, three hops (decimated)",
        ["t (s)", "cwnd (bytes)"],
        [[f"{t:.1f}", int(v)] for t, v in row["cwnd_series"]],
    )
    _emit(f"fraction of time cwnd >= 75% of max: "
          f"{row['fraction_near_max']:.2f} (segment loss "
          f"{row['segment_loss']:.3f})")
    # §7.3: cwnd pinned at its maximum despite several % loss
    assert row["fraction_near_max"] > 0.6
    assert row["segment_loss"] > 0.02
