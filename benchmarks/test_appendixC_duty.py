"""Appendix C: TCP over a duty-cycled link (Figures 12-14, §C.2)."""

import pytest
from conftest import paper, print_table


def test_fig12_fixed_sleep_interval():
    rows = paper("appendixC_fig12")
    print_table(
        "Figure 12: goodput & RTT vs fixed sleep interval",
        ["Interval (s)", "Direction", "Goodput (kb/s)", "RTT (s)"],
        [[r["sleep_interval"], r["direction"], r["goodput_kbps"],
          r["rtt_mean"]] for r in rows],
    )
    up = {r["sleep_interval"]: r for r in rows if r["direction"] == "uplink"}
    # §C.1: uplink RTT ~= the sleep interval (self-clocking)
    for s in (0.5, 1.0, 2.0):
        assert up[s]["rtt_mean"] == pytest.approx(s, rel=0.3)
    # throughput collapses once the window cannot cover B*s
    assert up[2.0]["goodput_kbps"] < 0.25 * up[0.02]["goodput_kbps"]


def test_fig13_rtt_distribution():
    dists = paper("appendixC_fig13")
    print_table(
        "Figure 13: RTT distribution at a 2 s sleep interval",
        ["Direction", "Samples", "p10 (s)", "p50 (s)", "p90 (s)"],
        [[k, dists[k]["samples"], dists[k]["p10"], dists[k]["p50"],
          dists[k]["p90"]] for k in ("uplink", "downlink")],
    )
    # uplink clusters at ~1x interval; downlink reaches multiples of it
    assert dists["uplink"]["p50"] == pytest.approx(2.0, rel=0.3)
    assert dists["downlink"]["p90"] >= 1.5


def test_fig14_adaptive_sleep():
    up, down = paper("appendixC_adaptive")
    print_table(
        "§C.2: Trickle-adaptive sleep interval (paper: 68.6/55.6 kb/s, "
        "~0.1% idle duty cycle)",
        ["Direction", "Goodput (kb/s)", "Idle duty cycle (%)",
         "Idle interval (s)"],
        [[up["direction"], up["goodput_kbps"], up["idle_duty_cycle"] * 100,
          up["sleep_interval_after_idle"]],
         [down["direction"], down["goodput_kbps"],
          down["idle_duty_cycle"] * 100, down["sleep_interval_after_idle"]]],
    )
    assert up["goodput_kbps"] > 40
    assert down["goodput_kbps"] > 40
    assert up["idle_duty_cycle"] < 0.005
    assert down["idle_duty_cycle"] < 0.005
