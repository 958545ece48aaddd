"""§8: the LLN TCP model (Eq. 2) against measurements and Eq. 1."""

from conftest import paper, print_table


def test_eq2_vs_eq1():
    # Figure 6's d = 0 and d = 40 ms points, one hop then three
    rows = [r for name in ("fig6a_one_hop", "fig6bcd_three_hops")
            for r in paper(name) if r["delay_ms"] in (0.0, 40.0)]
    for r in rows:
        pred, meas = r["predicted_kbps"], r["goodput_kbps"]
        r["model_error"] = abs(pred - meas) / meas if meas else float("inf")
    print_table(
        "§8: measured goodput vs Equation 2 (LLN) vs Equation 1 (Mathis)",
        ["Hops", "d (ms)", "Measured (kb/s)", "Eq.2 (kb/s)",
         "Eq.1 (kb/s)", "Eq.2 rel. error"],
        [[r["hops"], r["delay_ms"], r["goodput_kbps"], r["predicted_kbps"],
          r["mathis_kbps"], r["model_error"]] for r in rows],
    )
    for r in rows:
        # Eq. 2 tracks; Eq. 1 overshoots (mildly at the very lossy d=0
        # point, wildly wherever p is small)
        assert r["model_error"] < 0.5, r
        assert r["mathis_kbps"] > 1.5 * r["goodput_kbps"], r
    one_hop = [r for r in rows if r["hops"] == 1]
    assert any(r["mathis_kbps"] > 200 for r in one_hop)
