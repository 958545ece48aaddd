"""§7.2: goodput vs hop count (the B, B/2, B/3, B/3 law)."""

import pytest
from conftest import paper, print_table

from repro.models.throughput import multihop_bound, single_hop_ceiling

PAPER = {1: 64.1, 2: 28.3, 3: 19.5, 4: 17.5}


def test_sec72_goodput_vs_hops():
    rows = paper("sec72_hops")  # the grid's points, hops 1-4
    print_table(
        "§7.2: goodput vs wireless hops (d = 40 ms)",
        ["Hops", "Goodput (kb/s)", "Paper (kb/s)", "Analytic bound (kb/s)",
         "RTT (s)"],
        [[r["hops"], r["goodput_kbps"], PAPER[r["hops"]],
          multihop_bound(single_hop_ceiling(), r["hops"]) / 1000.0,
          r["rtt_mean"]] for r in rows],
    )
    g = {r["hops"]: r["goodput_kbps"] for r in rows}
    assert g[2] == pytest.approx(g[1] / 2, rel=0.25)
    assert g[3] == pytest.approx(g[1] / 3, rel=0.30)
    # the fourth hop costs little more (pipelining, §7.2)
    assert g[4] > 0.7 * g[3]
    # absolute values in the paper's neighbourhood
    for hops, kbps in g.items():
        assert kbps == pytest.approx(PAPER[hops], rel=0.35), hops
