"""Table 7: TCPlp vs prior embedded TCP stacks (in their own contexts)."""

from conftest import paper, print_table


def test_table7_stack_comparison():
    rows = paper("table7_stacks")
    print_table(
        "Table 7: goodput by stack (measured vs paper)",
        ["Stack", "1 hop (kb/s)", "paper", "3 hops (kb/s)", "paper"],
        [[r["stack"], r["one_hop_kbps"], r["paper_one_hop_kbps"],
          r["multihop_kbps"], r["paper_multihop_kbps"]] for r in rows],
    )
    by_stack = {r["stack"]: r for r in rows}
    tcplp = by_stack["TCPlp"]
    # TCPlp beats every baseline on both hop counts; the single-frame
    # uIP row is an order of magnitude slower
    for name, row in by_stack.items():
        if name == "TCPlp":
            continue
        assert tcplp["one_hop_kbps"] > 2 * row["one_hop_kbps"], name
        assert tcplp["multihop_kbps"] > 1.5 * row["multihop_kbps"], name
    assert tcplp["one_hop_kbps"] > 10 * by_stack["uIP [112]"]["one_hop_kbps"]
    assert 55 < tcplp["one_hop_kbps"] < 85
