"""Table 9 and Appendix A: fairness among simultaneous flows."""

from conftest import paper, print_table


def test_table9_fairness():
    rows = paper("table9_fairness")
    print_table(
        "Table 9 + Appendix A: two upstream flows sharing the mesh",
        ["Hops", "Config", "Aggregate (kb/s)", "Flow A", "Flow B",
         "min/max", "Jain"],
        [[r["hops"], r["config"], r.get("goodput_kbps"),
          r.get("flow_a_kbps"), r.get("flow_b_kbps"),
          r.get("fairness_ratio"), r.get("jain")] for r in rows],
    )
    def pick(hops, config_prefix):
        for r in rows:
            if r["hops"] == hops and r["config"].startswith(config_prefix):
                return r
        raise KeyError((hops, config_prefix))

    for hops in (1, 3):
        solo = pick(hops, "single flow")["goodput_kbps"]
        w4 = pick(hops, "2 flows w=4")
        # efficiency: aggregate within ~35% of a lone flow
        assert w4["goodput_kbps"] > 0.65 * solo
        # fairness at the paper's 4-segment windows
        assert w4["jain"] > 0.9
    # RED/ECN at 7-segment windows at least matches plain 7-segment
    plain7 = pick(3, "2 flows w=7")
    red7 = pick(3, "2 flows w=7 +RED/ECN")
    assert red7["jain"] >= plain7["jain"] - 0.02
    assert red7["jain"] > 0.95
