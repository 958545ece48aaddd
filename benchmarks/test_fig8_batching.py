"""Figure 8: power effect of batching (favourable conditions)."""

from conftest import paper, print_table


def test_fig8_batching():
    rows = paper("fig8_batching")
    print_table(
        "Figure 8: radio/CPU duty cycle, batching vs not (night conditions)",
        ["Protocol", "Batching", "Radio DC (%)", "CPU DC (%)", "Reliability",
         "Data segs", "MAC tail drops"],
        [[r["protocol"], r["batching"], r["radio_dc"] * 100,
          r["cpu_dc"] * 100, r["reliability"], r["data_segments"],
          r["mac_tail_drops"]] for r in rows],
    )
    by_key = {(r["protocol"], r["batching"]): r for r in rows}
    for proto in ("coap", "cocoa", "tcp"):
        batch = by_key[(proto, True)]
        nobatch = by_key[(proto, False)]
        # batching cuts both duty cycles substantially (§9.3)
        assert batch["radio_dc"] < 0.7 * nobatch["radio_dc"], proto
        assert batch["cpu_dc"] < nobatch["cpu_dc"], proto
        # all setups deliver essentially everything in clean conditions
        assert batch["reliability"] > 0.97, proto
    # the three protocols are comparable (same order of magnitude)
    radios = [by_key[(p, True)]["radio_dc"] for p in ("coap", "cocoa", "tcp")]
    assert max(radios) < 4 * min(radios)
    # ... and batched TCP, whose drains go out as full 5-frame segments,
    # is commensurate with batched CoAP (Table 8: 2.29% vs 1.84%)
    assert by_key[("tcp", True)]["radio_dc"] < (
        1.6 * by_key[("coap", True)]["radio_dc"]
    )
