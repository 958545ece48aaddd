"""Figure 9: injected packet loss at the border router (0-21 %)."""

from conftest import paper, print_table


def test_fig9_loss_sweep():
    rows = paper("fig9_loss")
    print_table(
        "Figure 9: reliability / retransmissions / duty cycles vs loss",
        ["Protocol", "Loss", "Reliability", "Retx /10min", "RTOs /10min",
         "Radio DC (%)", "CPU DC (%)", "Data segs", "MAC tail drops"],
        [[r["protocol"], r["injected_loss"], r["reliability"],
          r["retransmissions_per_10min"], r["rtos_per_10min"],
          r["radio_dc"] * 100, r["cpu_dc"] * 100, r["data_segments"],
          r["mac_tail_drops"]] for r in rows],
    )
    by_key = {(r["protocol"], r["injected_loss"]): r for r in rows}
    # 9a: TCP and CoAP near-100% reliable through ~12%; CoCoA collapses
    for proto in ("tcp", "coap"):
        assert by_key[(proto, 0.06)]["reliability"] > 0.95, proto
        assert by_key[(proto, 0.09)]["reliability"] > 0.93, proto
    # the paper holds TCP at ~99% up to 15% loss
    assert by_key[("tcp", 0.15)]["reliability"] > 0.95
    assert by_key[("cocoa", 0.06)]["reliability"] > 0.85
    assert by_key[("cocoa", 0.15)]["reliability"] < 0.75
    assert by_key[("cocoa", 0.15)]["reliability"] < (
        by_key[("coap", 0.15)]["reliability"] - 0.2
    )
    # beyond 15%, CoAP's give-up strategy beats TCP's deep backoff
    assert by_key[("coap", 0.21)]["reliability"] > (
        by_key[("tcp", 0.21)]["reliability"]
    )
    # 9b: with nothing injected TCP has next to nothing to repair (its
    # drains fit the leaf's MAC queue); retransmissions rise with loss
    assert by_key[("tcp", 0.0)]["retransmissions_per_10min"] < 5
    assert by_key[("tcp", 0.15)]["retransmissions_per_10min"] > (
        by_key[("tcp", 0.0)]["retransmissions_per_10min"]
    )
    # 9c: duty cycles rise with loss but stay the same order of magnitude
    assert by_key[("tcp", 0.15)]["radio_dc"] > by_key[("tcp", 0.0)]["radio_dc"]
