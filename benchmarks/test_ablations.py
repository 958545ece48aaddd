"""Ablation study: what each TCPlp design choice buys (DESIGN.md §inventory).

Not a paper figure — this quantifies the Table 1 feature set the paper
argues for, on this reproduction's own substrate.
"""

from conftest import paper, print_table


def _print(scenario, rows):
    print_table(
        f"Ablations on {scenario}",
        ["Configuration", "Goodput (kb/s)", "Seg. loss", "RTOs",
         "FastRtx", "RTT (s)"],
        [[r["ablation"], r["goodput_kbps"], r["segment_loss"],
          r["rto_events"], r["fast_retransmits"], r["rtt_mean"]]
         for r in rows],
    )


def test_ablations_clean_single_hop():
    rows = paper("ablations_clean")
    _print("a clean single hop", rows)
    by_name = {r["ablation"]: r for r in rows}
    full = by_name["full TCPlp"]["goodput_kbps"]
    # on a clean link only the window matters: stop-and-wait pays ~2.5x
    assert full > 1.8 * by_name["1-segment window"]["goodput_kbps"]
    for name, row in by_name.items():
        if name != "1-segment window":
            assert row["goodput_kbps"] > 0.75 * full, name


def test_ablations_lossy_single_hop():
    rows = paper("ablations_lossy")
    _print("a single hop with 12% packet loss at the border router", rows)
    by_name = {r["ablation"]: r for r in rows}
    full = by_name["full TCPlp"]["goodput_kbps"]
    # SACK is the big win under packet loss: without it (or without
    # reassembly to hold out-of-order data) goodput drops hard
    assert by_name["no SACK"]["goodput_kbps"] < 0.75 * full
    assert by_name["no OOO reassembly"]["goodput_kbps"] < 0.75 * full
    assert by_name["1-segment window"]["goodput_kbps"] < 0.8 * full
    # note: only the sender is ablated here (the receiver is the cloud
    # host), and "no timestamps" reads within 1 % of full TCPlp: with
    # every duplicate's timestamp echoed, timestamp RTT samples stay
    # valid through retransmissions (§9.4).  We print rather than assert.


def test_ablations_hidden_terminal_three_hops():
    rows = paper("ablations_3hop")
    _print("three hops with hidden terminals (d = 0)", rows)
    by_name = {r["ablation"]: r for r in rows}
    full = by_name["full TCPlp"]["goodput_kbps"]
    # reassembly keeps the window's survivors; without it every loss
    # forfeits the rest of the window
    assert by_name["no OOO reassembly"]["goodput_kbps"] < 0.9 * full
    # delayed ACKs reduce reverse-path contention on the shared channel
    assert by_name["no delayed ACKs"]["goodput_kbps"] < 1.05 * full