"""§6.3: node-to-node goodput and the deaf-listening ablation (§4/§6.2)."""

from conftest import paper, print_table


def test_sec63_node_to_node_goodput():
    result = paper("sec63_node_to_node")
    print_table(
        "§6.3: node-to-node TCP goodput (paper: 63-75 kb/s across stacks)",
        ["Setup", "Goodput (kb/s)"],
        [["Hamilton <-> Hamilton, one hop", result["goodput_kbps"]]],
    )
    assert 55 < result["goodput_kbps"] < 85
    assert result["rto_events"] == 0


def test_sec4_deaf_listening_ablation():
    results = paper("sec4_deaf_ablation")
    print_table(
        "§4 ablation: software CSMA (listening between attempts) vs "
        "hardware deaf-listening CSMA",
        ["CSMA", "Goodput (kb/s)"],
        [["software (TCPlp's fix)", results["software"]],
         ["hardware (deaf during backoff)", results["deaf"]]],
    )
    # deaf listening hurts the bidirectional TCP exchange
    assert results["software"] > results["deaf"]
