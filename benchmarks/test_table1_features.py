"""Table 1: feature comparison across embedded TCP stacks.

The matrix is partly introspected from the parameter profiles that the
simulator actually runs — if a feature flag changes, this table changes.
"""

from conftest import print_table

from repro.core.simplified import (
    FEATURE_MATRIX,
    blip_params,
    gnrc_params,
    tcplp_params,
    uip_params,
    params_features,
)


def build_table():
    profiles = {
        "uIP": uip_params(),
        "BLIP": blip_params(),
        "GNRC": gnrc_params(),
        "TCPlp": tcplp_params(),
    }
    features = [
        ("Flow Control", "flow_control"),
        ("Congestion Control", "congestion_control"),
        ("RTT Estimation", "rtt_estimation"),
        ("TCP Timestamps", "timestamps"),
        ("OOO Reassembly", "ooo_reassembly"),
        ("Selective ACKs", "sack"),
        ("Delayed ACKs", "delayed_acks"),
    ]
    rows = []
    for label, key in features:
        row = [label]
        for stack in ("uIP", "BLIP", "GNRC", "TCPlp"):
            introspected = params_features(profiles[stack]).get(key)
            reference = FEATURE_MATRIX[stack].get(key)
            value = introspected if introspected is not None else reference
            row.append("N/A" if value is None else ("Yes" if value else "No"))
        rows.append(row)
    return rows


def test_table1_feature_matrix():
    rows = build_table()
    print_table(
        "Table 1: TCP feature comparison (uIP / BLIP / GNRC / TCPlp)",
        ["Feature", "uIP", "BLIP", "GNRC", "TCPlp"],
        rows,
    )
    # TCPlp must have every feature; uIP must lack SACK and reassembly
    by_label = {r[0]: r for r in rows}
    assert by_label["Selective ACKs"][4] == "Yes"
    assert by_label["Selective ACKs"][1] == "No"
    assert by_label["OOO Reassembly"][1] == "No"
