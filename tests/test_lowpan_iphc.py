"""IPHC compression sizes must reproduce Table 6's IPv6 range (2-28 B)."""

from repro.lowpan.iphc import (
    PROTO_TCP,
    PROTO_UDP,
    CompressionContext,
    best_case_ipv6,
    compressed_ipv6_bytes,
    compressed_udp_bytes,
    worst_case_ipv6,
)


def test_best_case_is_2_bytes():
    # Table 6: IPv6 header compresses to as little as 2 bytes.
    assert best_case_ipv6() == 2


def test_worst_case_is_28_bytes():
    # Table 6: ... and at most 28 bytes in the first frame.
    assert worst_case_ipv6() == 28


def test_tcp_costs_one_inline_next_header_byte():
    ctx = CompressionContext()
    assert (
        compressed_ipv6_bytes(PROTO_TCP, ctx)
        == compressed_ipv6_bytes(PROTO_UDP, ctx) + 1
    )


def test_ecn_costs_one_byte():
    plain = compressed_ipv6_bytes(PROTO_TCP, CompressionContext())
    with_ecn = compressed_ipv6_bytes(PROTO_TCP, CompressionContext(ecn_present=True))
    assert with_ecn == plain + 1


def test_inline_hop_limit_costs_one_byte():
    base = compressed_ipv6_bytes(PROTO_TCP, CompressionContext())
    inline = compressed_ipv6_bytes(
        PROTO_TCP, CompressionContext(hop_limit_compressible=False)
    )
    assert inline == base + 1


def test_address_elision_tiers():
    full = compressed_ipv6_bytes(
        PROTO_UDP,
        CompressionContext(dst_prefix_context=False, dst_iid_from_mac=False),
    )
    iid_only = compressed_ipv6_bytes(
        PROTO_UDP, CompressionContext(dst_iid_from_mac=False)
    )
    elided = compressed_ipv6_bytes(PROTO_UDP, CompressionContext())
    assert full == elided + 16
    assert iid_only == elided + 8


def test_udp_nhc_port_compression():
    # both ports in 0xF0B0/4-bit space: 1 byte of ports
    assert compressed_udp_bytes(0xF0B1, 0xF0B2) == 1 + 1 + 2
    # one port in 0xF000/8-bit space: 3 bytes of ports
    assert compressed_udp_bytes(0xF001, 5683) == 1 + 3 + 2
    # arbitrary ports: 4 bytes of ports
    assert compressed_udp_bytes(5683, 5683) == 1 + 4 + 2
