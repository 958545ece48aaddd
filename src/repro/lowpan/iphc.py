"""IPHC header compression arithmetic (RFC 6282).

The paper's Table 6 reports the IPv6 header compressing to between 2
and 28 bytes depending on how much of it can be elided.  We reproduce
that arithmetic:

* 2 bytes — the IPHC dispatch/base when traffic class, flow label,
  next header (via NHC), and hop limit are all compressed and both
  addresses are fully derivable from the link-layer addresses or a
  shared prefix context;
* up to 28 bytes — when ECN bits must be carried, the next header is
  inline (TCP has no NHC encoding), the hop limit is inline, and both
  addresses need inline interface identifiers.

UDP additionally compresses through NHC (RFC 6282 §4.3): 1 byte of NHC
plus 1–4 bytes of ports plus the 2-byte checksum.
"""

from __future__ import annotations

from dataclasses import dataclass

#: IP protocol numbers we use.
PROTO_TCP = 6
PROTO_UDP = 17

IPHC_BASE_BYTES = 2  # dispatch + IPHC encoding bytes
UNCOMPRESSED_UDP_BYTES = 8


@dataclass
class CompressionContext:
    """What the compressor may elide for a given packet.

    Per-address: ``*_prefix_context`` models a 6LoWPAN context covering
    that address's /64 prefix; ``*_iid_from_mac`` models an interface
    identifier derivable from the 802.15.4 address, allowing full
    elision.  Off-mesh addresses (e.g. a cloud server) have neither.
    """

    src_prefix_context: bool = True
    src_iid_from_mac: bool = True
    dst_prefix_context: bool = True
    dst_iid_from_mac: bool = True
    hop_limit_compressible: bool = True  # hop limit is 1, 64, or 255
    ecn_present: bool = False  # ECN bits nonzero => TF byte carried inline


def _address_bytes(prefix_context: bool, iid_from_mac: bool) -> int:
    """Inline bytes for one address under the given context."""
    if prefix_context and iid_from_mac:
        return 0  # fully elided
    if prefix_context:
        return 8  # inline IID only
    return 16  # full address inline


def compressed_ipv6_bytes(
    next_header: int,
    ctx: CompressionContext = CompressionContext(),
) -> int:
    """Size of the compressed IPv6 header for the given next header."""
    size = IPHC_BASE_BYTES
    if ctx.ecn_present:
        size += 1  # TF carried as ECN+DSCP byte
    if next_header != PROTO_UDP:
        size += 1  # next-header inline (TCP has no NHC encoding)
    if not ctx.hop_limit_compressible:
        size += 1
    size += _address_bytes(ctx.src_prefix_context, ctx.src_iid_from_mac)
    size += _address_bytes(ctx.dst_prefix_context, ctx.dst_iid_from_mac)
    return size


def compressed_udp_bytes(src_port: int, dst_port: int) -> int:
    """Size of the NHC-compressed UDP header (RFC 6282 §4.3.3)."""
    size = 1  # NHC octet
    if (src_port & 0xFFF0) == 0xF0B0 and (dst_port & 0xFFF0) == 0xF0B0:
        size += 1  # both ports compress to 4 bits each
    elif (src_port & 0xFF00) == 0xF000 or (dst_port & 0xFF00) == 0xF000:
        size += 3  # one port compresses to 8 bits
    else:
        size += 4  # both ports inline
    size += 2  # checksum always carried
    return size


def best_case_ipv6() -> int:
    """The 2-byte best case of Table 6."""
    return compressed_ipv6_bytes(PROTO_UDP, CompressionContext())


def worst_case_ipv6() -> int:
    """The 28-byte worst case of Table 6.

    TCP next header inline, hop limit inline, source IID inline, and a
    full 16-byte off-mesh destination (the cloud server of §9).
    """
    return compressed_ipv6_bytes(
        PROTO_TCP,
        CompressionContext(
            src_prefix_context=True,
            src_iid_from_mac=False,
            dst_prefix_context=False,
            dst_iid_from_mac=False,
            hop_limit_compressible=False,
        ),
    )
