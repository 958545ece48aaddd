"""Byte codecs and address mapping: IPv6, UDP, addresses, wired link."""

import ipaddress

import pytest

from repro.net import addr
from repro.net.ipv6 import (
    ECN_CE,
    ECN_ECT0,
    IPV6_HEADER_BYTES,
    Ipv6Packet,
    PROTO_TCP,
    PROTO_UDP,
    decode_header,
)
from repro.net.udp import UDP_HEADER_BYTES, UdpDatagram, decode_header as udp_decode
from repro.net.wired import WiredLink
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


class TestAddresses:
    def test_mesh_address_round_trip(self):
        a = addr.mesh_address(42)
        assert addr.is_mesh(a)
        assert addr.node_id_of(a) == 42

    def test_cloud_address_round_trip(self):
        a = addr.cloud_address(7)
        assert not addr.is_mesh(a)
        assert addr.node_id_of(a) == 7

    def test_prefixes_distinct(self):
        assert addr.mesh_address(1) != addr.cloud_address(1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            addr.mesh_address(2**16)
        with pytest.raises(ValueError):
            addr.node_id_of(ipaddress.IPv6Address("2001:4860::1"))


class TestIpv6Codec:
    def test_header_is_40_bytes(self):
        pkt = Ipv6Packet(src=1, dst=2, next_header=PROTO_TCP,
                         payload=None, payload_bytes=100)
        assert len(pkt.encode_header()) == IPV6_HEADER_BYTES

    def test_round_trip(self):
        pkt = Ipv6Packet(src=3, dst=1000, next_header=PROTO_UDP,
                         payload=None, payload_bytes=77, hop_limit=9,
                         ecn=ECN_CE, dst_is_cloud=True)
        parsed = decode_header(pkt.encode_header())
        assert (parsed.src, parsed.dst) == (3, 1000)
        assert parsed.next_header == PROTO_UDP
        assert parsed.payload_bytes == 77
        assert parsed.hop_limit == 9
        assert parsed.ecn == ECN_CE
        assert parsed.dst_is_cloud and not parsed.src_is_cloud

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_header(b"\x00" * 10)
        with pytest.raises(ValueError):
            decode_header(b"\x40" + b"\x00" * 39)  # version 4

    def test_compressed_smaller_than_full(self):
        pkt = Ipv6Packet(src=1, dst=2, next_header=PROTO_TCP,
                         payload=None, payload_bytes=0)
        assert pkt._compressed_header_bytes() < IPV6_HEADER_BYTES
        assert pkt.datagram_bytes() == pkt._compressed_header_bytes()

    def test_cloud_destination_costs_more_header(self):
        mesh = Ipv6Packet(src=1, dst=2, next_header=PROTO_TCP,
                          payload=None, payload_bytes=0)
        cloud = Ipv6Packet(src=1, dst=1000, next_header=PROTO_TCP,
                           payload=None, payload_bytes=0, dst_is_cloud=True)
        assert cloud._compressed_header_bytes() == (
            mesh._compressed_header_bytes() + 16
        )

    def test_ecn_makes_header_grow(self):
        plain = Ipv6Packet(src=1, dst=2, next_header=PROTO_TCP,
                           payload=None, payload_bytes=0)
        marked = Ipv6Packet(src=1, dst=2, next_header=PROTO_TCP,
                            payload=None, payload_bytes=0, ecn=ECN_ECT0)
        assert marked._compressed_header_bytes() == (
            plain._compressed_header_bytes() + 1
        )


class TestUdpCodec:
    def test_header_is_8_bytes(self):
        d = UdpDatagram(1000, 2000, b"x", 1)
        assert len(d.encode_header()) == UDP_HEADER_BYTES

    def test_round_trip(self):
        d = UdpDatagram(5683, 49152, b"hello", 5)
        src, dst, length = udp_decode(d.encode_header())
        assert (src, dst) == (5683, 49152)
        assert length == UDP_HEADER_BYTES + 5

    def test_compressed_wire_bytes_smaller(self):
        d = UdpDatagram(0xF0B1, 0xF0B2, b"x" * 10, 10)
        assert d.wire_bytes(compressed=True) < d.wire_bytes(compressed=False)

    def test_decode_rejects_short(self):
        with pytest.raises(ValueError):
            udp_decode(b"\x00\x01")


class TestWiredLink:
    def make(self, **kw):
        sim = Simulator()
        return sim, WiredLink(sim, RngStreams(1), **kw)

    def packet(self):
        return Ipv6Packet(src=1, dst=1000, next_header=PROTO_TCP,
                          payload=None, payload_bytes=10, dst_is_cloud=True)

    def test_delivery_after_delay(self):
        sim, link = self.make(one_way_delay=0.006)
        got = []
        link.connect(1000, lambda p: got.append(sim.now))
        link.send(self.packet(), toward=1000)
        sim.run()
        assert got == [0.006]

    def test_unknown_endpoint_rejected(self):
        sim, link = self.make()
        with pytest.raises(ValueError):
            link.send(self.packet(), toward=5)

    def test_directional_loss_to_cloud_only(self):
        sim, link = self.make(loss_rate=1.0 - 1e-12,
                              loss_direction="to_cloud")
        link.cloud_ids.add(1000)
        got = []
        link.connect(1000, lambda p: got.append("cloud"))
        link.connect(1, lambda p: got.append("mesh"))
        link.send(self.packet(), toward=1000)  # dropped
        link.send(self.packet(), toward=1)  # delivered
        sim.run()
        assert got == ["mesh"]
        assert link.packets_dropped == 1

    def test_bad_direction_rejected(self):
        sim, link = self.make(loss_rate=0.5, loss_direction="sideways")
        link.connect(1000, lambda p: None)
        with pytest.raises(ValueError):
            link.send(self.packet(), toward=1000)
