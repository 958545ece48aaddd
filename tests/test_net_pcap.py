"""Pcap export: the capture must be structurally valid and decodable."""

import pytest

from repro.core.params import linux_like_params
from repro.core.segment import Segment
from repro.core.simplified import tcplp_params
from repro.core.socket_api import TcpStack
from repro.experiments.topology import CLOUD_ID, build_chain
from repro.net.ipv6 import decode_header
from repro.net.pcap import LINKTYPE_RAW, PcapWriter, _encode_packet, read_pcap


def capture_handshake(tmp_path):
    net = build_chain(1, seed=80)
    path = str(tmp_path / "wired.pcap")
    writer = PcapWriter(path, net.sim)
    writer.attach_wired(net.wired)
    mote = TcpStack(net.sim, net.nodes[1].ipv6, 1)
    cloud = TcpStack(net.sim, net.cloud, CLOUD_ID,
                     default_params=linux_like_params())
    got = []
    cloud.listen(8000, lambda c: setattr(c, "on_data", got.append))
    conn = mote.connect(CLOUD_ID, 8000, params=tcplp_params(to_cloud=True),
                        dst_is_cloud=True)
    conn.on_connect = lambda: conn.send(b"captured!")
    net.sim.run(until=5.0)
    writer.close()
    assert b"".join(got) == b"captured!"
    return path, writer


def test_capture_file_structure(tmp_path):
    path, writer = capture_handshake(tmp_path)
    header, records = read_pcap(path)
    assert header["network"] == LINKTYPE_RAW
    assert header["major"] == 2 and header["minor"] == 4
    assert len(records) == writer.packets_written
    assert len(records) >= 4  # SYN, SYN-ACK, ACK, data, ACK...


def test_captured_packets_decode_as_ipv6_tcp(tmp_path):
    path, _ = capture_handshake(tmp_path)
    _, records = read_pcap(path)
    ts0, first = records[0]
    pkt = decode_header(first[:40])
    assert pkt.next_header == 6  # TCP
    seg = Segment.decode(first[40:])
    assert seg.syn and not seg.ack_flag  # the mote's SYN
    # timestamps are simulated time, monotonically non-decreasing
    times = [ts for ts, _ in records]
    assert times == sorted(times)


def test_payload_byte_lengths_match_declared(tmp_path):
    path, _ = capture_handshake(tmp_path)
    _, records = read_pcap(path)
    for _, raw in records:
        pkt = decode_header(raw[:40])
        assert len(raw) == 40 + pkt.payload_bytes


def test_write_after_close_rejected(tmp_path):
    net = build_chain(1, seed=81)
    writer = PcapWriter(str(tmp_path / "x.pcap"), net.sim)
    writer.close()
    from repro.net.ipv6 import Ipv6Packet

    with pytest.raises(RuntimeError):
        writer.write(Ipv6Packet(src=1, dst=2, next_header=6,
                                payload=None, payload_bytes=0))


def test_read_rejects_non_pcap(tmp_path):
    bogus = tmp_path / "not.pcap"
    bogus.write_bytes(b"\x00" * 40)
    with pytest.raises(ValueError):
        read_pcap(str(bogus))


def test_encode_packet_udp_coap():
    from repro.app.coap import CODE_POST, CoapMessage, CoapType
    from repro.net.ipv6 import Ipv6Packet, PROTO_UDP
    from repro.net.udp import UdpDatagram

    msg = CoapMessage(CoapType.CON, CODE_POST, 5, 6, b"reading")
    dgram = UdpDatagram(5683, 5684, msg, msg.wire_bytes)
    pkt = Ipv6Packet(src=1, dst=2, next_header=PROTO_UDP, payload=dgram,
                     payload_bytes=dgram.wire_bytes(compressed=False))
    raw = _encode_packet(pkt)
    assert len(raw) == 40 + 8 + msg.wire_bytes
    parsed = CoapMessage.decode(raw[48:])
    assert parsed.payload == b"reading"
