"""MAC frame sizes and byte codec round-trips."""

import pytest

from repro.mac.frame import (
    ACK_FRAME_BYTES,
    BROADCAST,
    DATA_HEADER_BYTES,
    Frame,
    FrameKind,
    decode_frame,
)


def test_data_header_is_23_bytes():
    # Paper Table 6: IEEE 802.15.4 header overhead = 23 B per frame.
    f = Frame(kind=FrameKind.DATA, src=1, dst=2, payload_bytes=0)
    assert f.byte_size == DATA_HEADER_BYTES == 23


def test_data_frame_size_includes_payload():
    f = Frame(kind=FrameKind.DATA, src=1, dst=2, payload_bytes=104)
    assert f.byte_size == 127  # exactly the 802.15.4 maximum


def test_ack_frame_is_5_bytes():
    f = Frame(kind=FrameKind.ACK, src=1, dst=2, ack_request=False)
    assert f.byte_size == ACK_FRAME_BYTES == 5


def test_data_request_size():
    f = Frame(kind=FrameKind.DATA_REQUEST, src=1, dst=2)
    assert f.byte_size == 24


def test_encode_length_matches_byte_size():
    f = Frame(kind=FrameKind.DATA, src=1, dst=2, seq=9, payload_bytes=40)
    assert len(f.encode()) == f.byte_size


def test_data_round_trip():
    f = Frame(
        kind=FrameKind.DATA, src=7, dst=12, seq=200,
        pending=True, ack_request=True, payload_bytes=10,
    )
    g = decode_frame(f.encode(b"0123456789"))
    assert g.kind is FrameKind.DATA
    assert (g.src, g.dst, g.seq) == (7, 12, 200)
    assert g.pending and g.ack_request
    assert g.payload == b"0123456789"
    assert g.payload_bytes == 10


def test_ack_round_trip():
    f = Frame(kind=FrameKind.ACK, src=0, dst=0, seq=55, pending=True,
              ack_request=False)
    g = decode_frame(f.encode())
    assert g.kind is FrameKind.ACK
    assert g.seq == 55
    assert g.pending


def test_data_request_round_trip():
    f = Frame(kind=FrameKind.DATA_REQUEST, src=3, dst=1, seq=77)
    g = decode_frame(f.encode())
    assert g.kind is FrameKind.DATA_REQUEST
    assert (g.src, g.dst, g.seq) == (3, 1, 77)
    assert len(f.encode()) == f.byte_size


def test_broadcast_round_trip():
    f = Frame(kind=FrameKind.DATA, src=3, dst=BROADCAST, seq=1,
              ack_request=False, payload_bytes=4)
    g = decode_frame(f.encode(b"abcd"))
    assert g.dst == BROADCAST


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        decode_frame(b"\x00")
    with pytest.raises(ValueError):
        decode_frame(b"\x07\x00\x01\x00\x00")  # type bits 0b111
