"""Boundary coverage: sequence wraparound, 1-frame MSS, pull-model recv."""

import pytest

from repro.core.params import TcpParams, mss_for_frames
from repro.core.simplified import tcplp_params
from repro.core.socket_api import TcpStack
from repro.experiments.topology import build_pair


def run_transfer(net, payload, params, iss=None):
    sa = TcpStack(net.sim, net.nodes[0].ipv6, 0)
    sb = TcpStack(net.sim, net.nodes[1].ipv6, 1)
    if iss is not None:
        sa._iss = iss - 64000  # next_iss() adds 64000
    got = []
    sb.listen(8000, lambda c: setattr(c, "on_data", got.append),
              params=params)
    conn = sa.connect(1, 8000, params=params)
    sent = [0]

    def fill():
        while sent[0] < len(payload) and conn.send_buf.free > 0:
            n = conn.send(payload[sent[0]: sent[0] + 512])
            sent[0] += n
            if n == 0:
                break

    conn.on_connect = fill
    conn.on_send_space = fill
    net.sim.run(until=120.0)
    return b"".join(got), conn


def test_transfer_across_sequence_wraparound():
    """Start the connection 2000 bytes below 2^32 and push 8 KiB: every
    comparison on the sequence circle gets exercised."""
    net = build_pair(seed=60)
    payload = bytes((i * 31 + 5) % 256 for i in range(8192))
    data, conn = run_transfer(net, payload, tcplp_params(),
                              iss=(1 << 32) - 2000)
    assert data == payload
    assert conn.snd_una < (1 << 32) - 2000  # we wrapped


def test_one_frame_mss_works():
    """The paper couldn't test MSS = 1 frame (Linux refused); we can."""
    mss = mss_for_frames(1)
    assert mss == 69
    params = TcpParams(mss=mss, send_buffer=4 * mss, recv_buffer=4 * mss)
    net = build_pair(seed=61)
    payload = bytes(range(256)) * 4
    data, conn = run_transfer(net, payload, params)
    assert data == payload
    # every data segment fits one unfragmented frame
    assert net.nodes[0].trace.counters.get("lowpan.fragments_sent") == (
        net.nodes[0].trace.counters.get("lowpan.datagrams_sent")
    )


def test_recv_pull_model_without_callback():
    """Without on_data, bytes accumulate until the app calls recv()."""
    net = build_pair(seed=62)
    sa = TcpStack(net.sim, net.nodes[0].ipv6, 0)
    sb = TcpStack(net.sim, net.nodes[1].ipv6, 1)
    server_box = []
    sb.listen(8000, server_box.append, params=tcplp_params())
    conn = sa.connect(1, 8000, params=tcplp_params())
    net.sim.run(until=2.0)
    conn.send(b"pull me")
    net.sim.run(until=4.0)
    server = server_box[0]
    assert server.recv_buf._unread == 7
    assert server.recv(4) == b"pull"
    assert server.recv() == b" me"
    assert server.recv() == b""


def test_window_advertisement_capped_at_16_bits():
    """§4.1: window scaling is omitted, so advertised windows clamp at
    65535 even if the buffer is nominally larger."""
    params = TcpParams(mss=1460, send_buffer=100_000, recv_buffer=100_000)
    net = build_pair(seed=63)
    sa = TcpStack(net.sim, net.nodes[0].ipv6, 0)
    sb = TcpStack(net.sim, net.nodes[1].ipv6, 1)
    sb.listen(8000, lambda c: None, params=params)
    conn = sa.connect(1, 8000, params=params)
    net.sim.run(until=2.0)
    assert conn.snd_wnd <= 0xFFFF


def test_send_rejected_after_close():
    net = build_pair(seed=64)
    sa = TcpStack(net.sim, net.nodes[0].ipv6, 0)
    sb = TcpStack(net.sim, net.nodes[1].ipv6, 1)
    sb.listen(8000, lambda c: None, params=tcplp_params())
    conn = sa.connect(1, 8000, params=tcplp_params())
    net.sim.run(until=2.0)
    conn.close()
    with pytest.raises(RuntimeError):
        conn.send(b"too late")


def test_iss_spacing_between_connections():
    net = build_pair(seed=65)
    sa = TcpStack(net.sim, net.nodes[0].ipv6, 0)
    sb = TcpStack(net.sim, net.nodes[1].ipv6, 1)
    sb.listen(8000, lambda c: None, params=tcplp_params())
    c1 = sa.connect(1, 8000, params=tcplp_params())
    c2 = sa.connect(1, 8000, params=tcplp_params())
    assert c1.iss != c2.iss
