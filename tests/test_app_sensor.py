"""Anemometer application: sampling, queueing, batching, transports."""

import math

from repro.app.coap import CoapClient
from repro.app.sensor import (
    AnemometerConfig,
    AnemometerNode,
    CoapTransport,
    ReadingServer,
    TcpTransport,
)
from repro.core.connection import TcpConnection
from repro.core.params import linux_like_params
from repro.core.seqnum import seq_add
from repro.core.simplified import tcplp_params
from repro.core.socket_api import TcpStack
from repro.experiments.exp_app import LEAF_POLL
from repro.experiments.topology import CLOUD_ID, build_chain, build_testbed
from repro.sim.engine import Simulator


class RecordingTransport:
    """Test double that records pulls."""

    def __init__(self):
        self.app = None
        self.pulled = []

    def attach(self, app):
        self.app = app

    def pull(self):
        while self.app._can_send():
            self.pulled.append(self.app._pop_readings(5))


def test_sampling_produces_82_byte_readings():
    sim = Simulator()
    transport = RecordingTransport()
    app = AnemometerNode(sim, transport, AnemometerConfig(batching=False))
    app.start()
    sim.run(until=3.5)
    assert app.generated == 3
    total = sum(len(b) for b in transport.pulled)
    assert total == 3 * 82


def test_batching_waits_for_batch_size():
    sim = Simulator()
    transport = RecordingTransport()
    app = AnemometerNode(sim, transport, AnemometerConfig(
        batching=True, batch_size=10, queue_capacity=20))
    app.start()
    sim.run(until=9.5)
    assert transport.pulled == []  # not yet at 10 readings
    sim.run(until=10.5)
    assert sum(len(b) for b in transport.pulled) == 10 * 82


def test_queue_overflow_drops_new_readings():
    sim = Simulator()

    class StuckTransport(RecordingTransport):
        def pull(self):
            pass  # never drains

    transport = StuckTransport()
    app = AnemometerNode(sim, transport, AnemometerConfig(
        batching=False, queue_capacity=5))
    app.start()
    sim.run(until=8.5)
    assert app.generated == 8
    assert app.overflowed == 3
    assert len(app.queue) == 5


def test_readings_carry_sequence_numbers():
    sim = Simulator()
    transport = RecordingTransport()
    app = AnemometerNode(sim, transport, AnemometerConfig(batching=False))
    app.start()
    sim.run(until=2.5)
    first = transport.pulled[0][:4]
    assert int.from_bytes(first, "big") == 1


def test_tcp_transport_end_to_end():
    net = build_chain(1, seed=2)
    server = ReadingServer(net.sim)
    cloud_stack = TcpStack(net.sim, net.cloud, CLOUD_ID,
                           default_params=linux_like_params())
    server.attach_tcp(cloud_stack, port=8000)
    stack = TcpStack(net.sim, net.nodes[1].ipv6, 1)
    transport = TcpTransport(net.sim, stack, CLOUD_ID, server_port=8000,
                             params=tcplp_params(to_cloud=True))
    app = AnemometerNode(net.sim, transport, AnemometerConfig(
        batching=True, batch_size=5, queue_capacity=64))
    app.start()
    net.sim.run(until=20.0)
    assert server.total_readings() >= 15
    assert app.overflowed == 0


def test_coap_transport_end_to_end():
    net = build_chain(1, seed=3)
    server = ReadingServer(net.sim)
    server.attach_coap(net.udp_stack(CLOUD_ID))
    client = CoapClient(net.sim, net.nodes[1].udp, net.rng, CLOUD_ID)
    transport = CoapTransport(client)
    app = AnemometerNode(net.sim, transport, AnemometerConfig(
        batching=True, batch_size=5, queue_capacity=104))
    app.start()
    net.sim.run(until=20.0)
    assert server.coap_readings >= 15


def test_tcp_transport_reconnects_after_error():
    net = build_chain(1, seed=4)
    server = ReadingServer(net.sim)
    cloud_stack = TcpStack(net.sim, net.cloud, CLOUD_ID,
                           default_params=linux_like_params())
    server.attach_tcp(cloud_stack, port=8000)
    stack = TcpStack(net.sim, net.nodes[1].ipv6, 1)
    transport = TcpTransport(net.sim, stack, CLOUD_ID, server_port=8000,
                             params=tcplp_params(to_cloud=True),
                             reconnect_delay=0.5)
    app = AnemometerNode(net.sim, transport, AnemometerConfig(batching=False))
    app.start()
    net.sim.run(until=5.0)
    # kill the connection out from under the transport
    transport.conn._error_out("injected failure")
    net.sim.run(until=15.0)
    assert transport.reconnects == 1
    assert transport.conn.is_open
    assert server.total_readings() >= 10


def test_phase_staggers_first_sample():
    sim = Simulator()
    transport = RecordingTransport()
    app = AnemometerNode(sim, transport, AnemometerConfig(batching=False))
    app.start(phase=5.0)
    sim.run(until=5.5)
    assert app.generated == 0
    sim.run(until=6.5)
    assert app.generated == 1


def test_batched_tcp_drain_sends_full_sized_segments(monkeypatch):
    # a drain is one write per buffer-fill, so TCP cuts MSS-sized
    # segments; only the segment that ends a fill (all the socket held
    # at that moment) may carry fewer than 5 readings
    net = build_chain(1, seed=2)
    server = ReadingServer(net.sim)
    cloud_stack = TcpStack(net.sim, net.cloud, CLOUD_ID,
                           default_params=linux_like_params())
    server.attach_tcp(cloud_stack, port=8000)
    ipv6 = net.nodes[1].ipv6
    segments = []  # (stream offset one past the segment, payload bytes)
    originate = ipv6.send

    def record_segments(dst, next_header, seg, *args, **kwargs):
        if seg.data:
            segments.append((seq_add(seg.seq, len(seg.data)), len(seg.data)))
        originate(dst, next_header, seg, *args, **kwargs)

    ipv6.send = record_segments
    stack = TcpStack(net.sim, ipv6, 1)
    transport = TcpTransport(net.sim, stack, CLOUD_ID, server_port=8000,
                             params=tcplp_params(mss_frames=5, to_cloud=True))
    conn = transport.conn
    fill_ends = set()  # stream offsets where a buffer-fill ended
    write = TcpConnection.send

    def record_fills(self, data):
        accepted = write(self, data)
        if self is conn:
            assert accepted == len(data)  # pull() sizes a fill to the room
            fill_ends.add(seq_add(conn.snd_una, conn.send_buf.used))
        return accepted

    # a slotted connection refuses instance attributes: patch the class
    monkeypatch.setattr(TcpConnection, "send", record_fills)
    app = AnemometerNode(net.sim, transport, AnemometerConfig(
        batching=True, batch_size=64, queue_capacity=64))
    app.start()
    net.sim.run(until=80.0)
    assert server.total_readings() == 64
    assert stack.trace.counters.get("tcp.retransmits") == 0
    full = 5 * 82
    assert len(segments) <= math.ceil(64 * 82 / full) + 3
    short = [end for end, size in segments if size < full]
    assert set(short) <= fill_ends, segments


def test_staggered_leaves_drain_without_queue_drops_or_retransmits():
    # the four §9 leaves at zero injected loss: a drain of full-sized
    # segments fits the leaf's MAC queue, so nothing is tail-dropped
    # and TCP has nothing to repair
    net = build_testbed(seed=0, leaf_poll=LEAF_POLL)
    server = ReadingServer(net.sim)
    cloud_stack = TcpStack(net.sim, net.cloud, CLOUD_ID,
                           default_params=linux_like_params())
    server.attach_tcp(cloud_stack, port=8000)
    for idx, leaf_id in enumerate(net.leaf_ids):
        leaf = net.nodes[leaf_id]
        stack = TcpStack(net.sim, leaf.ipv6, leaf_id, trace=leaf.trace,
                         cpu=leaf.radio.cpu, sleepy=leaf.sleepy)
        transport = TcpTransport(
            net.sim, stack, CLOUD_ID, server_port=8000,
            params=tcplp_params(mss_frames=5, to_cloud=True))
        app = AnemometerNode(net.sim, transport, AnemometerConfig(
            batching=True, batch_size=64, queue_capacity=64))
        app.start(phase=idx * 16.0)
    net.sim.run(until=2 * 64.0 + 3 * 16.0 + 12.0)
    assert server.total_readings() >= 4 * 2 * 64
    for leaf_id in net.leaf_ids:
        counters = net.nodes[leaf_id].trace.counters
        assert counters.get("mac.tail_drops") == 0, leaf_id
        assert counters.get("tcp.retransmits") == 0, leaf_id
