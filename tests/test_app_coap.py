"""CoAP: codec, confirmable retransmission, blockwise, server dedup."""

import pytest

from repro.app.coap import (
    CODE_CHANGED,
    CODE_POST,
    CoapClient,
    CoapMessage,
    CoapParams,
    CoapServer,
    CoapType,
)
from repro.experiments.topology import CLOUD_ID, build_chain


class TestCodec:
    def test_round_trip_con_post(self):
        msg = CoapMessage(CoapType.CON, CODE_POST, message_id=42, token=7,
                          payload=b"data", block=(3, True, 6))
        parsed = CoapMessage.decode(msg.encode())
        assert parsed.mtype is CoapType.CON
        assert parsed.code == CODE_POST
        assert parsed.message_id == 42
        assert parsed.token == 7
        assert parsed.payload == b"data"
        assert parsed.block == (3, True, 6)

    def test_round_trip_ack(self):
        msg = CoapMessage(CoapType.ACK, CODE_CHANGED, message_id=9, token=3)
        parsed = CoapMessage.decode(msg.encode())
        assert parsed.mtype is CoapType.ACK
        assert parsed.payload == b""
        assert parsed.block is None

    def test_wire_bytes_matches_encoding(self):
        msg = CoapMessage(CoapType.CON, CODE_POST, 1, 1, b"xyz", (0, False, 6))
        assert len(msg.encode()) == msg.wire_bytes

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            CoapMessage.decode(b"\x00\x00")
        with pytest.raises(ValueError):
            CoapMessage.decode(b"\xff\x00\x00\x00")  # bad version


def make_coap_net(wired_loss=0.0, seed=0, estimator=None,
                  params=None, loss_direction="both"):
    net = build_chain(1, seed=seed, wired_loss=wired_loss)
    net.wired.loss_direction = loss_direction
    server = CoapServer(net.sim, net.udp_stack(CLOUD_ID))
    payloads = []
    server.on_payload = lambda p, pkt: payloads.append(p)
    client = CoapClient(net.sim, net.nodes[1].udp, net.rng, CLOUD_ID,
                        params=params, rto_estimator=estimator)
    return net, server, client, payloads


def test_confirmable_post_delivers_and_acks():
    net, server, client, payloads = make_coap_net()
    results = []
    client.post(b"hello", on_result=results.append)
    net.sim.run(until=5.0)
    assert payloads == [b"hello"]
    assert results == [True]


def test_nonconfirmable_fire_and_forget():
    net, server, client, payloads = make_coap_net()
    results = []
    client.post(b"unreliable", confirmable=False, on_result=results.append)
    assert results == [True]  # completes immediately
    net.sim.run(until=2.0)
    assert payloads == [b"unreliable"]
    assert client.trace.counters.get("coap.retransmissions") == 0


def test_retransmission_recovers_lost_request():
    net, server, client, payloads = make_coap_net(wired_loss=0.45, seed=3)
    results = []
    client.post(b"x", on_result=results.append)
    net.sim.run(until=60.0)
    assert results == [True]
    assert client.trace.counters.get("coap.retransmissions") >= 1


def test_gives_up_after_max_retransmit():
    net, server, client, payloads = make_coap_net(
        wired_loss=1.0 - 1e-12, params=CoapParams(ack_timeout=0.5)
    )
    results = []
    client.post(b"x", on_result=results.append)
    net.sim.run(until=60.0)
    assert results == [False]
    assert client.trace.counters.get("coap.give_ups") == 1
    # 1 initial + MAX_RETRANSMIT copies
    assert client.trace.counters.get("coap.messages_sent") == 5


def test_nstart_one_serialises_exchanges():
    net, server, client, payloads = make_coap_net()
    order = []
    client.post(b"a", on_result=lambda ok: order.append("a"))
    client.post(b"b", on_result=lambda ok: order.append("b"))
    assert client.pending() == 2
    net.sim.run(until=10.0)
    assert order == ["a", "b"]
    assert payloads == [b"a", b"b"]


def test_server_dedups_retransmitted_request():
    # drop the first ACK (to_mesh) so the client retransmits; the server
    # must not double-count the payload
    net, server, client, payloads = make_coap_net(
        seed=9, params=CoapParams(ack_timeout=0.5)
    )

    class DropFirstToMesh:
        def __init__(self):
            self.dropped = False

        def apply(self, wired):
            orig = wired.send

            def send(packet, toward):
                if toward != CLOUD_ID and not self.dropped:
                    self.dropped = True
                    wired.packets_dropped += 1
                    return
                orig(packet, toward)

            wired.send = send

    DropFirstToMesh().apply(net.wired)
    results = []
    client.post(b"once", on_result=results.append)
    net.sim.run(until=30.0)
    assert results == [True]
    assert payloads == [b"once"]
    assert server.trace.counters.get("coap.duplicates") >= 1


def test_ack_waiting_callback_toggles():
    net = build_chain(1, seed=0)
    server = CoapServer(net.sim, net.udp_stack(CLOUD_ID))
    states = []
    client = CoapClient(net.sim, net.nodes[1].udp, net.rng, CLOUD_ID,
                        on_ack_waiting=states.append)
    client.post(b"p")
    assert states == [True]
    net.sim.run(until=5.0)
    assert states[-1] is False
