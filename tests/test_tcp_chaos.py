"""Fault-injection tests: TCP's end-to-end contract under hostile networks.

The invariant: whatever frames the network mangles, drops, or delays,
the receiving application sees exactly the byte stream the sender
wrote — in order, without gaps or duplicates — or the connection
reports an error.  Silent corruption is never acceptable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simplified import tcplp_params, uip_params
from repro.core.socket_api import TcpStack
from repro.experiments.topology import build_chain, build_pair
from repro.faults import FaultInjector, FaultSchedule
from repro.faults.models import SkewedClock
from repro.phy.medium import UniformLoss
from repro.sim.rng import RngStreams
from repro.verify import postrun as invariants


def run_transfer(net, payload, sender_id, receiver_id, params_tx, params_rx,
                 deadline=600.0):
    stack_tx = TcpStack(net.sim, net.nodes[sender_id].ipv6, sender_id)
    stack_rx = TcpStack(net.sim, net.nodes[receiver_id].ipv6, receiver_id)
    got = []
    done = []

    def on_accept(conn):
        conn.on_data = got.append

    stack_rx.listen(8000, on_accept, params=params_rx)
    conn = stack_tx.connect(receiver_id, 8000, params=params_tx)
    errors = []
    conn.on_error = errors.append
    sent = [0]

    def fill():
        while sent[0] < len(payload) and conn.send_buf.free > 0:
            n = conn.send(payload[sent[0]: sent[0] + 512])
            if n == 0:
                break
            sent[0] += n

    conn.on_connect = fill
    conn.on_send_space = fill
    net.sim.run(until=deadline)
    return b"".join(got), errors


@settings(max_examples=12, deadline=None)
@given(
    loss=st.floats(min_value=0.0, max_value=0.25),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_stream_integrity_under_random_frame_loss(loss, seed):
    net = build_pair(seed=seed)
    net.medium.loss_models.append(
        UniformLoss(loss, RngStreams(seed + 1))
    )
    payload = bytes(range(256)) * 24  # 6 KiB, position-identifying bytes
    data, errors = run_transfer(net, payload, 0, 1,
                                tcplp_params(), tcplp_params())
    if not errors:
        assert data == payload
    else:
        # a declared failure is acceptable; silent corruption is not
        assert data == payload[: len(data)]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_stream_integrity_multihop_with_hidden_terminals(seed):
    net = build_chain(3, seed=seed, with_cloud=False)
    # d = 0: worst-case hidden-terminal collisions (§7.1)
    payload = bytes((i * 7 + 3) % 256 for i in range(4096))
    data, errors = run_transfer(net, payload, 3, 0,
                                tcplp_params(), tcplp_params())
    if not errors:
        assert data == payload
    else:
        assert data == payload[: len(data)]


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_stream_integrity_asymmetric_params(seed):
    """A full-featured sender against a crippled uIP-like receiver."""
    net = build_pair(seed=seed)
    net.medium.loss_models.append(UniformLoss(0.1, RngStreams(seed + 7)))
    payload = bytes((i * 13 + 1) % 256 for i in range(2048))
    data, errors = run_transfer(net, payload, 0, 1,
                                tcplp_params(), uip_params(mss_frames=4))
    if not errors:
        assert data == payload
    else:
        assert data == payload[: len(data)]


def test_route_change_mid_transfer():
    """Re-route the flow through a different relay mid-transfer; TCP's
    retransmissions absorb the disruption."""
    net = build_chain(3, seed=77, with_cloud=False)
    # add an alternate relay (node 9) parallel to node 2
    from repro.net.node import Node
    alt = Node(net.sim, net.medium, net.rng, 9, (16.0, 3.0), net.routing)
    net.nodes[9] = alt
    payload = bytes(range(256)) * 16
    stack_tx = TcpStack(net.sim, net.nodes[3].ipv6, 3)
    stack_rx = TcpStack(net.sim, net.nodes[0].ipv6, 0)
    got = []
    stack_rx.listen(8000, lambda c: setattr(c, "on_data", got.append),
                    params=tcplp_params())
    conn = stack_tx.connect(0, 8000, params=tcplp_params())
    sent = [0]

    def fill():
        while sent[0] < len(payload) and conn.send_buf.free > 0:
            n = conn.send(payload[sent[0]: sent[0] + 512])
            sent[0] += n
            if n == 0:
                break

    conn.on_connect = fill
    conn.on_send_space = fill

    def reroute():
        # switch the middle relay from node 2 to node 9
        net.routing.set_route(3, 0, 9)
        net.routing.set_route(9, 0, 1)
        net.routing.set_route(1, 3, 9)
        net.routing.set_route(9, 3, 3)

    net.sim.schedule(2.0, reroute)
    net.sim.run(until=120.0)
    assert b"".join(got) == payload


def test_border_router_blackout_and_recovery():
    """The first hop dies for 5 seconds mid-flow; the connection
    backs off, survives, and finishes once the link heals."""
    net = build_pair(seed=88)
    payload = bytes(range(256)) * 48  # big enough to straddle the outage
    data_box = []
    stack_tx = TcpStack(net.sim, net.nodes[0].ipv6, 0)
    stack_rx = TcpStack(net.sim, net.nodes[1].ipv6, 1)
    stack_rx.listen(8000, lambda c: setattr(c, "on_data", data_box.append),
                    params=tcplp_params())
    conn = stack_tx.connect(1, 8000, params=tcplp_params())
    sent = [0]

    def fill():
        while sent[0] < len(payload) and conn.send_buf.free > 0:
            n = conn.send(payload[sent[0]: sent[0] + 512])
            sent[0] += n
            if n == 0:
                break

    conn.on_connect = fill
    conn.on_send_space = fill
    net.sim.schedule(0.3, lambda: net.medium.block_link(0, 1))
    net.sim.schedule(5.3, net.medium._blocked_links.clear)
    net.sim.run(until=120.0)
    assert b"".join(data_box) == payload
    assert conn.trace.counters.get("tcp.rto_events") >= 1


# ----------------------------------------------------------------------
# PR 3: seeded random fault schedules (repro.faults)
# ----------------------------------------------------------------------
def _random_chaos_schedule(seed):
    """Bursty loss + 1-2 link flaps + one relay reboot, all derived
    deterministically from the seed."""
    rng = RngStreams(seed)

    def draw():
        return rng.random("chaos-gen")

    faults = [{
        "kind": "bursty_loss",
        "p_good_bad": 0.01 + 0.05 * draw(),
        "p_bad_good": 0.25 + 0.5 * draw(),
    }]
    for _ in range(1 + int(draw() * 2)):
        faults.append({
            "kind": "link_flap", "a": 0, "b": 1,
            "at": 2.0 + 8.0 * draw(),
            "down_for": 0.2 + 1.3 * draw(),
        })
    faults.append({
        "kind": "node_reboot", "node": 1,
        "at": 4.0 + 8.0 * draw(),
        "outage": 0.5 + 2.5 * draw(),
    })
    return FaultSchedule.from_dict(
        {"name": f"chaos-{seed}", "faults": faults})


@pytest.mark.parametrize("seed", range(20))
def test_chaos_schedule_integrity_and_clean_teardown(seed):
    """Property-style: across 20 random compound fault schedules, the
    byte stream stays intact and teardown leaves no armed TCP timer."""
    net = build_chain(2, seed=seed, with_cloud=False)
    for n in net.nodes.values():
        n.mac.params.retry_delay = 0.04
    injector = FaultInjector(net, _random_chaos_schedule(seed)).arm()

    payload = bytes((i * 7 + seed) % 256 for i in range(24 * 1024))
    stack_tx = TcpStack(net.sim, net.nodes[2].ipv6, 2)
    stack_rx = TcpStack(net.sim, net.nodes[0].ipv6, 0)
    got, errors, server_conns = [], [], []
    done_at = [None]

    def on_accept(server_conn):
        server_conns.append(server_conn)
        server_conn.on_data = got.append
        server_conn.on_peer_close = server_conn.close

    stack_rx.listen(8000, on_accept, params=tcplp_params())
    conn = stack_tx.connect(0, 8000, params=tcplp_params(window_segments=4))
    conn.on_error = errors.append
    sent = [0]

    def fill():
        while sent[0] < len(payload) and conn.send_buf.free > 0:
            n = conn.send(payload[sent[0]: sent[0] + 512])
            if n == 0:
                break
            sent[0] += n
        if sent[0] >= len(payload):
            conn.close()

    conn.on_connect = fill
    conn.on_send_space = fill
    conn.on_close = lambda: done_at.__setitem__(0, net.sim.now)
    net.sim.run(until=300.0)

    if errors:
        # the application gives up: release the receiver-side socket so
        # the quiescence check observes a cleaned-up endpoint
        for sc in server_conns:
            sc.abort()
        net.sim.run(until=net.sim.now + 1.0)

    last_fault_at = max(
        (e.time for e in injector.events
         if e.kind in ("link_up", "node_reboot")), default=0.0)
    violations = invariants.check_all(
        net.sim,
        stacks=(stack_tx, stack_rx),
        sent=payload,
        received=b"".join(got),
        errors=errors,
        done_at=done_at[0],
        last_fault_at=last_fault_at,
        recovery_bound=250.0,
    )
    assert violations == [], f"seed {seed}: {violations}"
    assert injector.counts.get("node_crash") == 1


def test_transfer_across_timestamp_wrap():
    """Both endpoints' timestamp clocks wrap 2**32 ms two seconds into
    the transfer; RTT sampling must continue and the stream must
    arrive intact (regression for the ts_ecr == 0 truthiness bug)."""
    net = build_pair(seed=33)
    for node in net.nodes.values():
        node.ipv6.ts_clock = SkewedClock(offset_ms=(1 << 32) - 2000)
    payload = bytes(range(256)) * 128  # 32 KiB: straddles the wrap
    stack_tx = TcpStack(net.sim, net.nodes[0].ipv6, 0)
    stack_rx = TcpStack(net.sim, net.nodes[1].ipv6, 1)
    got = []
    stack_rx.listen(8000, lambda c: setattr(c, "on_data", got.append),
                    params=tcplp_params())
    conn = stack_tx.connect(1, 8000, params=tcplp_params())
    errors = []
    conn.on_error = errors.append
    sent = [0]

    def fill():
        while sent[0] < len(payload) and conn.send_buf.free > 0:
            n = conn.send(payload[sent[0]: sent[0] + 512])
            if n == 0:
                break
            sent[0] += n

    conn.on_connect = fill
    conn.on_send_space = fill
    samples_at_wrap = []
    net.sim.schedule_at(3.0, lambda: samples_at_wrap.append(
        conn.rtt.samples))
    net.sim.run(until=120.0)
    assert not errors
    assert b"".join(got) == payload
    # RTT sampling kept flowing after the wrap (old bug: ts_ecr == 0
    # and post-wrap echoes were treated as absent/insane)
    assert samples_at_wrap and conn.rtt.samples > samples_at_wrap[0]
    assert conn.rtt.srtt is not None and conn.rtt.srtt < 5.0
