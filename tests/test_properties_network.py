"""Property-based tests for network-layer components."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ipv6 import ECN_CE, ECN_ECT0, ECN_NOT_ECT, Ipv6Packet, PROTO_TCP
from repro.net.queues import RedParams, RedQueue
from repro.sim.rng import RngStreams


def pkt(ecn=ECN_NOT_ECT):
    return Ipv6Packet(src=1, dst=2, next_header=PROTO_TCP, payload=None,
                      payload_bytes=64, ecn=ecn)


class TestRedProperties:
    @given(
        min_th=st.floats(0.5, 5.0),
        spread=st.floats(0.5, 5.0),
        max_p=st.floats(0.01, 1.0),
        wq=st.floats(0.01, 1.0),
        capacity=st.integers(1, 20),
        arrivals=st.integers(0, 200),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=60)
    def test_capacity_never_exceeded(self, min_th, spread, max_p, wq,
                                     capacity, arrivals, seed):
        q = RedQueue(RedParams(min_th=min_th, max_th=min_th + spread,
                               max_p=max_p, wq=wq, capacity=capacity),
                     RngStreams(seed))
        for _ in range(arrivals):
            q.enqueue(pkt(ECN_ECT0))
        assert len(q) <= capacity

    @given(seed=st.integers(0, 999), n=st.integers(1, 100))
    @settings(max_examples=30)
    def test_not_ect_packets_never_get_marked(self, seed, n):
        q = RedQueue(RedParams(min_th=0.5, max_th=2.0, max_p=1.0, wq=1.0,
                               capacity=50), RngStreams(seed))
        for _ in range(n):
            q.enqueue(pkt(ECN_NOT_ECT))
        # drain: nothing may carry CE (only drops are allowed)
        while True:
            p = q.dequeue()
            if p is None:
                break
            assert p.ecn != ECN_CE

    @given(seed=st.integers(0, 999), n=st.integers(1, 100))
    @settings(max_examples=30)
    def test_accounting_conserves_packets(self, seed, n):
        q = RedQueue(RedParams(capacity=8), RngStreams(seed))
        outcomes = [q.enqueue(pkt(ECN_ECT0)) for _ in range(n)]
        kept = outcomes.count("enqueue") + outcomes.count("mark")
        assert kept == len(q)
        assert outcomes.count("drop") == q.drops == n - kept
