"""The RED queue with ECN marking."""

import pytest

from repro.net.ipv6 import ECN_CE, ECN_ECT0, ECN_NOT_ECT, Ipv6Packet, PROTO_TCP
from repro.net.queues import RedParams, RedQueue
from repro.sim.rng import RngStreams


def pkt(ecn=ECN_NOT_ECT):
    return Ipv6Packet(src=1, dst=2, next_header=PROTO_TCP, payload=None,
                      payload_bytes=100, ecn=ecn)


class TestRed:
    def make(self, **kw):
        defaults = dict(min_th=2.0, max_th=6.0, max_p=0.5, wq=1.0,
                        capacity=10, use_ecn=True)
        defaults.update(kw)
        return RedQueue(RedParams(**defaults), RngStreams(3))

    def test_below_min_th_always_enqueues(self):
        q = self.make()
        for _ in range(2):
            assert q.enqueue(pkt()) == "enqueue"
        assert q.drops == 0 and q.marks == 0

    def test_above_max_th_marks_ect_packets(self):
        q = self.make()
        # fill past max_th (wq=1 makes avg track the instantaneous size)
        outcomes = [q.enqueue(pkt(ECN_ECT0)) for _ in range(9)]
        assert "mark" in outcomes
        marked = [p for p in q._queue if p.ecn == ECN_CE]
        assert marked, "a CE-marked packet should be in the queue"

    def test_above_max_th_drops_not_ect(self):
        q = self.make()
        outcomes = [q.enqueue(pkt(ECN_NOT_ECT)) for _ in range(9)]
        assert "drop" in outcomes
        assert q.drops >= 1

    def test_ecn_disabled_drops_instead_of_marking(self):
        q = self.make(use_ecn=False)
        outcomes = [q.enqueue(pkt(ECN_ECT0)) for _ in range(9)]
        assert "mark" not in outcomes
        assert q.drops >= 1

    def test_hard_capacity_enforced(self):
        q = self.make(min_th=100, max_th=200, capacity=3)
        outcomes = [q.enqueue(pkt()) for _ in range(5)]
        assert outcomes.count("enqueue") == 3
        assert outcomes.count("drop") == 2

    def test_avg_is_ewma(self):
        q = self.make(wq=0.5)
        q.enqueue(pkt())
        assert q.avg == pytest.approx(0.0)  # measured before enqueue
        q.enqueue(pkt())
        assert q.avg == pytest.approx(0.5)

    def test_probabilistic_region_marks_sometimes(self):
        q = self.make(min_th=1, max_th=100, max_p=0.5, wq=1.0, capacity=100)
        outcomes = [q.enqueue(pkt(ECN_ECT0)) for _ in range(50)]
        assert outcomes.count("mark") >= 1
        assert outcomes.count("enqueue") >= 1
