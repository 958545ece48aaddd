"""Process-chaos tests: schedule validation and the gateway
quiescence check."""

import json

import pytest

from repro.faults.process import ProcessFaultSchedule
from repro.verify import check_gateway_quiescent


class TestProcessFaultSchedule:
    def test_valid_spec_roundtrips(self):
        spec = {
            "name": "mixed",
            "faults": [
                {"kind": "client_reset", "at": 0.5, "count": 4},
                {"kind": "slow_loris", "at": 1.0},
                {"kind": "partial_write", "at": 1.5, "bytes": 16},
                {"kind": "accept_storm", "at": 2.0, "connections": 100},
            ],
        }
        sched = ProcessFaultSchedule.from_dict(spec)
        assert len(sched) == 4
        # defaults filled in
        by_kind = {f["kind"]: f for f in sched.faults}
        assert by_kind["slow_loris"]["hold"] == 10.0
        assert by_kind["slow_loris"]["prelude_bytes"] == 4
        assert by_kind["client_reset"]["count"] == 4
        rebuilt = ProcessFaultSchedule.from_dict(sched.to_dict())
        assert rebuilt.to_dict() == sched.to_dict()

    def test_split_and_ordering(self):
        sched = ProcessFaultSchedule([
            {"kind": "accept_storm", "at": 3.0, "connections": 10},
            {"kind": "client_reset", "at": 1.0},
            {"kind": "slow_loris", "at": 2},
        ])
        assert [f["at"] for f in sched.gateway_ops()] == [1.0, 2.0, 3.0]

    def test_bare_list_accepted(self):
        sched = ProcessFaultSchedule.from_dict(
            [{"kind": "client_reset", "at": 0}])
        assert len(sched) == 1

    def test_from_json(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({
            "faults": [{"kind": "client_reset", "at": 0.0}]}))
        assert len(ProcessFaultSchedule.from_json(path)) == 1

    @pytest.mark.parametrize("entry,message", [
        ({"kind": "disk_full"}, "unknown kind"),
        # a kind that went with the tier it attacked
        ({"kind": "worker_kill", "window": 1}, "unknown kind"),
        ({"kind": "client_reset", "at": 0.0, "x": 2}, "unknown fields"),
        ({"kind": "client_reset", "at": 0.0, "count": 0.5},
         "must be an integer"),
        ({"kind": "client_reset", "at": -1.0}, "must be >= 0"),
        ({"kind": "client_reset", "at": 0.0, "count": 0}, "must be >= 1"),
        ({"kind": "accept_storm", "at": 0.0}, "missing 'connections'"),
        ("not-a-dict", "must be an object"),
        # declared error, never a traceback or an endless sleep
        ({"kind": ["x"]}, "unknown kind"),
        ({"kind": "client_reset", "at": float("nan")}, "must be finite"),
        ({"kind": "client_reset", "at": float("inf")}, "must be finite"),
        ({"kind": "slow_loris", "at": 0.0, "hold": float("inf")},
         "must be finite"),
        ({"kind": "client_reset", "at": 10 ** 400}, "must be finite"),
        # the chaos client loops over these, opening a socket each
        ({"kind": "client_reset", "at": 0.0, "count": 10 ** 12},
         "must be <= "),
        ({"kind": "accept_storm", "at": 0.0, "connections": 10 ** 12},
         "must be <= "),
        ({"kind": "partial_write", "at": 0.0, "bytes": 10 ** 12},
         "must be <= "),
        ({"kind": "slow_loris", "at": 0.0, "prelude_bytes": 10 ** 12},
         "must be <= "),
    ])
    def test_invalid_faults_rejected(self, entry, message):
        with pytest.raises(ValueError, match=message):
            ProcessFaultSchedule([entry])

    def test_invalid_top_level_rejected(self):
        with pytest.raises(ValueError, match="'faults' list"):
            ProcessFaultSchedule.from_dict({"name": "x"})
        with pytest.raises(ValueError, match="unknown top-level"):
            ProcessFaultSchedule.from_dict({"faults": [], "extra": 1})


class _FakeStack:
    def __init__(self, live):
        self.live = live

    def active_connections(self):
        return self.live


class _FakeGateway:
    def __init__(self, bridges=0, pinned=0, live=0):
        self._bridges = bridges
        self._pinned = pinned
        self.tcp_stack = _FakeStack(live)

    def active_bridges(self):
        return self._bridges

    def splice_used(self):
        return self._pinned


class TestCheckGatewayQuiescent:
    def test_clean_gateway_passes(self):
        assert check_gateway_quiescent(_FakeGateway()) == []

    def test_each_leak_is_its_own_violation(self):
        violations = check_gateway_quiescent(
            _FakeGateway(bridges=2, pinned=512, live=1))
        assert len(violations) == 3
        assert any("bridged" in v for v in violations)
        assert any("splice" in v for v in violations)
        assert any("TCP stack" in v for v in violations)
