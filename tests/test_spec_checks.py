"""Hostile input for every eager spec validator, and normalization pins.

The contract (ROADMAP item 1(c)): a spec either loads or fails with a
declared ``ValueError``, never another exception; an accepted spec
survives ``from_dict(x.to_dict())`` unchanged.  The fuzz below takes a
valid spec for each validated surface and replaces one field — or a
fault's ``kind`` — with a hostile JSON-ish value.

The pins hold the exact normalized output (types included: an integer
``loss_good`` stays an integer, an integer ``at`` becomes a float), so
that run identities derived from it do not move.
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import CampaignSpec
from repro.faults import FaultSchedule
from repro.faults.process import ProcessFaultSchedule
from repro.gateway.limits import GatewayLimits

TOOLS = Path(__file__).resolve().parent.parent / "tools"

#: every kind, with integer literals in float fields
EVERY_KIND = {"name": "every-kind", "faults": [
    {"kind": "bursty_loss", "p_good_bad": 0, "p_bad_good": 1,
     "loss_good": 0, "loss_bad": 1, "link": [0, 1], "at": 1, "until": 30},
    {"kind": "uniform_loss", "rate": 0, "at": 2, "until": 3},
    {"kind": "frame_corruption", "rate": 1, "truncate_rate": 0,
     "link": [2, 1]},
    {"kind": "link_flap", "a": 0, "b": 1, "at": 12, "down_for": 2,
     "repeat_every": 10, "count": 3},
    {"kind": "node_reboot", "node": 1, "at": 25, "outage": 3},
    {"kind": "clock_drift", "node": 2, "skew": 1, "offset_ms": 120000},
]}

PROCESS = {"name": "abuse", "faults": [
    {"kind": "client_reset", "at": 0, "count": 2},
    {"kind": "slow_loris", "at": 1, "count": 1, "hold": 3,
     "prelude_bytes": 4},
    {"kind": "partial_write", "at": 2.5, "count": 1, "bytes": 8},
    {"kind": "accept_storm", "at": 3, "connections": 10},
]}

FULL_CAMPAIGN = {
    "name": "full", "experiments": ["ayadi_energy"], "quick": False,
    "grid": {"frame_loss": [0.05, 0.1], "window": [2, 4]},
    "seeds": [5, 6, 7],
    "faults": EVERY_KIND,
    "runner": {"jobs": 2, "timeout_s": 30, "retries": 1,
               "retry_backoff_s": 1, "verify": True, "metrics": True},
}

LIMITS = {"max_connections": 8, "accept_rate": 50, "accept_burst": 4,
          "establish_timeout": 2.0, "idle_timeout": 3,
          "splice_budget": 1 << 20, "breaker_threshold": 3,
          "breaker_cooldown": 0, "backlog": 16, "high_water": 4096,
          "low_water": 1024, "reap_interval": 0.25}

_EVERY_KIND_FAULTS = (
    '[{"kind":"bursty_loss","p_good_bad":0.0,"p_bad_good":1.0,'
    '"loss_good":0,"loss_bad":1,"link":[0,1],"at":1.0,"until":30.0},'
    '{"kind":"uniform_loss","rate":0.0,"link":null,"at":2.0,'
    '"until":3.0},'
    '{"kind":"frame_corruption","rate":1.0,"truncate_rate":0,'
    '"link":[2,1],"at":0.0,"until":null},'
    '{"kind":"link_flap","a":0,"b":1,"at":12.0,"down_for":2.0,'
    '"repeat_every":10.0,"count":3},'
    '{"kind":"node_reboot","node":1,"at":25.0,"outage":3.0},'
    '{"kind":"clock_drift","node":2,"skew":1.0,"offset_ms":120000}]')
EVERY_KIND_PIN = '{"name":"every-kind","faults":' + _EVERY_KIND_FAULTS + '}'
SMOKE_PIN = (
    '{"name":"campaign-smoke","experiments":["ayadi_energy"],'
    '"quick":true,"grid":{"frames":[3,6],"frame_loss":[0.05,0.1],'
    '"window":[2,4]},"seeds":[0],"faults":null,"runner":{"jobs":null,'
    '"timeout_s":null,"retries":0,"retry_backoff_s":2.0,"verify":false,'
    '"metrics":false}}')
SMOKE_DIGEST = \
    "2e82e1fe46246dcdc42db5feaf3d6723ae6ab6d04c38f64eb34b827ebbfb74cd"
FULL_PIN = (
    '{"name":"full","experiments":["ayadi_energy"],"quick":false,'
    '"grid":{"frame_loss":[0.05,0.1],"window":[2,4]},"seeds":[5,6,7],'
    '"faults":{"name":"every-kind","faults":' + _EVERY_KIND_FAULTS + '},'
    '"runner":{"jobs":2,"timeout_s":30,"retries":1,"retry_backoff_s":1,'
    '"verify":true,"metrics":true}}')
FULL_DIGEST = \
    "57768c2451fd76209da5dda453349fb74c0d1852a51ca5aa62d25a11632cedd2"

_encode = json.JSONEncoder(separators=(",", ":")).encode


class TestNormalizationPins:
    def test_every_fault_kind(self):
        sched = FaultSchedule.from_dict(EVERY_KIND)
        assert _encode(sched.to_dict()) == EVERY_KIND_PIN

    def test_campaign_smoke_spec(self):
        sys.path.insert(0, str(TOOLS))
        try:
            from campaign import SMOKE_SPEC
        finally:
            sys.path.remove(str(TOOLS))
        spec = CampaignSpec.from_dict(SMOKE_SPEC)
        assert _encode(spec._to_dict()) == SMOKE_PIN
        assert spec.digest() == SMOKE_DIGEST

    def test_full_campaign_spec(self):
        spec = CampaignSpec.from_dict(FULL_CAMPAIGN)
        assert _encode(spec._to_dict()) == FULL_PIN
        assert spec.digest() == FULL_DIGEST


#: (valid spec, build, to_dict) per validated surface
_SURFACES = {
    "faults": (EVERY_KIND, FaultSchedule.from_dict,
               FaultSchedule.to_dict),
    "process": (PROCESS, ProcessFaultSchedule.from_dict,
                ProcessFaultSchedule.to_dict),
    "campaign": (FULL_CAMPAIGN, CampaignSpec.from_dict,
                 CampaignSpec._to_dict),
    "limits": (LIMITS, lambda kwargs: GatewayLimits(**kwargs),
               dataclasses.asdict),
}


def _paths(node, prefix=()):
    """Every key or list index inside ``node``, as a path tuple."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


_HOSTILE = st.one_of(
    st.sampled_from([None, True, False, float("nan"), float("inf"),
                     -float("inf"), 10 ** 400, -10 ** 400, 1e308, -1e308,
                     0, -1, 0.5, "", "x", [], {}, [True, False], [0],
                     {"kind": "x"}, {1: 0, "x": 0}]),
    st.text(max_size=4),
    st.lists(st.one_of(st.none(), st.booleans(), st.integers(),
                       st.floats()), max_size=3),
    st.dictionaries(st.one_of(st.text(max_size=3), st.integers()),
                    st.one_of(st.none(), st.integers(), st.floats()),
                    max_size=3),
)


@st.composite
def _mutated(draw):
    name = draw(st.sampled_from(sorted(_SURFACES)))
    spec = copy.deepcopy(_SURFACES[name][0])
    path = draw(st.sampled_from(list(_paths(spec))))
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(_HOSTILE)
    return name, spec


@given(case=_mutated())
@settings(max_examples=600, deadline=None)
def test_hostile_field_is_refused_or_round_trips(case):
    name, spec = case
    _valid, build, to_dict = _SURFACES[name]
    try:
        loaded = build(spec)
    except ValueError:
        return
    normalized = to_dict(loaded)
    assert to_dict(build(normalized)) == normalized
