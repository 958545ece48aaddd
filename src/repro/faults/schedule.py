"""The fault-schedule spec: a validated JSON/dict description of faults.

A schedule is a dict (or JSON file) of the form::

    {
      "name": "relay-chaos",            # optional label
      "faults": [
        {"kind": "bursty_loss", "p_good_bad": 0.03, "p_bad_good": 0.3},
        {"kind": "uniform_loss", "rate": 0.05, "at": 10.0, "until": 20.0},
        {"kind": "frame_corruption", "rate": 0.01, "truncate_rate": 0.5},
        {"kind": "link_flap", "a": 0, "b": 1, "at": 12.0, "down_for": 1.5,
         "repeat_every": 10.0, "count": 3},
        {"kind": "node_reboot", "node": 1, "at": 25.0, "outage": 3.0},
        {"kind": "clock_drift", "node": 2, "skew": 1.0005,
         "offset_ms": 120000}
      ]
    }

Common optional keys on the stochastic kinds: ``link`` (``[a, b]``
directed, omit for all links), ``at``/``until`` (active window in sim
seconds; default always-on).  All fields are validated eagerly so a
typo'd spec fails at load time, not 40 simulated seconds into a run.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Tuple

#: kind -> (required fields, optional fields with defaults)
_SPECS: Dict[str, Tuple[Dict[str, type], Dict[str, object]]] = {
    "bursty_loss": (
        {"p_good_bad": float, "p_bad_good": float},
        {"loss_good": 0.0, "loss_bad": 1.0, "link": None,
         "at": 0.0, "until": None},
    ),
    "uniform_loss": (
        {"rate": float},
        {"link": None, "at": 0.0, "until": None},
    ),
    "frame_corruption": (
        {"rate": float},
        {"truncate_rate": 0.5, "link": None, "at": 0.0, "until": None},
    ),
    "link_flap": (
        {"a": int, "b": int, "at": float, "down_for": float},
        {"repeat_every": None, "count": 1},
    ),
    "node_reboot": (
        {"node": int, "at": float, "outage": float},
        {},
    ),
    "clock_drift": (
        {"node": int},
        {"skew": 1.0, "offset_ms": 0},
    ),
}

#: float-valued fields: optional ones are coerced through this set,
#: required ones through their _SPECS type
_FLOAT_FIELDS = {"at", "until", "repeat_every", "down_for", "outage", "skew"}

#: upper bound on ``link_flap.count``: the injector schedules every flap
#: up front, two events each (the same bound as campaign ``MAX_RUNS``)
MAX_FLAPS = 100_000

_PROBABILITY_FIELDS = {
    "p_good_bad", "p_bad_good", "loss_good", "loss_bad", "rate",
    "truncate_rate",
}


def _coerce_number(kind: str, field: str, value, expected: type):
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"{kind}.{field} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ValueError(
                f"{kind}.{field} must be finite, got {value!r}")
        return float(value)
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"{kind}.{field} must be an integer, got {value!r}")
        return value
    return value


def _validate_fault(index: int, entry: object) -> Dict[str, object]:
    if not isinstance(entry, dict):
        raise ValueError(f"faults[{index}] must be an object, got {entry!r}")
    kind = entry.get("kind")
    if kind not in _SPECS:
        raise ValueError(
            f"faults[{index}]: unknown kind {kind!r} "
            f"(expected one of {sorted(_SPECS)})"
        )
    required, optional = _SPECS[kind]
    allowed = {"kind"} | set(required) | set(optional)
    unknown = set(entry) - allowed
    if unknown:
        raise ValueError(
            f"faults[{index}] ({kind}): unknown fields {sorted(unknown)}")
    out: Dict[str, object] = {"kind": kind}
    for field, expected in required.items():
        if field not in entry:
            raise ValueError(f"faults[{index}] ({kind}): missing '{field}'")
        out[field] = _coerce_number(kind, field, entry[field], expected)
    for field, default in optional.items():
        value = entry.get(field, default)
        if value is not None and field in _FLOAT_FIELDS:
            value = _coerce_number(kind, field, value, float)
        if field in ("count", "offset_ms") and value is not None:
            value = _coerce_number(kind, field, value, int)
        out[field] = value
    # semantic checks
    for field in _PROBABILITY_FIELDS & set(out):
        p = out[field]
        if not 0.0 <= p <= 1.0:
            raise ValueError(
                f"faults[{index}] ({kind}): {field}={p} outside [0, 1]")
    link = out.get("link")
    if link is not None:
        if (not isinstance(link, (list, tuple)) or len(link) != 2
                or not all(isinstance(n, int) for n in link)):
            raise ValueError(
                f"faults[{index}] ({kind}): link must be [a, b], got {link!r}")
        out["link"] = (link[0], link[1])
    for field in ("at", "down_for", "outage"):
        if field in out and out[field] < 0:
            raise ValueError(
                f"faults[{index}] ({kind}): {field} must be >= 0")
    if out.get("until") is not None and out["until"] <= out.get("at", 0.0):
        raise ValueError(
            f"faults[{index}] ({kind}): until must exceed at")
    if kind == "link_flap":
        if not 1 <= out["count"] <= MAX_FLAPS:
            raise ValueError(
                f"faults[{index}] (link_flap): count must be in "
                f"1..{MAX_FLAPS}, got {out['count']!r}")
        if out["count"] > 1 and not out["repeat_every"]:
            raise ValueError(
                f"faults[{index}] (link_flap): repeat_every required "
                f"when count > 1")
        if out["repeat_every"] is not None and out["repeat_every"] <= 0:
            raise ValueError(
                f"faults[{index}] (link_flap): repeat_every must be > 0")
    if kind == "clock_drift" and out["skew"] <= 0:
        raise ValueError(f"faults[{index}] (clock_drift): skew must be > 0")
    return out


class FaultSchedule:
    """A validated list of fault descriptions driving one injector."""

    def __init__(self, faults: List[Dict[str, object]], name: str = ""):
        self.name = name
        self.faults = [_validate_fault(i, f) for i, f in enumerate(faults)]

    @classmethod
    def from_dict(cls, spec: Dict[str, object]) -> "FaultSchedule":
        """Build from a spec dict (``{"name": ..., "faults": [...]}``).

        A bare list is accepted as shorthand for ``{"faults": [...]}``.
        """
        if isinstance(spec, list):
            return cls(spec)
        if not isinstance(spec, dict):
            raise ValueError(f"fault spec must be a dict or list, got {spec!r}")
        faults = spec.get("faults")
        if not isinstance(faults, list):
            raise ValueError("fault spec needs a 'faults' list")
        unknown = set(spec) - {"name", "faults"}
        if unknown:
            raise ValueError(f"fault spec: unknown top-level keys {sorted(unknown)}")
        return cls(faults, name=str(spec.get("name", "")))

    @classmethod
    def from_json(cls, path) -> "FaultSchedule":
        """Load and validate a JSON spec file."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> Dict[str, object]:
        """Round-trippable spec form (links back to JSON lists)."""
        faults = []
        for f in self.faults:
            entry = dict(f)
            if entry.get("link") is not None:
                entry["link"] = list(entry["link"])
            faults.append(entry)
        return {"name": self.name, "faults": faults}

    def by_kind(self, kind: str) -> List[Dict[str, object]]:
        """All faults of one kind, in spec order."""
        return [f for f in self.faults if f["kind"] == kind]

    def __len__(self) -> int:
        return len(self.faults)
