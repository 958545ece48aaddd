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
seconds; default always-on).  All fields are validated eagerly, by the
rules in :mod:`repro.checks`, so a typo'd spec fails at load time with a
``ValueError``, not 40 simulated seconds into a run.
"""

from __future__ import annotations

from typing import Dict

from repro.checks import NUMBER, KindSchedule, is_int

#: upper bound on ``link_flap.count``: the injector schedules every flap
#: up front, two events each (the same bound as campaign ``MAX_RUNS``)
MAX_FLAPS = 100_000

#: upper bound on ``clock_drift.skew``.  Real crystals drift about
#: 100 ppm (a skew of 1.0001) and the tests use 2.0; a skew near the
#: double's limit would overflow the timestamp clock mid-run instead
MAX_SKEW = 10.0

_PROBABILITY_FIELDS = {
    "p_good_bad", "p_bad_good", "loss_good", "loss_bad", "rate",
    "truncate_rate",
}


#: the optional keys the stochastic kinds share
_WINDOW = {"link": (tuple, None), "at": (float, 0.0), "until": (float, None)}


class FaultSchedule(KindSchedule):
    """A validated list of fault descriptions driving one injector."""

    #: see repro.checks.KindSchedule; optional probabilities keep an int
    #: as given, every other float field is stored as a float
    _SPECS = {
        "bursty_loss": ({"p_good_bad": float, "p_bad_good": float},
                        {"loss_good": (NUMBER, 0.0), "loss_bad": (NUMBER, 1.0),
                         **_WINDOW}),
        "uniform_loss": ({"rate": float}, _WINDOW),
        "frame_corruption": ({"rate": float},
                             {"truncate_rate": (NUMBER, 0.5), **_WINDOW}),
        "link_flap": ({"a": int, "b": int, "at": float, "down_for": float},
                      {"repeat_every": (float, None), "count": (int, 1)}),
        "node_reboot": ({"node": int, "at": float, "outage": float}, {}),
        "clock_drift": ({"node": int},
                        {"skew": (float, 1.0), "offset_ms": (int, 0)}),
    }

    @staticmethod
    def _check(index: int, out: Dict[str, object]) -> Dict[str, object]:
        kind = out["kind"]
        for field in _PROBABILITY_FIELDS & set(out):
            p = out[field]
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"faults[{index}] ({kind}): {field}={p} outside [0, 1]")
        link = out.get("link")
        if link is not None:
            if (not isinstance(link, (list, tuple)) or len(link) != 2
                    or not all(map(is_int, link))):
                raise ValueError(f"faults[{index}] ({kind}): link must be "
                                 f"[a, b], got {link!r}")
            out["link"] = (link[0], link[1])
        for field in ("at", "down_for", "outage"):
            if field in out and out[field] < 0:
                raise ValueError(
                    f"faults[{index}] ({kind}): {field} must be >= 0")
        if out.get("until") is not None and out["until"] <= out["at"]:
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
        if kind == "clock_drift" and not 0 < out["skew"] <= MAX_SKEW:
            raise ValueError(f"faults[{index}] (clock_drift): skew must be "
                             f"in (0, {MAX_SKEW}], got {out['skew']!r}")
        return out
