"""What counts as a valid value in a spec, for every eager validator.

Fault and campaign specs, :class:`~repro.gateway.limits.GatewayLimits`,
the realtime pacer and the command-line tools all ask these questions,
so a hostile value (``True`` for a count, ``nan`` or ``10**400`` for a
time, a list for a kind) gets a ``ValueError`` naming the field, never
a ``TypeError`` or ``OverflowError`` from inside a comparison.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Dict, List, Optional, Tuple


def is_int(value, minimum: Optional[int] = None) -> bool:
    """An integer (``True`` is not one), at least ``minimum`` if given."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and (minimum is None or value >= minimum))


def is_number(value, minimum: float = -math.inf) -> bool:
    """A finite double (``True`` is not one), at least ``minimum``.

    ``10**400`` is not one; it is compared exactly, never converted.
    """
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and minimum <= value and abs(value) <= sys.float_info.max)


def is_positive_number(value) -> bool:
    """A finite number above zero (``True`` is not one)."""
    return is_number(value) and value > 0


def check_block(block, defaults: Dict, path: str) -> Dict:
    """``defaults`` updated by ``block`` (``None``: by nothing), whose
    keys must all be keys of ``defaults``."""
    if block is None:
        return dict(defaults)
    if not isinstance(block, dict):
        raise ValueError(f"{path}: must be an object, got {block!r}")
    unknown = set(block) - set(defaults)
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown, key=str)} "
                         f"(expected {sorted(defaults)})")
    out = dict(defaults)
    out.update(block)
    return out


def check_fields(values: Dict, rules: Dict, path: str = "") -> None:
    """Check ``values`` against ``{name: (int or float, rule, nullable)}``.

    ``rule`` is ``">= N"`` or ``"> N"``; either type must fit a double.
    """
    for name, (kind, rule, nullable) in rules.items():
        value = values[name]
        if value is None and nullable:
            continue
        op, bound = rule.split()
        if not (is_number(value) and (kind is float or is_int(value))
                and (value > int(bound) if op == ">"
                     else value >= int(bound))):
            what = "an integer" if kind is int else "a finite number"
            raise ValueError(f"{path}{name}: must be {what} {rule}"
                             f"{' or null' if nullable else ''}, "
                             f"got {value!r}")


#: a kind-table field type: a finite number kept as given (an integer
#: stays an integer), where ``float`` stores it as a float
NUMBER = (int, float)


def _check_value(kind: str, field: str, value, expected):
    if expected is int and not is_int(value):
        raise ValueError(f"{kind}.{field} must be an integer, got {value!r}")
    if expected is float or expected is NUMBER:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{kind}.{field} must be a number, got {value!r}")
        if not is_number(value):
            raise ValueError(f"{kind}.{field} must be finite, got {value!r}")
        return float(value) if expected is float else value
    return value  # an int, or a type the owning schedule checks


def _check_kind(index: int, entry, specs: Dict) -> Dict[str, object]:
    """Validate ``faults[index]`` against ``specs`` (see KindSchedule)."""
    if not isinstance(entry, dict):
        raise ValueError(f"faults[{index}] must be an object, got {entry!r}")
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in specs:
        raise ValueError(
            f"faults[{index}]: unknown kind {kind!r} "
            f"(expected one of {sorted(specs)})")
    required, optional = specs[kind]
    unknown = set(entry) - {"kind"} - set(required) - set(optional)
    if unknown:
        raise ValueError(f"faults[{index}] ({kind}): unknown fields "
                         f"{sorted(unknown, key=str)}")
    out: Dict[str, object] = {"kind": kind}
    for field, expected in required.items():
        if field not in entry:
            raise ValueError(f"faults[{index}] ({kind}): missing '{field}'")
        out[field] = _check_value(kind, field, entry[field], expected)
    for field, (expected, default) in optional.items():
        value = entry.get(field, default)
        out[field] = (None if value is None and default is None
                      else _check_value(kind, field, value, expected))
    return out


class KindSchedule:
    """A named list of ``{"kind": ..., field: value}`` entries.

    A subclass sets the kind table ``_SPECS``: kind -> (required
    ``{field: type}``, optional ``{field: (type, default)}``), and a
    static ``_check(index, entry)`` that applies its semantic rules and
    returns the entry.  ``float``, ``int`` and :data:`NUMBER` fields are
    type-checked here, a field of any other type only by ``_check``.  An
    optional field whose default is ``None`` may be ``null``.
    """

    _SPECS: Dict[str, Tuple[Dict, Dict]] = {}

    def __init__(self, faults: List[Dict[str, object]], name: str = ""):
        self.name = name
        self.faults = [self._check(i, _check_kind(i, f, self._SPECS))
                       for i, f in enumerate(faults)]

    @classmethod
    def from_dict(cls, spec):
        """Build from ``{"name": ..., "faults": [...]}`` or a bare list."""
        if isinstance(spec, list):
            return cls(spec)
        if not isinstance(spec, dict):
            raise ValueError(
                f"fault spec must be a dict or list, got {spec!r}")
        faults = spec.get("faults")
        if not isinstance(faults, list):
            raise ValueError("fault spec needs a 'faults' list")
        unknown = set(spec) - {"name", "faults"}
        if unknown:
            raise ValueError(f"fault spec: unknown top-level keys "
                             f"{sorted(unknown, key=str)}")
        return cls(faults, name=str(spec.get("name", "")))

    @classmethod
    def from_json(cls, path):
        """Load and validate a JSON spec file."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> Dict[str, object]:
        """Round-trippable spec form (tuples back to JSON lists)."""
        return {"name": self.name, "faults": [
            {k: list(v) if isinstance(v, tuple) else v for k, v in f.items()}
            for f in self.faults]}

    def __len__(self) -> int:
        return len(self.faults)
