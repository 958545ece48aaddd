"""Repetition statistics: per-cell aggregation with confidence bounds.

A campaign cell is repeated across seeds; this module turns the
per-repetition results into aggregate records: mean, median, spread,
and a Student-t confidence interval (small-sample correct under
approximate normality, the classic batched-campaign treatment).

A result's metrics are its numeric leaves, each named by its path:
dict keys and list indices joined by ``.``, so row ``i``'s
``reliability`` in a list of rows is ``i.reliability`` and Fig. 13's
``{"up": {"p50": ...}}`` gives ``up.p50``.  A flat dict's metrics are
its numeric fields, under their own names.

Everything here is pure and deterministic, so the same samples give
the same bytes in every process — a requirement for the
byte-identical cached-report contract (docs/campaigns.md).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

#: two-sided 95 % Student-t critical values, t_{0.975, df}, by df:
#: standard table values; df beyond the table interpolate on 1/df down
#: to the normal limit.  Every interval is a 95 % one.
_T_TABLE: Dict[int, float] = {
    1: 12.706,
    2: 4.303,
    3: 3.182,
    4: 2.776,
    5: 2.571,
    6: 2.447,
    7: 2.365,
    8: 2.306,
    9: 2.262,
    10: 2.228,
    12: 2.179,
    15: 2.131,
    20: 2.086,
    30: 2.042,
    60: 2.000,
    120: 1.980,
}
#: df -> infinity: the normal quantile
_Z_LIMIT = 1.960


def _t_critical(df: int) -> float:
    """Two-sided 95 % Student-t critical value for ``df`` degrees of
    freedom."""
    if df < 1:
        raise ValueError("t-based intervals need df >= 1")
    if df in _T_TABLE:
        return _T_TABLE[df]
    rows = sorted(_T_TABLE)
    if df > rows[-1]:
        # interpolate on 1/df between the last table row and df=inf
        lo = rows[-1]
        frac = (1.0 / lo - 1.0 / df) / (1.0 / lo)
        return _T_TABLE[lo] + frac * (_Z_LIMIT - _T_TABLE[lo])
    hi = min(r for r in rows if r > df)
    lo = max(r for r in rows if r < df)
    frac = (1.0 / lo - 1.0 / df) / (1.0 / lo - 1.0 / hi)
    return _T_TABLE[lo] + frac * (_T_TABLE[hi] - _T_TABLE[lo])


def _median(ordered: List[float]) -> float:
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1]
                                             + ordered[mid])


def _sample_stdev(values: List[float], mean: float) -> float:
    """Sample standard deviation; ``inf`` when it is out of range."""
    try:
        return math.sqrt(sum((v - mean) ** 2 for v in values)
                         / (len(values) - 1))
    except OverflowError:
        # float ** raises where ``*`` would give inf, and one huge
        # metric must not kill a whole report: hypot scales by the
        # largest magnitude instead of squaring it.  Only this branch
        # uses it, so every in-range report keeps its bytes.
        return (math.hypot(*(v - mean for v in values))
                / math.sqrt(len(values) - 1))


class _Record:
    """What every aggregate record is the instance ``__dict__`` of.

    The records of a report then share one key table (CPython's
    key-sharing instance dicts): each is a plain ``dict`` holding about
    170 B instead of a 280-B dict literal that holds its own keys.
    """


def _record(n, mean, median, stdev, low, high, ci_low, ci_high) -> Dict:
    """One aggregate record; the attributes are set one by one, which
    costs less than passing them through an ``__init__``."""
    record = _Record()
    record.n = n
    record.confidence = 0.95
    record.mean = mean
    record.median = median
    record.stdev = stdev
    record.min = low
    record.max = high
    record.ci_low = ci_low
    record.ci_high = ci_high
    return record.__dict__


def _aggregate(values: Sequence[float]) -> Dict:
    """One cell's repetition samples (at least one) -> aggregate record
    ``{n, confidence, mean, median, stdev, min, max, ci_low, ci_high}``.
    A single sample's interval collapses to the point (stdev 0)."""
    values = [float(v) for v in values]
    n = len(values)
    mean = sum(values) / n
    ordered = sorted(values)
    if n == 1:
        stdev = 0.0
        ci_low = ci_high = mean
    else:
        stdev = _sample_stdev(values, mean)
        half = _t_critical(n - 1) * stdev / math.sqrt(n)
        ci_low, ci_high = mean - half, mean + half
    return _record(n, mean, _median(ordered), stdev, ordered[0],
                   ordered[-1], ci_low, ci_high)


def _leaves(node, prefix: str, out: Dict) -> Dict:
    """``out`` plus every numeric leaf under ``node`` (a dict, list or
    tuple) by its path; bools are flags, not measurements."""
    for key, v in node.items() if isinstance(node, dict) \
            else enumerate(node):
        if isinstance(v, (int, float)):
            if v is not True and v is not False:
                # a top-level key is its own path: ``"" + key`` and
                # ``str(key)`` return ``key``, so no string is copied
                out[prefix + str(key)] = v
        elif isinstance(v, (dict, list, tuple)):
            _leaves(v, f"{prefix}{key}.", out)
    return out


def aggregate_cell(results: Sequence) -> Dict[str, Dict]:
    """One cell's successful results -> ``{path: _aggregate(samples)}``
    for every path all of them have, in sorted order; a result that is
    not a dict or a list has none."""
    walked = [_leaves(r, "", {}) if isinstance(r, (dict, list, tuple))
              else {} for r in results]
    records = {}
    if len(walked) == 1:
        # a lone repetition has nothing to sort or bound, so its records
        # are built straight from its leaves (a cached re-run's hot
        # loop); ``+ 0.0`` is what ``sum()`` does to a lone sample
        # (-0.0 -> 0.0)
        for name, v in sorted(walked[0].items()):
            v = float(v)
            mean = v + 0.0
            records[name] = _record(1, mean, v, 0.0, v, v, mean, mean)
        return records
    common = walked[0].keys() if walked else ()
    for leaves in walked[1:]:
        common &= leaves.keys()
    for name in sorted(common):
        records[name] = _aggregate([leaves[name] for leaves in walked])
    return records
