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
from typing import Dict, List, Optional, Sequence

#: two-sided Student-t critical values, t_{(1+c)/2, df}.  Rows: df.
#: Columns: confidence level.  Standard table values; df beyond the
#: table interpolate on 1/df down to the normal limit.
_T_CONFIDENCES = (0.80, 0.90, 0.95, 0.98, 0.99)
_T_TABLE: Dict[int, Sequence[float]] = {
    1: (3.078, 6.314, 12.706, 31.821, 63.657),
    2: (1.886, 2.920, 4.303, 6.965, 9.925),
    3: (1.638, 2.353, 3.182, 4.541, 5.841),
    4: (1.533, 2.132, 2.776, 3.747, 4.604),
    5: (1.476, 2.015, 2.571, 3.365, 4.032),
    6: (1.440, 1.943, 2.447, 3.143, 3.707),
    7: (1.415, 1.895, 2.365, 2.998, 3.499),
    8: (1.397, 1.860, 2.306, 2.896, 3.355),
    9: (1.383, 1.833, 2.262, 2.821, 3.250),
    10: (1.372, 1.812, 2.228, 2.764, 3.169),
    12: (1.356, 1.782, 2.179, 2.681, 3.055),
    15: (1.341, 1.753, 2.131, 2.602, 2.947),
    20: (1.325, 1.725, 2.086, 2.528, 2.845),
    30: (1.310, 1.697, 2.042, 2.457, 2.750),
    60: (1.296, 1.671, 2.000, 2.390, 2.660),
    120: (1.289, 1.658, 1.980, 2.358, 2.617),
}
#: df -> infinity: the normal quantiles
_Z_LIMIT = (1.282, 1.645, 1.960, 2.326, 2.576)


def _t_critical(df: int, confidence: float) -> float:
    """Two-sided Student-t critical value for ``df`` degrees of freedom
    at one of the table's confidence levels."""
    if df < 1:
        raise ValueError("t-based intervals need df >= 1")
    try:
        col = _T_CONFIDENCES.index(round(confidence, 2))
    except ValueError:
        raise ValueError(
            f"t-based intervals support confidence levels "
            f"{_T_CONFIDENCES}, not {confidence}") from None
    if df in _T_TABLE:
        return _T_TABLE[df][col]
    rows = sorted(_T_TABLE)
    if df > rows[-1]:
        # interpolate on 1/df between the last table row and df=inf
        lo = rows[-1]
        frac = (1.0 / lo - 1.0 / df) / (1.0 / lo)
        return _T_TABLE[lo][col] + frac * (_Z_LIMIT[col]
                                           - _T_TABLE[lo][col])
    hi = min(r for r in rows if r > df)
    lo = max(r for r in rows if r < df)
    frac = (1.0 / lo - 1.0 / df) / (1.0 / lo - 1.0 / hi)
    return _T_TABLE[lo][col] + frac * (_T_TABLE[hi][col]
                                       - _T_TABLE[lo][col])


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


def _record(n, confidence, mean, median, stdev, low, high, ci_low,
            ci_high) -> Dict:
    """One aggregate record; the attributes are set one by one, which
    costs less than passing them through an ``__init__``."""
    record = _Record()
    record.n = n
    record.confidence = confidence
    record.mean = mean
    record.median = median
    record.stdev = stdev
    record.min = low
    record.max = high
    record.ci_low = ci_low
    record.ci_high = ci_high
    return record.__dict__


def _aggregate(values: Sequence[float], confidence: float = 0.95) -> Dict:
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
        half = _t_critical(n - 1, confidence) * stdev / math.sqrt(n)
        ci_low, ci_high = mean - half, mean + half
    return _record(n, confidence, mean, _median(ordered), stdev,
                   ordered[0], ordered[-1], ci_low, ci_high)


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


def aggregate_cell(results: Sequence, metrics: Optional[Sequence] = None,
                   confidence: float = 0.95) -> Dict[str, Dict]:
    """One cell's successful results -> ``{path: _aggregate(samples)}``.

    A path's samples are its numeric leaves across the results (none:
    left out).  ``metrics=None`` aggregates the paths every result
    has, in sorted order; a result that is not a dict or a list has
    none."""
    walked = [_leaves(r, "", {}) if isinstance(r, (dict, list, tuple))
              else {} for r in results]
    records = {}
    if len(walked) == 1:
        # a lone repetition has nothing to sort or bound, so its records
        # are built straight from its leaves (a cached re-run's hot
        # loop); ``+ 0.0`` is what ``sum()`` does to a lone sample
        # (-0.0 -> 0.0)
        leaves = walked[0]
        for name, v in sorted(leaves.items()) if metrics is None else [
                (name, leaves[name]) for name in metrics if name in leaves]:
            v = float(v)
            mean = v + 0.0
            records[name] = _record(1, confidence, mean, v, 0.0, v, v,
                                    mean, mean)
        return records
    if metrics is None:
        common = walked[0].keys() if walked else ()
        for leaves in walked[1:]:
            common &= leaves.keys()
        metrics = sorted(common)
    for name in metrics:
        samples = [leaves[name] for leaves in walked if name in leaves]
        if samples:
            records[name] = _aggregate(samples, confidence)
    return records
