"""Repetition statistics: per-cell aggregation with confidence bounds.

A campaign cell is repeated across seeds; this module turns the
per-repetition scalar samples into an aggregate record: mean, median,
spread, and a confidence interval — Student-t based by default
(small-sample correct under approximate normality, the classic
batched-campaign treatment), or a deterministic percentile bootstrap
for metrics with no distributional assumption.

Policies applied before aggregation, in order:

* **warm-up** — drop the first ``warmup`` repetitions (e.g. when the
  first seed doubles as a cache/JIT warm-up run);
* **outliers** — drop samples outside the Tukey fence
  ``[q1 - k*iqr, q3 + k*iqr]`` when ``outlier_iqr=k`` is set.

Both discards are recorded in the aggregate so a report always says
how many samples actually contributed.

Everything here is pure and deterministic: the bootstrap uses a
caller-salted ``random.Random``, so the same samples give the same
interval in every process — a requirement for the byte-identical
cached-report contract (docs/campaigns.md).
"""

from __future__ import annotations

import math
import random
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
    """Two-sided Student-t critical value for ``df`` degrees of freedom.

    Supported confidence levels: 0.80, 0.90, 0.95, 0.98, 0.99 (other
    levels should use the bootstrap method, which takes any level).
    """
    if df < 1:
        raise ValueError("t-based intervals need df >= 1")
    try:
        col = _T_CONFIDENCES.index(round(confidence, 2))
    except ValueError:
        raise ValueError(
            f"t-based intervals support confidence levels "
            f"{_T_CONFIDENCES}; use method='bootstrap' for "
            f"{confidence}") from None
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


def _quartiles(ordered: List[float]):
    """(q1, q3) by linear interpolation (the 'inclusive' method)."""
    n = len(ordered)

    def at(q: float) -> float:
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, n - 1)
        return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])

    return at(0.25), at(0.75)


def _median(ordered: List[float]) -> float:
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1]
                                             + ordered[mid])


def _sample_stdev(kept: List[float], mean: float) -> float:
    """Sample standard deviation; ``inf`` when it is out of range."""
    try:
        return math.sqrt(sum((v - mean) ** 2 for v in kept)
                         / (len(kept) - 1))
    except OverflowError:
        # float ** raises where ``*`` would give inf, and one huge
        # metric must not kill a whole report: hypot scales by the
        # largest magnitude instead of squaring it.  Only this branch
        # uses it, so every in-range report keeps its bytes.
        return (math.hypot(*(v - mean for v in kept))
                / math.sqrt(len(kept) - 1))


class _Record:
    """Builds every aggregate record, as its instance ``__dict__``.

    The records of a report then share one key table (CPython's
    key-sharing instance dicts): each is a plain ``dict`` of about 170 B
    instead of a 464-B dict literal that holds its own keys.
    """

    def __init__(self, *fields):
        (self.n, self.confidence, self.method, self.discarded_warmup,
         self.discarded_outliers, self.mean, self.median, self.stdev,
         self.min, self.max, self.ci_low, self.ci_high) = fields


def bootstrap_ci(values: Sequence[float], confidence: float,
                 samples: int = 1000, rng_seed: int = 0):
    """Percentile-bootstrap CI on the mean; deterministic in
    ``rng_seed`` (which callers salt with the cell identity)."""
    rng = random.Random(rng_seed)
    n = len(values)
    means = sorted(
        sum(values[rng.randrange(n)] for _ in range(n)) / n
        for _ in range(samples)
    )
    alpha = (1.0 - confidence) / 2.0
    lo_idx = max(0, min(samples - 1, int(math.floor(alpha * samples))))
    hi_idx = max(0, min(samples - 1,
                        int(math.ceil((1.0 - alpha) * samples)) - 1))
    return means[lo_idx], means[hi_idx]


def aggregate(
    values: Sequence[float],
    confidence: float = 0.95,
    method: str = "t",
    warmup: int = 0,
    outlier_iqr: Optional[float] = None,
    bootstrap_samples: int = 1000,
    rng_seed: int = 0,
) -> Dict:
    """One cell's repetition samples -> aggregate record.

    Returns ``{n, mean, median, stdev, min, max, ci_low, ci_high,
    confidence, method, discarded_warmup, discarded_outliers}``.
    With a single surviving sample the CI collapses to the point
    (stdev 0); with none (everything discarded) all statistics are
    ``None`` and ``n`` is 0.
    """
    raw = [float(v) for v in values]
    kept = raw[warmup:]
    discarded_warmup = len(raw) - len(kept)
    discarded_outliers = 0
    if outlier_iqr is not None and len(kept) >= 4:
        ordered = sorted(kept)
        q1, q3 = _quartiles(ordered)
        iqr = q3 - q1
        lo, hi = q1 - outlier_iqr * iqr, q3 + outlier_iqr * iqr
        survivors = [v for v in kept if lo <= v <= hi]
        discarded_outliers = len(kept) - len(survivors)
        kept = survivors
    if not kept:
        return _Record(0, confidence, method, discarded_warmup,
                       discarded_outliers, None, None, None, None, None,
                       None, None).__dict__
    n = len(kept)
    mean = sum(kept) / n
    ordered = sorted(kept)
    if n == 1:
        stdev = 0.0
        ci_low = ci_high = mean
    else:
        stdev = _sample_stdev(kept, mean)
        if method == "t":
            half = _t_critical(n - 1, confidence) * stdev / math.sqrt(n)
            ci_low, ci_high = mean - half, mean + half
        elif method == "bootstrap":
            ci_low, ci_high = bootstrap_ci(
                kept, confidence, samples=bootstrap_samples,
                rng_seed=rng_seed)
        else:
            raise ValueError(f"unknown CI method {method!r}")
    return _Record(n, confidence, method, discarded_warmup,
                   discarded_outliers, mean, _median(ordered), stdev,
                   ordered[0], ordered[-1], ci_low, ci_high).__dict__


def _auto_metrics(results: Sequence) -> List[str]:
    """Result fields worth aggregating: numeric scalars present in
    every repetition's result dict (bools excluded — they are flags,
    not measurements).  Non-dict results have no auto metrics."""
    if not results or not all(isinstance(r, dict) for r in results):
        return []
    common = None
    for r in results:
        numeric = {
            k for k, v in r.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        common = numeric if common is None else (common & numeric)
    return sorted(common or ())


def aggregate_cell(results: Sequence, metrics: Optional[Sequence] = None,
                   confidence: float = 0.95, method: str = "t",
                   warmup: int = 0, outlier_iqr: Optional[float] = None,
                   bootstrap_samples: int = 1000,
                   rng_seed: int = 0) -> Dict[str, Dict]:
    """One cell's successful results -> ``{metric: aggregate(samples)}``,
    a metric's samples being its numeric values across the dict results
    (none: left out); ``metrics=None`` aggregates :func:`_auto_metrics`."""
    records = {}
    if len(results) == 1 and isinstance(results[0], dict) and not warmup:
        # a lone repetition has nothing to discard, sort or bound, so its
        # records are built here (a cached re-run's hot loop); ``+ 0.0``
        # is what ``sum()`` does to a lone sample (-0.0 -> 0.0)
        items = results[0].items() if metrics is None \
            else [(k, results[0].get(k)) for k in metrics]
        samples = [(k, float(v)) for k, v in items
                   if isinstance(v, (int, float))
                   and v is not True and v is not False]
        if metrics is None:
            samples.sort()  # _auto_metrics' order
        for name, v in samples:
            mean = v + 0.0
            records[name] = _Record(1, confidence, method, 0, 0, mean, v,
                                    0.0, v, v, mean, mean).__dict__
        return records
    dicts = [r for r in results if isinstance(r, dict)]
    for name in _auto_metrics(results) if metrics is None else metrics:
        samples = [v for v in (r.get(name) for r in dicts)
                   if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if samples:
            records[name] = aggregate(samples, confidence, method, warmup,
                                      outlier_iqr, bootstrap_samples, rng_seed)
    return records
