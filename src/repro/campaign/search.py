"""Campaign search mode: optimise one axis against a scalar metric.

A campaign's ``objective`` block turns the campaign into a search::

    {
      "metric": "energy_per_byte",   # result field to optimise
      "mode": "min",                 # or "max"
      "axis": "frames",              # factory parameter to vary
      "bounds": [1, 16],             # inclusive search interval
      "integer": true,               # snap the axis to the int lattice
      "method": "golden",            # or "grid"
      "steps": 32,                   # grid points / golden eval budget
      "tolerance": 0.001,            # golden bracket width stop
      "fixed": {"loss": 0.09}        # pinned co-parameters
    }

``golden`` is a golden-section line search (the objective must be
unimodal over the bounds, which the paper's segment-size-vs-energy
trade-off — TX cost rising with segment count, listen cost falling —
satisfies); ``grid`` just sweeps ``steps`` evenly spaced points.  On
an integer axis golden-section probes round to the lattice and the
final bracket is finished exhaustively, so the optimum is *exact*,
not approximate.

Every probe is an ordinary campaign run — same seeds, faults and
content-addressed caching as the grid — so repeating a search (or
widening its bounds) re-executes only unseen points.  The
search *outcome* is deterministic; volatile facts (hits/executed)
are reported separately for the execution sidecar.

This reproduces the Ayadi-style segment-size optimisation on the
Eq. 2 energy objective: see ``ayadi_energy`` in the experiment
catalog and :func:`repro.models.throughput.segment_energy_model`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

from repro.campaign.spec import MAX_RUNS, RunSpec
from repro.campaign.store import code_salt
from repro.checks import check_block, is_int, is_number, is_positive_number

_OBJECTIVE_DEFAULTS = {
    "metric": None,       # required
    "mode": "min",
    "axis": None,         # required
    "bounds": None,       # required [lo, hi]
    "integer": False,
    "method": "golden",   # "golden" | "grid"
    "steps": 32,
    "tolerance": 1e-3,
    "fixed": {},
}

#: inverse golden ratio: the section kept at each bracket shrink
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _fail(path: str, message: str):
    raise ValueError(f"campaign spec: objective.{path}: {message}")


def validate_objective(obj) -> Dict:
    """Validate and normalize an ``objective`` block (see module doc)."""
    out = check_block(obj, _OBJECTIVE_DEFAULTS, "campaign spec: objective")
    for key in ("metric", "axis"):
        if not isinstance(out[key], str) or not out[key]:
            _fail(key, f"must be a non-empty string, got {out[key]!r}")
    if out["mode"] not in ("min", "max"):
        _fail("mode", f"must be 'min' or 'max', got {out['mode']!r}")
    bounds = out["bounds"]
    if not (isinstance(bounds, list) and len(bounds) == 2
            and all(map(is_number, bounds))):
        _fail("bounds", f"must be [lo, hi] finite numbers, got {bounds!r}")
    if not bounds[0] < bounds[1]:
        _fail("bounds", f"needs lo < hi, got {bounds!r}")
    if not isinstance(out["integer"], bool):
        _fail("integer", f"must be a boolean, got {out['integer']!r}")
    if out["integer"]:
        out["bounds"] = [int(math.ceil(bounds[0])),
                         int(math.floor(bounds[1]))]
        if not out["bounds"][0] < out["bounds"][1]:
            _fail("bounds", f"no integer interval inside {bounds!r}")
    if out["method"] not in ("golden", "grid"):
        _fail("method", f"must be 'golden' or 'grid', "
                        f"got {out['method']!r}")
    if not is_int(out["steps"], 2) or out["steps"] > MAX_RUNS:
        _fail("steps", f"must be an integer in 2..{MAX_RUNS}, "
                       f"got {out['steps']!r}")
    if not is_positive_number(out["tolerance"]):
        _fail("tolerance", f"must be a positive number, "
                           f"got {out['tolerance']!r}")
    fixed = out["fixed"]
    if not isinstance(fixed, dict) or not all(
            isinstance(k, str) for k in fixed):
        _fail("fixed", f"must be an object with string keys, "
                       f"got {fixed!r}")
    for k, v in fixed.items():
        if v is not None and not isinstance(v, (bool, int, float, str)):
            _fail(f"fixed.{k}", f"must be a JSON scalar, got {v!r}")
    out["fixed"] = dict(fixed)
    return out


# ----------------------------------------------------------------------
# line-search kernels (pure: take f, return (best_x, evaluations used))
# ----------------------------------------------------------------------


def golden_section(f: Callable[[float], float], lo: float, hi: float,
                   tolerance: float = 1e-3, integer: bool = False,
                   max_evals: int = 32) -> float:
    """Minimise unimodal ``f`` on ``[lo, hi]``; returns the argmin.

    With ``integer=True`` probes snap to the lattice (``f`` is
    memoised, so re-probing a rounded point is free) and once the
    bracket is a handful of integers wide the remainder is scanned
    exhaustively — the returned argmin is exact for unimodal ``f``.
    """
    memo: Dict[float, float] = {}

    def probe(x: float) -> Tuple[float, float]:
        x = float(round(x)) if integer else x
        if x not in memo:
            memo[x] = f(x)
        return x, memo[x]

    a, b = float(lo), float(hi)
    evals = 0
    while (b - a) > tolerance and evals < max_evals:
        if integer and (b - a) <= 4:
            break  # finish the last few lattice points exhaustively
        c, fc = probe(b - _PHI * (b - a))
        d, fd = probe(a + _PHI * (b - a))
        evals = len(memo)
        if integer and c == d:
            break  # bracket collapsed onto one lattice point
        if fc <= fd:
            b = d
        else:
            a = c
    if integer:
        for x in range(int(math.ceil(a)), int(math.floor(b)) + 1):
            probe(x)
    else:
        probe((a + b) / 2.0)
    return min(memo, key=lambda x: (memo[x], x))


def grid_search(f: Callable[[float], float], lo: float, hi: float,
                steps: int = 32, integer: bool = False) -> float:
    """Minimise ``f`` over ``steps`` evenly spaced points (deduplicated
    after lattice snapping); returns the best probe."""
    memo: Dict[float, float] = {}
    for i in range(steps):
        x = lo + (hi - lo) * i / (steps - 1)
        x = float(round(x)) if integer else x
        if x not in memo:
            memo[x] = f(x)
    return min(memo, key=lambda x: (memo[x], x))


# ----------------------------------------------------------------------
# campaign driver
# ----------------------------------------------------------------------


def run_search(spec, catalog, store=None,
               progress=print) -> Tuple[Dict, Dict]:
    """Run ``spec.objective`` over ``spec``'s single experiment.

    Returns ``(section, execution)``: the deterministic search record
    for ``report.search`` (objective echo, probes in axis order, the
    optimum) and the volatile counters (cache hits, executed runs)
    for the execution sidecar.
    """
    from repro.campaign.engine import ExecOptions, resolve_runs

    obj = spec.objective
    if obj is None:
        raise ValueError("run_search: spec has no objective block")
    if len(spec.experiments) != 1:
        raise ValueError(
            f"campaign spec: objective: search needs exactly one "
            f"experiment, got {spec.experiments!r}")
    experiment = spec.experiments[0]
    accepted, var_kw = catalog.accepted_params(experiment)
    for name in [obj["axis"]] + sorted(obj["fixed"]):
        if not var_kw and name not in accepted:
            raise ValueError(
                f"campaign spec: objective: experiment {experiment!r} "
                f"does not accept parameter {name!r}; it accepts "
                f"{sorted(accepted)}")
    takes_seed = var_kw or "seed" in accepted
    seeds = spec.seeds if takes_seed else [None]
    salt = store.salt if store is not None else code_salt()
    sign = 1.0 if obj["mode"] == "min" else -1.0
    options = ExecOptions(jobs=1, fault_spec=spec.faults,
                          verify=spec.runner["verify"])
    counters = {"cache_hits": 0, "executed": 0}
    probes: Dict[float, Dict] = {}

    def evaluate(x: float) -> float:
        value = int(x) if obj["integer"] else x
        params = dict(obj["fixed"])
        params[obj["axis"]] = value
        runs = [RunSpec.build(experiment=experiment, params=params,
                              seed=s, quick=spec.quick,
                              faults=spec.faults)
                for s in seeds]
        run_ids = [run.run_id(salt) for run in runs]
        records, hits, misses, _errors, _interrupted = resolve_runs(
            runs, run_ids, options, catalog, store, salt,
            progress=progress)
        counters["cache_hits"] += hits
        counters["executed"] += misses
        samples = []
        for run_id in run_ids:
            record = records.get(run_id)
            if record is None or not record["ok"]:
                continue
            result = record["result"]
            v = result.get(obj["metric"]) if isinstance(result, dict) \
                else None
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                samples.append(float(v))
        if not samples:
            raise ValueError(
                f"objective: no usable {obj['metric']!r} sample at "
                f"{obj['axis']}={value!r} (run failed or metric "
                f"missing/non-numeric)")
        mean = sum(samples) / len(samples)
        probes[float(value)] = {
            "value": value,
            "objective": mean,
            "samples": samples,
        }
        return sign * mean

    lo, hi = obj["bounds"]
    if obj["method"] == "grid":
        best_x = grid_search(evaluate, lo, hi, steps=obj["steps"],
                             integer=obj["integer"])
    else:
        best_x = golden_section(evaluate, lo, hi,
                                tolerance=obj["tolerance"],
                                integer=obj["integer"],
                                max_evals=obj["steps"])
    best = probes[float(best_x)]
    progress(f"[search] optimum {obj['axis']}={best['value']!r} "
             f"-> {obj['metric']}={best['objective']:.6g} "
             f"({len(probes)} probes)")
    section = {
        "objective": dict(obj),
        "experiment": experiment,
        "probes": [probes[x] for x in sorted(probes)],
        "best": dict(best),
        "evaluations": len(probes),
    }
    return section, dict(counters)
