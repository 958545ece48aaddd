"""Behaviour goldens of the perf scenarios: exact and machine-independent.

Runs each scenario in ``scenarios.SCENARIOS`` once with a metrics
registry auto-attached, then exact-matches its behavioural counters
against ``results_golden.json`` and each simulator's metrics snapshot
against ``metrics_golden.json``.  The simulation is deterministic, so
any difference means a change altered what is simulated.  Timing is
``bench/run.py``'s job, not this module's.

After a deliberate behaviour change, rewrite both goldens with::

    PYTHONPATH=src python benchmarks/perf/test_goldens.py --update
"""

import json
import sys
from pathlib import Path

import pytest

import scenarios
from repro.sim import metrics

HERE = Path(__file__).resolve().parent
RESULTS_GOLDEN = HERE / "results_golden.json"
METRICS_GOLDEN = HERE / "metrics_golden.json"


def run_instrumented(name):
    """One run of ``name``: its result and one snapshot per simulator."""
    fn, duration = scenarios.SCENARIOS[name]
    metrics.auto_attach(True)
    try:
        result = fn(duration=duration)
    finally:
        attached = metrics.drain_attached()
        metrics.auto_attach(False)
    return result, [registry.snapshot() for registry, _bus in attached]


@pytest.fixture(scope="module")
def goldens():
    return (json.loads(RESULTS_GOLDEN.read_text()),
            json.loads(METRICS_GOLDEN.read_text()))


@pytest.mark.parametrize("name", list(scenarios.SCENARIOS))
def test_scenario_matches_goldens(name, goldens):
    result, snapshots = run_instrumented(name)
    gold_result, gold_snapshots = goldens[0][name], goldens[1][name]
    drift = [f"{key}: {gold_result.get(key)!r} -> {result.get(key)!r}"
             for key in sorted(gold_result.keys() | result.keys())
             if gold_result.get(key) != result.get(key)]
    if len(snapshots) != len(gold_snapshots):
        drift.append(f"simulators: {len(gold_snapshots)} -> {len(snapshots)}")
    drift += [f"sim[{i}] {line}"
              for i, (gold, snap) in enumerate(zip(gold_snapshots, snapshots))
              for line in metrics.diff_snapshots(gold, snap)]
    assert not drift, f"{name} drifted:\n" + "\n".join(drift)


def update_goldens() -> None:
    results, snapshots = {}, {}
    for name in scenarios.SCENARIOS:
        results[name], snapshots[name] = run_instrumented(name)
    RESULTS_GOLDEN.write_text(json.dumps(results, indent=2) + "\n")
    METRICS_GOLDEN.write_text(
        json.dumps(snapshots, indent=2, sort_keys=True) + "\n")
    print(f"wrote {RESULTS_GOLDEN} and {METRICS_GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {sys.argv[0]} --update  (pytest runs the check)")
    update_goldens()
