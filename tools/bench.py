#!/usr/bin/env python
"""Kernel performance harness.

Runs the canonical scenarios in ``benchmarks/perf/scenarios.py`` and
reports dispatch rate (simulator events per wall-clock second) plus the
behavioural metrics that must NOT move when the kernel gets faster.

Modes
-----
* default (full): N trials per scenario at full durations (median +
  spread, so speedup claims are not single-sample noise), written to
  ``BENCH_kernel.json`` at the repo root.
* ``--profile [DIR]``: additionally run each selected scenario under
  ``cProfile`` and write ``DIR/<scenario>.pstats`` (default
  ``bench_profiles/``) as a CI artifact; the directory is created if
  absent and with ``--trials N > 1`` each trial gets its own
  ``<scenario>_trialK.pstats`` instead of overwriting one file.
* ``--smoke``: short durations, compared against the checked-in
  ``benchmarks/perf/baseline.json``.  Exit codes distinguish the two
  failure classes: **1** if any scenario's events/sec regresses by more
  than ``--tolerance`` (default 30%) — a perf regression; **2** if the
  only failures are behavioural (events processed, frames delivered,
  goodput deviating from the baseline at all) — the machine-independent
  determinism guard, reported with a one-line diff summary so CI logs
  show at a glance *what* drifted.
* ``--update-baseline``: refresh ``baseline.json`` from a smoke run
  (do this once per machine, and whenever a PR intentionally changes
  simulated behaviour).
* ``--metrics-gate``: run every scenario once at smoke durations with
  the observability registry attached (see ``docs/observability.md``)
  and diff the per-scenario metrics snapshots against the checked-in
  ``benchmarks/perf/metrics_golden.json``.  Snapshots are deterministic
  (sim-time-derived values only), so any diff is behavioural drift:
  exit 2.  ``--metrics-out PATH`` additionally writes the snapshots.
* ``--update-metrics-golden``: refresh ``metrics_golden.json`` (do this
  whenever a PR intentionally changes simulated behaviour or adds
  instrumentation).

Usage::

    PYTHONPATH=src python tools/bench.py                 # full, writes BENCH_kernel.json
    PYTHONPATH=src python tools/bench.py --smoke         # CI perf + determinism gate
    PYTHONPATH=src python tools/bench.py --metrics-gate  # CI metrics drift gate
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "perf" / "baseline.json"
METRICS_GOLDEN_PATH = REPO_ROOT / "benchmarks" / "perf" / "metrics_golden.json"
OUTPUT_PATH = REPO_ROOT / "BENCH_kernel.json"

#: exit codes: perf regression vs behavioural-only drift (determinism
#: guard / metrics gate) — CI treats them differently
EXIT_PERF = 1
EXIT_BEHAVIOURAL = 2

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "perf"))

import scenarios  # noqa: E402  (needs the sys.path setup above)


#: behavioural keys exact-matched across trials and against the baseline
BEHAVIOURAL_KEYS = ("events", "frames_delivered", "goodput_kbps",
                    "fault_events", "fairness", "flows_connected")


def run_scenario(name: str, smoke: bool, trials: int) -> dict:
    """``trials`` runs of one scenario: median wall time + spread.

    Smoke mode keys ``events_per_sec`` off the *fastest* trial (robust
    to background machine load — noise only ever slows a trial down);
    full mode keys it off the median and records the min/max spread so
    BENCH_kernel.json speedup claims are not single-sample noise.  The
    behavioural metrics are asserted identical across trials — the
    simulation is deterministic, so any difference is a harness bug.
    """
    fn, smoke_duration, full_duration = scenarios.SCENARIOS[name]
    duration = smoke_duration if smoke else full_duration
    walls = []
    result = None
    for _ in range(trials):
        r = fn(duration=duration)
        if result is not None:
            for key in BEHAVIOURAL_KEYS:
                if r.get(key) != result.get(key):
                    raise AssertionError(
                        f"{name}: non-deterministic {key}: "
                        f"{r.get(key)} != {result.get(key)}"
                    )
        walls.append(r["wall_s"])
        result = r
    walls.sort()
    n = len(walls)
    median = walls[n // 2] if n % 2 else 0.5 * (walls[n // 2 - 1] + walls[n // 2])
    result["wall_s"] = round(walls[0] if smoke else median, 4)
    result["wall_s_median"] = round(median, 4)
    result["wall_s_min"] = round(walls[0], 4)
    result["wall_s_max"] = round(walls[-1], 4)
    result["trials"] = n
    result["events_per_sec"] = round(result["events"] / result["wall_s"])
    return result


def run_all(smoke: bool, trials: int, only=None) -> dict:
    if only:
        unknown = sorted(set(only) - set(scenarios.SCENARIOS))
        if unknown:
            raise SystemExit(
                f"unknown scenario(s): {unknown}; "
                f"choose from {list(scenarios.SCENARIOS)}"
            )
    results = {}
    for name in scenarios.SCENARIOS:
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        results[name] = run_scenario(name, smoke, trials)
        r = results[name]
        print(f"[{name}] {r['events_per_sec']:>8} events/sec  "
              f"(events={r['events']}, wall={r['wall_s']:.3f}s "
              f"[{r['wall_s_min']:.3f}..{r['wall_s_max']:.3f} over "
              f"{r['trials']} trials], "
              f"measured in {time.perf_counter() - t0:.1f}s)")
    return results


def profile_scenarios(out_dir: str, smoke: bool, only=None,
                      trials: int = 1) -> None:
    """cProfile runs per scenario, dumped as pstats (CI artifact).

    With ``trials > 1`` every trial is profiled into its own
    ``<scenario>_trialK.pstats`` — one file per trial, never
    overwritten, so trial-to-trial variance stays inspectable.
    """
    import cProfile

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in scenarios.SCENARIOS:
        if only and name not in only:
            continue
        fn, smoke_duration, full_duration = scenarios.SCENARIOS[name]
        duration = smoke_duration if smoke else full_duration
        for trial in range(max(1, trials)):
            prof = cProfile.Profile()
            prof.enable()
            fn(duration=duration)
            prof.disable()
            tag = f"_trial{trial + 1}" if trials > 1 else ""
            path = out / f"{name}{tag}.pstats"
            prof.dump_stats(str(path))
            print(f"[{name}] wrote profile {path}")


def compare_to_baseline(results: dict, baseline: dict,
                        tolerance: float) -> tuple:
    """Returns ``(behavioural, perf)`` failure-string lists.

    ``behavioural`` holds determinism-guard deviations (exact-match
    metrics that moved — machine-independent); ``perf`` holds speed
    regressions and harness problems.  Both empty = pass.
    """
    behavioural = []
    perf = []
    for name, current in results.items():
        base = baseline.get("results", {}).get(name)
        if base is None:
            perf.append(f"{name}: not in baseline "
                        f"(run --update-baseline)")
            continue
        # Determinism guard: behaviour must match the baseline exactly,
        # on any machine.
        for key in BEHAVIOURAL_KEYS:
            if current.get(key) != base.get(key):
                behavioural.append(
                    f"{name}.{key} {base.get(key)} -> {current.get(key)}"
                )
        # Speed gate: machine-relative, so the threshold is generous.
        floor = base["events_per_sec"] * (1.0 - tolerance)
        if current["events_per_sec"] < floor:
            perf.append(
                f"{name}: events/sec regressed >{tolerance:.0%}: "
                f"baseline {base['events_per_sec']} -> "
                f"{current['events_per_sec']} (floor {floor:.0f})"
            )
    return behavioural, perf


def run_metrics_snapshots(only=None) -> dict:
    """One instrumented smoke-duration run per scenario.

    Separate from the timing runs: instrumentation costs a little, so
    the metrics gate never shares a process-measurement with the perf
    gate.  Returns ``{scenario: [snapshot, ...]}`` — one snapshot per
    simulator the scenario built, in construction order.
    """
    from repro.sim import metrics as metrics_mod

    snapshots = {}
    for name in scenarios.SCENARIOS:
        if only and name not in only:
            continue
        fn, smoke_duration, _ = scenarios.SCENARIOS[name]
        metrics_mod.auto_attach(True)
        try:
            fn(duration=smoke_duration)
        finally:
            attached = metrics_mod.drain_attached()
            metrics_mod.auto_attach(False)
        snapshots[name] = [reg.snapshot() for reg, _bus in attached]
        print(f"[{name}] metrics snapshot: "
              f"{sum(len(s['counters']) + len(s['gauges']) + len(s['histograms']) for s in snapshots[name])} series")
    return snapshots


def compare_metrics_to_golden(snapshots: dict, golden: dict) -> list:
    """Diff per-scenario snapshots against the golden file."""
    from repro.sim.metrics import diff_snapshots

    diffs = []
    for name, snaps in snapshots.items():
        gold = golden.get(name)
        if gold is None:
            diffs.append(f"{name}: not in metrics golden "
                         f"(run --update-metrics-golden)")
            continue
        if len(gold) != len(snaps):
            diffs.append(f"{name}: simulator count changed "
                         f"{len(gold)} -> {len(snaps)}")
            continue
        for i, (gold_snap, snap) in enumerate(zip(gold, snaps)):
            for line in diff_snapshots(gold_snap, snap):
                diffs.append(f"{name}[{i}]: {line}")
    return diffs


def check_verify_overhead(trials: int = 5, budget: float = 0.01) -> int:
    """Gate: disabled self-verification must cost <``budget`` wall time.

    With no :class:`repro.verify.InvariantEngine` attached (the default
    for every benchmark and experiment), the only always-on cost the
    robustness layer adds is the armed-timer registry bookkeeping in
    ``repro.sim.timers``.  This runs dense_mesh at smoke duration
    ``trials`` times each with the registry off (the pre-feature
    kernel) and on (the shipped default), interleaved so machine-load
    drift hits both arms equally, and compares best-of CPU times
    (``time.process_time`` — wall clock is far too noisy for a 1%
    budget on a shared machine).
    """
    from repro.sim import timers as timers_mod

    fn, smoke_dur, _full = scenarios.SCENARIOS["dense_mesh"]
    best = {False: float("inf"), True: float("inf")}
    try:
        for trial in range(trials):
            for enabled in (False, True):
                timers_mod.registry_enabled(enabled)
                t0 = time.process_time()
                fn(duration=smoke_dur)
                cpu = time.process_time() - t0
                best[enabled] = min(best[enabled], cpu)
                print(f"  trial {trial + 1}/{trials} "
                      f"registry={'on' if enabled else 'off'}: "
                      f"{cpu:.3f}s cpu")
    finally:
        timers_mod.registry_enabled(True)  # the shipped default
    overhead = (best[True] - best[False]) / best[False]
    print(f"verify-overhead: registry off {best[False]:.3f}s, "
          f"on {best[True]:.3f}s -> {overhead:+.2%} (budget "
          f"{budget:.0%})")
    if overhead >= budget:
        print(f"FAIL verify-overhead {overhead:+.2%} >= {budget:.0%}",
              file=sys.stderr)
        return EXIT_PERF
    print("verify-overhead OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="short run, compare against baseline.json")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite benchmarks/perf/baseline.json "
                             "from a smoke run")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per scenario (default: 3 full, "
                             "1 smoke)")
    parser.add_argument("--profile", nargs="?", const="bench_profiles",
                        default=None, metavar="DIR",
                        help="also run each scenario once under "
                             "cProfile and write DIR/<scenario>.pstats "
                             "(default DIR: bench_profiles/)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed events/sec regression in smoke "
                             "mode (fraction, default 0.30)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of scenario names")
    parser.add_argument("-o", "--output", default=str(OUTPUT_PATH),
                        help="full-mode output path")
    parser.add_argument("--metrics-gate", action="store_true",
                        help="diff instrumented-run metrics snapshots "
                             "against benchmarks/perf/metrics_golden.json "
                             "(exit 2 on drift)")
    parser.add_argument("--update-metrics-golden", action="store_true",
                        help="rewrite benchmarks/perf/metrics_golden.json")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write metrics snapshots from the gate run "
                             "to PATH (CI artifact)")
    parser.add_argument("--verify-overhead", action="store_true",
                        help="assert that the disabled self-verification "
                             "machinery (armed-timer registry; no "
                             "invariant engine attached) costs <1%% "
                             "wall time on dense_mesh (exit 1 on "
                             "regression)")
    args = parser.parse_args(argv)

    if args.verify_overhead:
        return check_verify_overhead(
            trials=args.trials if args.trials is not None else 5)

    if args.metrics_gate or args.update_metrics_golden:
        snapshots = run_metrics_snapshots(only=args.only)
        if args.metrics_out:
            Path(args.metrics_out).write_text(
                json.dumps(snapshots, indent=2, sort_keys=True) + "\n")
            print(f"wrote {args.metrics_out}")
        if args.update_metrics_golden:
            METRICS_GOLDEN_PATH.write_text(
                json.dumps(snapshots, indent=2, sort_keys=True) + "\n")
            print(f"wrote {METRICS_GOLDEN_PATH}")
            return 0
        if not METRICS_GOLDEN_PATH.exists():
            print(f"no metrics golden at {METRICS_GOLDEN_PATH}; "
                  f"run tools/bench.py --update-metrics-golden",
                  file=sys.stderr)
            return EXIT_PERF
        golden = json.loads(METRICS_GOLDEN_PATH.read_text())
        diffs = compare_metrics_to_golden(snapshots, golden)
        for diff in diffs:
            print(f"DRIFT {diff}", file=sys.stderr)
        if diffs:
            print(f"metrics drift: {len(diffs)} series changed "
                  f"(behavioural, not perf)", file=sys.stderr)
            return EXIT_BEHAVIOURAL
        print(f"metrics gate OK: {len(snapshots)} scenarios match golden")
        return 0

    smoke = args.smoke or args.update_baseline
    trials = args.trials if args.trials is not None else (1 if smoke else 3)
    results = run_all(smoke=smoke, trials=trials, only=args.only)
    document = {
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "results": results,
    }

    if args.profile is not None:
        profile_scenarios(args.profile, smoke=smoke, only=args.only,
                          trials=trials)

    if args.update_baseline:
        BASELINE_PATH.write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH}")
        return 0

    if args.smoke:
        if not BASELINE_PATH.exists():
            # A missing baseline means the perf AND determinism gates
            # cannot run at all — that must never look like a pass.
            print(f"FAIL perf smoke: no baseline at {BASELINE_PATH} — "
                  f"the regression gate has nothing to compare against. "
                  f"Generate it with tools/bench.py --update-baseline "
                  f"and commit it.", file=sys.stderr)
            return EXIT_PERF
        baseline = json.loads(BASELINE_PATH.read_text())
        behavioural, perf = compare_to_baseline(
            results, baseline, args.tolerance)
        for failure in perf:
            print(f"FAIL {failure}", file=sys.stderr)
        if behavioural:
            # one line, so CI logs show at a glance what drifted
            print(f"BEHAVIOURAL DRIFT: {'; '.join(behavioural)}",
                  file=sys.stderr)
        if perf:
            return EXIT_PERF
        if behavioural:
            return EXIT_BEHAVIOURAL
        print(f"smoke OK: {len(results)} scenarios within "
              f"{args.tolerance:.0%} of baseline")
        return 0

    Path(args.output).write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
