#!/usr/bin/env python3
"""The repo benchmark: five workloads, end-to-end metrics, a layer table.

One command runs it::

    python3 bench/run.py                      # every workload, both modes
    python3 bench/run.py --quick              # the same at 1/10 size
    python3 bench/run.py --workload chain_hidden --seed 7 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced trials;
``--trace 1`` runs one untraced and one traced trial and reports the
per-layer metrics, with the difference between the two as tracing
overhead; without ``--trace`` both happen.  Every metric is printed by
name with its unit, and the last line of standard output is the result
object ``BENCHMARK.json`` describes.

Each trial is a fresh ``trial.py`` process (``PYTHONHASHSEED=0``,
default GC): a trial sets up, then does a fixed amount of simulated
work in timed slices.  Trials repeat until ``--seconds`` of timed work
have been measured (at least two).  See README.md for what each
number means and how it is computed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from trial import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

MIN_TRIALS = 2
MAX_TRIALS = 12
#: a trial that takes longer than this is a hang, not a slow host
TRIAL_TIMEOUT_S = 150

def loadavg() -> Optional[List[float]]:
    try:
        return [float(x) for x in
                Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError):
        return None


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class TrialFailed(Exception):
    """A trial process died or printed no result."""


def run_trial(workload: str, seed: int, quick: bool, extras: bool = False,
              trace_out: Optional[Path] = None) -> Dict:
    """One fresh ``trial.py`` process; returns the document it printed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(BENCH / "trial.py"), workload,
               "--seed", str(seed), "--spawned-at", repr(monotonic())]
    if quick:
        command.append("--quick")
    if extras:
        command.append("--extras")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, text=True,
                              capture_output=True, timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise TrialFailed(f"{workload}: trial exceeded "
                          f"{TRIAL_TIMEOUT_S}s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise TrialFailed(f"{workload}: trial exited {done.returncode}\n"
                          f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# turning trials into metrics
# ----------------------------------------------------------------------
#: what :func:`trial.host_reference` takes on the host the first
#: baseline was measured on, in its usual (fast) state
NOMINAL_REFERENCE_S = 0.0055


def host_speed(*references: float) -> float:
    """How fast the host ran, from reference-loop times taken around a
    sample; 1.0 is nominal."""
    return NOMINAL_REFERENCE_S / statistics.mean(references)


def calibrated_wall(trial: Dict) -> float:
    """Seconds a nominal host would have taken for a trial's slices.

    The host this runs on changes speed by a fifth from one ten-second
    stretch to the next, for every process alike.  Each slice's wall time
    is therefore scaled by the host's speed around it, as the reference
    loop taken before and after the slice measured it.
    """
    return sum(wall * host_speed(before, after)
               for _work, wall, before, after in trial["slices"])


def calibrated_setup(trial: Dict) -> float:
    """Set-up seconds of a nominal host: scaled by the host's speed as
    measured right after set-up ended."""
    references = [trial["begin_reference_s"]] + [
        after for _work, _wall, _before, after in trial["slices"][:2]]
    return trial["setup_s"] * host_speed(*references)


def calibrated_rate(trial: Dict) -> float:
    """Units of work per second of a nominal host, over one trial."""
    return sum(s[0] for s in trial["slices"]) / calibrated_wall(trial)


def calibrated_latencies(trials: List[Dict]) -> List[float]:
    """Latency samples in ms of a nominal host; wall-paced samples (no
    reference taken) stay as measured."""
    return [ms * (host_speed(before, after) if after else 1.0)
            for t in trials for ms, before, after in t["latencies"]]


def tail_percentile(values: List[float]):
    """The highest percentile with at least ten samples beyond it, and
    which percentile that is."""
    ordered = sorted(values)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def summarise(trials: List[Dict]) -> Dict:
    """Checks across trials plus the numbers both modes share."""
    attempted = sum(t["attempted"] for t in trials) + 1
    failed = sum(t["failed"] for t in trials)
    failures = [f"trial {i}: {c['name']} ({c['detail']})"
                for i, t in enumerate(trials)
                for c in t["checks"] if not c["ok"]]
    fingerprints = {t["sim_fingerprint"] for t in trials}
    if len(fingerprints) != 1:
        failed += 1
        failures.append("simulated counters differ between trials: "
                        + "; ".join(json.dumps(t["counters"], sort_keys=True)
                                    for t in trials))
    return {
        "attempted": attempted, "failed": failed, "failures": failures,
        "sim_fingerprint": sorted(fingerprints)[0],
        "inputs_digest": trials[0]["inputs_digest"],
    }


def end_to_end(trials: List[Dict]) -> Dict[str, float]:
    rate = statistics.median(calibrated_rate(t) for t in trials)
    latencies = calibrated_latencies(trials)
    latency = statistics.median(latencies) if latencies else 1000.0 / rate
    return {
        "setup_s": statistics.median(calibrated_setup(t) for t in trials),
        "throughput_per_s": rate,
        "latency_ms": latency,
        "peak_rss_mb": statistics.median(
            t["peak_rss_kb"] for t in trials) / 1024.0,
    }


def per_layer(workload: str, plain: Dict, traced: Dict) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload does not touch
    reads 0.  What the untraced trial measured itself is taken from it
    (marked *u* in README.md), the rest from the traced trial."""
    values: Dict[str, float] = {**traced["layer"], **plain["layer"]}
    layers = traced["layers"]
    calls = traced["entry_calls"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def nominal(trial: Dict) -> float:
        """Scale from this trial's host seconds to nominal-host seconds."""
        return ratio(calibrated_wall(trial),
                     sum(wall for _work, wall, *_ in trial["slices"]))

    for layer in ("sim", "phy", "mac", "lowpan", "net", "core", "app"):
        row = layers[layer]
        values[f"{layer}.self_s"] = row["self_s"] * nominal(traced)
        values[f"{layer}.self_share"] = row["self_share"]
        values[f"{layer}.calls"] = row["calls"]
    events = plain["layer"].get("sim.events", 0)
    frames = plain["layer"].get("phy.frames_delivered", 0)
    measured = calibrated_wall(plain)
    values["sim.host_us_per_event"] = ratio(1e6 * measured, events)
    values["sim.cpu_s"] = plain["cpu_s"] * nominal(plain)
    values["sim.schedules"] = traced["scheduled"]
    values["sim.cancels"] = calls.get("sim.cancel", 0)
    values["sim.events_per_frame"] = ratio(events, frames)
    values["sim.schedules_per_frame"] = ratio(traced["scheduled"], frames)
    values["phy.host_us_per_frame"] = ratio(1e6 * measured, frames)
    values["phy.deliveries_per_tx"] = ratio(
        frames, values.get("phy.tx_started", 0))
    values["phy.carrier_sense_calls"] = calls.get("phy.Medium.carrier_busy", 0)
    values["mac.sends"] = calls.get("mac.MacLayer.send", 0)
    frames_tx = values.get("mac.frames_tx", 0)
    values["mac.acked_share"] = ratio(
        frames_tx - values.pop("mac.ack_timeouts", 0), frames_tx)
    values["mac.rx_upcalls"] = sum(
        n for name, n in calls.items() if name.endswith("<-mac"))
    values["lowpan.packets_out"] = calls.get(
        "lowpan.LowpanAdaptation.send_packet", 0)
    values["lowpan.frames_per_packet"] = ratio(
        values.get("lowpan.fragments_sent", 0),
        values.pop("lowpan.datagrams_sent", 0))
    values["net.sent"] = (calls.get("net.Ipv6Layer.send", 0)
                          + calls.get("net.CloudHost.send", 0))
    values["net.wired_sent"] = calls.get("net.WiredLink.send", 0)
    segments = calls.get("core.TcpConnection.on_segment", 0)
    values["core.segments_in"] = segments
    values["core.output_calls"] = calls.get("core.TcpConnection.output", 0)
    values["core.self_us_per_segment"] = ratio(
        1e6 * values["core.self_s"], segments)
    latencies = calibrated_latencies([plain])
    if workload == "gateway_echo":
        values["gateway.exchanges_per_s"] = calibrated_rate(plain)
        values["gateway.echo_ms_p50"] = statistics.median(latencies)
        values["gateway.echo_ms_tail"] = tail_percentile(latencies)[0]
    if workload == "campaign_sweep":
        values["campaign.runs_per_s"] = calibrated_rate(plain)
        values["campaign.cached_rerun_ms"] = statistics.median(latencies)
    values["trace.overhead_ratio"] = ratio(calibrated_wall(traced), measured)
    values["trace.spans"] = sum(calls.values())
    return {m["name"]: float(values.get(m["name"], 0.0))
            for m in SPEC["per_layer"]}


# ----------------------------------------------------------------------
# one workload, one mode
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, quick: bool,
            trace: bool) -> Dict:
    """Run the trials of one mode; returns the full record."""
    if trace:
        trace_out = ROOT / f"BENCH_trace_{workload}.json"
        plain = run_trial(workload, seed, quick, extras=True)
        traced = run_trial(workload, seed, quick, trace_out=trace_out)
        trials = [plain, traced]
        summary = summarise(trials)
        metrics = per_layer(workload, plain, traced)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    else:
        trials = []
        while len(trials) < MIN_TRIALS or (
                not quick and len(trials) < MAX_TRIALS
                and sum(t["measured_s"] for t in trials) < seconds):
            trials.append(run_trial(workload, seed, quick))
        summary = summarise(trials)
        metrics = end_to_end(trials)
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return {"workload": workload, "mode": "trace" if trace else "e2e",
            "seed": seed, "result": result, "summary": summary,
            "trials": trials}


def report(record: Dict) -> None:
    """Every metric by name with its unit, then the result object."""
    workload, summary = record["workload"], record["summary"]
    result = record["result"]
    walls = [round(t["measured_s"], 3) for t in record["trials"]]
    print(f"# {workload} [{record['mode']}] seed={record['seed']} "
          f"trials={len(walls)} timed_s={walls}")
    print(f"# {workload} sim_fingerprint={summary['sim_fingerprint'][:16]} "
          f"inputs_digest={summary['inputs_digest'][:16]}")
    if record["mode"] == "trace" and workload == "gateway_echo":
        paced = record["trials"][0]["latencies"]
        print(f"# {workload} gateway.echo_ms_tail is "
              f"p{tail_percentile([s[0] for s in paced])[1]:.1f} of "
              f"{len(paced)} samples")
    for name, metric in result["metrics"].items():
        print(f"{workload:16s} {name:34s} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{workload:16s} {'failed_share':34s} {share:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for failure in summary["failures"]:
        print(f"# FAILED {workload}: {failure}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (see bench/README.md).")
    parser.add_argument("--workload", nargs="+", default=WORKLOADS,
                        metavar="NAME")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="timed work to measure per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1,
                        default=None, choices=(0, 1),
                        help="0: end-to-end only; 1: per-layer only; "
                             "not given: both")
    parser.add_argument("--quick", action="store_true",
                        help="each workload at about 1/10 size")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_e2e.json",
                        help="where the full record goes")
    args = parser.parse_args(argv)
    unknown = [w for w in args.workload if w not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2

    nproc = os.cpu_count() or 1
    before = loadavg()
    if before and before[0] > nproc:
        print(f"warning: load average {before[0]} exceeds {nproc} cores; "
              f"timings will be noisy", file=sys.stderr)
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    records = []
    try:
        for workload in args.workload:
            for trace in modes:
                record = measure(workload, args.seed, args.seconds,
                                 args.quick, trace)
                records.append(record)
                report(record)
    except TrialFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    document = {
        "provenance": {
            "commit": git_commit(), "python": platform.python_version(),
            "nproc": nproc, "loadavg_before": before,
            "loadavg_after": loadavg(), "seed": args.seed,
            "seconds": args.seconds, "quick": args.quick,
        },
        "records": records,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
