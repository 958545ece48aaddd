#!/usr/bin/env python
"""Nightly soak: a long fault-injected dense-mesh run, self-verified.

Builds the dense-mesh workload the perf suite benchmarks (an R×C
router grid carrying staggered concurrent TCP flows), injects a
compound fault schedule (bursty loss, frame corruption, link flaps,
a router reboot), attaches the live :class:`repro.verify.
InvariantEngine`, and runs for ``--duration`` sim-seconds.

Artifacts (all JSON, for the CI nightly job to upload):

* ``soak_report.json`` — workload numbers, fault injection counts,
  invariant-engine digest;
* ``violations.json`` — only when violations occurred: the full
  structured violation list;
* with ``--minimize`` and violations: ``minimized_spec.json`` — the
  ddmin-reduced fault schedule (see ``tools/triage.py``) that still
  makes the small triage scenario fail.  Faults naming mesh nodes the
  triage chain lacks are dropped before ddmin.

Exit code 4 when any invariant was violated, 0 on a clean soak.

Usage::

    PYTHONPATH=src python tools/soak.py                # full nightly
    PYTHONPATH=src python tools/soak.py --duration 30  # quick local
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tools"))

from repro.api import (  # noqa: E402
    FlowSet,
    FlowSpec,
    InvariantEngine,
    build_chain,
    build_grid_mesh,
    tcplp_params,
)
from repro.checks import is_positive_number  # noqa: E402
from repro.faults import FaultInjector, FaultSchedule  # noqa: E402

#: exit code for "the soak found an invariant violation"
EXIT_VIOLATION = 4

#: the smallest grid side ``flow_specs`` and ``soak_schedule`` address
MIN_SIDE = 4


def soak_schedule(rows: int, cols: int) -> Dict[str, object]:
    """Compound fault schedule scaled to the grid dimensions."""
    mid = (rows // 2) * cols + cols // 2
    return {
        "name": "nightly-soak",
        "faults": [
            {"kind": "bursty_loss", "p_good_bad": 0.02, "p_bad_good": 0.3},
            {"kind": "frame_corruption", "rate": 0.005},
            {"kind": "link_flap", "a": mid, "b": mid + 1, "at": 20.0,
             "down_for": 2.0, "repeat_every": 30.0, "count": 3},
            {"kind": "node_reboot", "node": mid + cols, "at": 45.0,
             "outage": 4.0},
        ],
    }


def flow_specs(rows: int, cols: int) -> List[FlowSpec]:
    """The dense-mesh flow pattern, staggered 250 ms apart."""
    specs = [FlowSpec(src=r * cols + (cols - 1), dst=r * cols + cols - 4)
             for r in range(rows - 1)]
    specs += [FlowSpec(src=(rows - 1) * cols + c,
                       dst=(rows - 4) * cols + c) for c in range(cols)]
    specs += [FlowSpec(src=cols + 1, dst=0)]
    return [FlowSpec(src=s.src, dst=s.dst, start=0.25 * i)
            for i, s in enumerate(specs)]


def chain_faults(spec: Dict[str, object], hops: int) -> List[object]:
    """The faults of ``spec`` that arm on the ``hops``-hop triage chain
    (a mesh schedule names nodes the chain does not have)."""
    kept = []
    for fault in spec["faults"]:
        net = build_chain(hops, seed=0, with_cloud=False)
        try:
            FaultInjector(net, FaultSchedule.from_dict([fault])).arm()
        except ValueError:
            continue
        kept.append(fault)
    return kept


def run_soak(rows: int, cols: int, duration: float, seed: int,
             interval: float, progress=print) -> Dict[str, object]:
    """One verified soak run; returns the JSON-ready report."""
    progress(f"[soak] {rows}x{cols} grid, {duration:.0f}s sim, "
             f"seed {seed}")
    net = build_grid_mesh(rows, cols, seed=seed)
    spec = soak_schedule(rows, cols)
    injector = FaultInjector(net, FaultSchedule.from_dict(spec)).arm()
    engine = InvariantEngine(net, interval=interval).start()
    flows = FlowSet(net, flow_specs(rows, cols),
                    params=tcplp_params(window_segments=2))
    t0 = time.perf_counter()
    res = flows.measure(warmup=8.0, duration=duration)
    wall = time.perf_counter() - t0
    progress(f"[soak] done in {wall:.1f}s wall: "
             f"{net.sim.events_processed} events, "
             f"{len(engine.violations)} violation(s), "
             f"{engine.checks_run} checks")
    return {
        "rows": rows,
        "cols": cols,
        "duration": duration,
        "seed": seed,
        "schedule": spec,
        "events": net.sim.events_processed,
        "wall_s": round(wall, 2),
        "aggregate_goodput_kbps": round(res.aggregate_goodput_kbps, 2),
        "fairness": round(res.fairness, 4),
        "flows_connected": res.flows_connected,
        "frames_delivered": net.medium.frames_delivered,
        "fault_injections": injector.summary(),
        "verify": engine.summary(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=10)
    parser.add_argument("--cols", type=int, default=10)
    parser.add_argument("--duration", type=float, default=120.0,
                        help="measured sim seconds after the 8s warmup "
                             "(default 120)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--interval", type=float, default=0.5,
                        help="invariant sweep interval (default 0.5)")
    parser.add_argument("-o", "--output", default="soak_report.json")
    parser.add_argument("--violations-out", default="violations.json")
    parser.add_argument("--minimize", action="store_true",
                        help="on violation, ddmin the fault schedule on "
                             "the small triage scenario and write "
                             "minimized_spec.json")
    parser.add_argument("--minimized-out", default="minimized_spec.json")
    args = parser.parse_args(argv)
    if min(args.rows, args.cols) < MIN_SIDE:
        parser.exit(2, f"{parser.prog}: error: the soak grid needs at "
                       f"least {MIN_SIDE}x{MIN_SIDE} nodes "
                       f"(got {args.rows}x{args.cols})\n")
    for flag, value in (("--duration", args.duration),
                        ("--interval", args.interval)):
        if not is_positive_number(value):
            parser.exit(2, f"{parser.prog}: error: {flag} must be a "
                           f"positive finite number (got {value})\n")

    report = run_soak(args.rows, args.cols, args.duration, args.seed,
                      args.interval)
    violations = report["verify"]["violations"]
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    if not violations:
        print("[soak] clean")
        return 0

    with open(args.violations_out, "w") as fh:
        json.dump(violations, fh, indent=2, sort_keys=True)
    print(f"wrote {args.violations_out} ({len(violations)} violations)")
    if args.minimize:
        import triage  # noqa: E402  (tools/ is on sys.path)

        hops = 2

        def fails_with(candidate: Dict[str, object]) -> bool:
            probe = triage.run_chaos(candidate, seed=args.seed, hops=hops,
                                     duration=60.0)
            return not probe["engine"].ok

        schedule = report["schedule"]
        faults = chain_faults(schedule, hops)
        print(f"[soak] minimizing schedule on the triage scenario "
              f"({len(schedule['faults']) - len(faults)} fault(s) name "
              f"nodes the {hops}-hop chain lacks) ...")
        minimized = triage.minimize_schedule(
            dict(schedule, faults=faults), fails_with, progress=print)
        with open(args.minimized_out, "w") as fh:
            json.dump(minimized, fh, indent=2, sort_keys=True)
        print(f"wrote {args.minimized_out} "
              f"({len(minimized['faults'])} fault(s))")
    return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
