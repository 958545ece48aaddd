#!/usr/bin/env python
"""Socket-level chaos runner: abuse a live gateway, require recovery.

Driven by a :class:`repro.faults.process.ProcessFaultSchedule` (see
``docs/robustness.md``): a live gateway (overload protection on) takes
a scripted beating — connection resets, a slow-loris pack, partial
writes, an accept storm past the admission cap.  It must shed
explicitly (``gw.shed``), serve every admitted client intact, pass a
clean recovery probe, and drain back to quiescence
(:func:`repro.verify.check_gateway_quiescent`).

``--smoke`` runs the built-in schedule at a CI-friendly size and exits
non-zero on any unrecovered fault or invariant violation — the
contract is a gate, not a demo.  ``--spec FILE`` runs a custom
schedule instead.

Usage::

    PYTHONPATH=src python tools/chaos.py --smoke --out chaos_report.json
    PYTHONPATH=src python tools/chaos.py --spec my_chaos.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.faults.process import ProcessFaultSchedule, run_gateway_chaos  # noqa: E402

#: the smoke's schedule: every abuse kind once, finishing with an
#: accept storm well past the smoke gateway's 64-conn cap
SMOKE_GATEWAY_SPEC = {
    "name": "chaos-smoke-gateway",
    "faults": [
        {"kind": "client_reset", "at": 0.0, "count": 8},
        {"kind": "partial_write", "at": 0.2, "count": 4, "bytes": 6},
        {"kind": "slow_loris", "at": 0.4, "count": 8, "hold": 20.0,
         "prelude_bytes": 4},
        {"kind": "accept_storm", "at": 0.6, "connections": 200},
    ],
}


def run_gateway_leg(schedule: ProcessFaultSchedule,
                    progress=print) -> dict:
    ops = schedule.gateway_ops()
    progress(f"[chaos] gateway leg: {len(ops)} client abuse op(s) "
             f"against a live gateway ...")
    report = asyncio.run(run_gateway_chaos(schedule))
    probe = report["probe"]
    progress(f"[chaos] gateway leg: probe ok={probe['ok']} "
             f"({probe['latency_s']}s), {report['shed_counted']} shed "
             f"counted, quiesced in {report['quiesce_s']}s, "
             f"violations={report['violations'] or 'none'} "
             f"ok={report['ok']}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the built-in CI schedule")
    parser.add_argument("--spec", default=None, metavar="FILE",
                        help="JSON ProcessFaultSchedule to run instead")
    parser.add_argument("--out", default="chaos_report.json")
    args = parser.parse_args(argv)

    if not args.smoke and not args.spec:
        parser.error("pick --smoke or --spec FILE")

    if args.spec:
        schedule = ProcessFaultSchedule.from_json(args.spec)
    else:
        schedule = ProcessFaultSchedule.from_dict(SMOKE_GATEWAY_SPEC)

    gateway_leg = run_gateway_leg(schedule)
    report = {"ok": gateway_leg["ok"], "legs": {"gateway": gateway_leg}}

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if not report["ok"]:
        print("chaos run FAILED: fault not recovered or invariant "
              "violated", file=sys.stderr)
        return 1
    print("[chaos] recovered clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
