#!/usr/bin/env python
"""Automatic failure triage for fault-injected runs.

Given a fault schedule (JSON spec) that makes an invariant-verified
run fail, this tool turns "a long chaotic run violated something" into
a minimal, fast repro:

1. **Reproduce** — run the scenario with the live
   :class:`repro.verify.InvariantEngine` attached.
2. **Minimize** — delta-debug (ddmin) the schedule's fault list to the
   smallest subset that still triggers *some* violation before the
   first one's time plus ``REPLAY_SLACK``.
3. **Replay** — re-run the minimized schedule from the same seed, to
   the first violation's time plus ``REPLAY_SLACK``, and report whether
   its first violation is the full run's (time, layer, node, probe and
   detail).  The kernel is deterministic, so this is the short repro a
   human then debugs.

Output: ``triage_report.json`` (first violation, minimized schedule,
replay confirmation, per-step run counts) and
``minimized_spec.json`` (a runnable ``--faults`` spec).  Exit code 3
when a violation was found and triaged, 0 when the run is clean.

The scenario is the chaos chain used by the CI fault gates: a bulk
TCP transfer over an N-hop chain with the schedule injected.

``--corrupt AT`` additionally smashes the sender's ``snd_nxt`` at sim
time AT — a deterministic, schedule-independent way to exercise the
triage pipeline end-to-end (used by the tests and for demos; with the
corruption being schedule-independent, ddmin correctly minimizes the
fault list to empty).

Usage::

    PYTHONPATH=src python tools/triage.py --faults spec.json
    PYTHONPATH=src python tools/triage.py --corrupt 12.0   # self-demo
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import (  # noqa: E402
    BulkTransfer,
    InvariantEngine,
    build_chain,
    tcplp_params,
)
from repro.checks import is_number, is_positive_number  # noqa: E402
from repro.faults import FaultInjector, FaultSchedule  # noqa: E402

#: exit code when a violation was found (and triaged)
EXIT_VIOLATION = 3

#: how far past the first violation ddmin probes and the replay run
#: (sim seconds)
REPLAY_SLACK = 1.0


class _Corruptor:
    """Test hook: smash a connection's snd_nxt at a fixed sim time."""

    def __init__(self, xfer: BulkTransfer):
        self.xfer = xfer

    def __call__(self) -> None:
        conn = self.xfer.connection
        if conn is not None:
            conn.snd_nxt = (conn.snd_una - 1000) & 0xFFFFFFFF


def run_chaos(
    spec: Dict[str, object],
    seed: int = 7,
    hops: int = 2,
    duration: float = 40.0,
    corrupt_at: Optional[float] = None,
) -> Dict[str, object]:
    """One verified chaos run; returns its artifacts.

    The returned dict holds the ``engine`` (violations), the built
    ``net``, ``xfer`` and the fault ``injector`` (None for an empty
    schedule).
    """
    net = build_chain(hops, seed=seed, with_cloud=False)
    for n in net.nodes.values():
        n.mac.params.retry_delay = 0.04
    injector = None
    if spec.get("faults"):
        injector = FaultInjector(net, FaultSchedule.from_dict(spec)).arm()
    params = tcplp_params(window_segments=4)
    xfer = BulkTransfer(net.sim, net.tcp_stack(hops), net.tcp_stack(0),
                        receiver_id=0, params=params, receiver_params=params)
    engine = InvariantEngine(net, interval=0.5).start()
    if corrupt_at is not None:
        net.sim.schedule_at(corrupt_at, _Corruptor(xfer))
    net.sim.run(until=duration)
    return {"net": net, "xfer": xfer, "engine": engine,
            "injector": injector}


def ddmin(items: Sequence[object],
          fails: Callable[[List[object]], bool]) -> List[object]:
    """Classic delta debugging: minimal sublist for which ``fails``.

    ``fails(items)`` must be True on entry (the full list reproduces
    the failure); the result is 1-minimal — removing any single
    element makes the failure disappear.
    """
    items = list(items)
    if not items:
        return items
    if fails([]):
        return []
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        subsets = [items[i:i + chunk] for i in range(0, len(items), chunk)]
        reduced = False
        for i, subset in enumerate(subsets):
            complement = [x for j, s in enumerate(subsets) if j != i
                          for x in s]
            if fails(complement):
                items = complement
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), n * 2)
    return items


def minimize_schedule(
    spec: Dict[str, object],
    fails_with: Callable[[Dict[str, object]], bool],
    progress: Callable[[str], None] = lambda msg: None,
) -> Dict[str, object]:
    """ddmin the spec's fault list; returns the minimized spec."""
    runs = [0]

    def fails(faults: List[object]) -> bool:
        runs[0] += 1
        candidate = dict(spec, faults=list(faults))
        verdict = fails_with(candidate)
        progress(f"  ddmin run {runs[0]}: {len(faults)} fault(s) -> "
                 f"{'FAIL' if verdict else 'pass'}")
        return verdict

    minimal = ddmin(list(spec.get("faults", [])), fails)
    out = dict(spec, faults=minimal)
    out["name"] = f"{spec.get('name', 'schedule')}-minimized"
    return out


def replay_from_seed(minimized: Dict[str, object], first,
                     seed: int, hops: int,
                     corrupt_at: Optional[float]) -> Dict[str, object]:
    """Re-run the minimized schedule from the seed to just past the
    ``first`` violation; returns a JSON-ready confirmation record."""
    horizon = first.time + REPLAY_SLACK
    replay = run_chaos(minimized, seed=seed, hops=hops, duration=horizon,
                       corrupt_at=corrupt_at)["engine"]
    reproduced = replay.first_violation()
    return {
        "first_violation_time": first.time,
        "replay_horizon": horizon,
        "violations_reproduced": len(replay.violations),
        "reproduced_first": (reproduced.as_dict()
                             if reproduced is not None else None),
        "matches_original": (reproduced is not None
                             and reproduced.as_dict() == first.as_dict()),
    }


def triage(
    spec: Dict[str, object],
    seed: int = 7,
    hops: int = 2,
    duration: float = 40.0,
    corrupt_at: Optional[float] = None,
    progress: Callable[[str], None] = print,
) -> Dict[str, object]:
    """Full pipeline: reproduce, minimize, replay.  Returns the report."""
    progress(f"[triage] full run: {len(spec.get('faults', []))} fault(s), "
             f"{duration:.0f}s on a {hops}-hop chain (seed {seed})")
    engine = run_chaos(spec, seed=seed, hops=hops, duration=duration,
                       corrupt_at=corrupt_at)["engine"]
    report: Dict[str, object] = {
        "seed": seed,
        "hops": hops,
        "duration": duration,
        "corrupt_at": corrupt_at,
        "schedule": spec,
        "checks_run": engine.checks_run,
        "violations": [v.as_dict() for v in engine.violations],
    }
    first = engine.first_violation()
    if first is None:
        progress("[triage] clean: no invariant violations")
        report["clean"] = True
        return report
    report["clean"] = False
    progress(f"[triage] first violation at t={first.time:.3f}: "
             f"{first.layer}/node{first.node} {first.detail}")

    def fails_with(candidate: Dict[str, object]) -> bool:
        probe = run_chaos(candidate, seed=seed, hops=hops,
                          duration=min(duration, first.time + REPLAY_SLACK),
                          corrupt_at=corrupt_at)
        return not probe["engine"].ok

    progress("[triage] minimizing fault schedule (ddmin) ...")
    minimized = minimize_schedule(spec, fails_with, progress)
    report["minimized_schedule"] = minimized
    progress(f"[triage] minimized: {len(spec.get('faults', []))} -> "
             f"{len(minimized['faults'])} fault(s)")

    progress("[triage] replaying the minimized schedule from the seed ...")
    replay = replay_from_seed(minimized, first, seed, hops, corrupt_at)
    report["replay"] = replay
    progress(f"[triage] replay to t={replay['replay_horizon']:.1f} "
             f"reproduced {replay['violations_reproduced']} "
             f"violation(s); matches_original="
             f"{replay['matches_original']}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--faults", default=None, metavar="SPEC.json",
                        help="fault schedule to triage (docs/faults.md "
                             "format); defaults to an empty schedule")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--hops", type=int, default=2,
                        help="chain length of the scenario (default 2)")
    parser.add_argument("--duration", type=float, default=40.0,
                        help="sim seconds for the full run (default 40)")
    parser.add_argument("--corrupt", type=float, default=None,
                        metavar="AT", dest="corrupt_at",
                        help="smash the sender's snd_nxt at sim time AT "
                             "(deterministic pipeline self-test)")
    parser.add_argument("-o", "--output", default="triage_report.json")
    parser.add_argument("--minimized-out", default="minimized_spec.json",
                        help="where to write the runnable minimized "
                             "schedule (only on violation)")
    args = parser.parse_args(argv)
    if args.hops < 1:
        parser.exit(2, f"{parser.prog}: error: --hops must be at least 1 "
                       f"(got {args.hops})\n")
    if not is_positive_number(args.duration):
        parser.exit(2, f"{parser.prog}: error: --duration must be a "
                       f"positive finite number (got {args.duration})\n")
    if args.corrupt_at is not None and not is_number(args.corrupt_at, 0):
        parser.exit(2, f"{parser.prog}: error: --corrupt must be a "
                       f"finite time >= 0 (got {args.corrupt_at})\n")

    if args.faults is not None:
        try:
            spec = FaultSchedule.from_json(args.faults).to_dict()
        except (OSError, ValueError) as exc:
            parser.error(f"--faults {args.faults}: {exc}")
    else:
        spec = {"name": "empty", "faults": []}
    if not spec.get("faults") and args.corrupt_at is None:
        print("note: empty schedule and no --corrupt; expecting a "
              "clean run", file=sys.stderr)

    report = triage(spec, seed=args.seed, hops=args.hops,
                    duration=args.duration,
                    corrupt_at=args.corrupt_at)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    if report["clean"]:
        return 0
    with open(args.minimized_out, "w") as fh:
        json.dump(report["minimized_schedule"], fh, indent=2,
                  sort_keys=True)
    print(f"wrote {args.minimized_out}")
    return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
