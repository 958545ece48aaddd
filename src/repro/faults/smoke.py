"""CI chaos smoke: a fixed-seed fault-injected transfer, checked.

Runs one finite TCP transfer over a 2-hop chain while a compound fault
schedule fires (Gilbert-Elliott bursty loss, a link flap, a relay
crash-and-reboot, sender clock drift starting just below the 32-bit
timestamp wrap), then:

1. checks every :mod:`repro.verify.postrun` invariant — stream
   integrity, clean teardown, recover-or-fail within bound;
2. runs the identical scenario a second time and requires the two
   fault-event logs and delivered byte streams to be byte-identical
   (the determinism contract of :mod:`repro.faults`);
3. exports the fault log as JSON Lines for the CI artifact.

Exit status is non-zero on any violation, so the workflow job fails
loudly.  Usage::

    PYTHONPATH=src python -m repro.faults.smoke --out fault_events.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.faults import FaultInjector, FaultSchedule
from repro.verify import postrun

#: the checked-in smoke schedule — edit deliberately; CI pins seed 7
SMOKE_SCHEDULE = {
    "name": "ci-smoke",
    "faults": [
        {"kind": "bursty_loss", "p_good_bad": 0.03, "p_bad_good": 0.3},
        {"kind": "link_flap", "a": 0, "b": 1, "at": 8.0, "down_for": 1.5,
         "repeat_every": 10.0, "count": 2},
        {"kind": "node_reboot", "node": 1, "at": 22.0, "outage": 3.0},
        {"kind": "clock_drift", "node": 2, "skew": 1.0005,
         "offset_ms": 4294965296},
    ],
}

#: last scheduled injection lands at t = 22 + 3; everything after that
#: is recovery time for the bound check
LAST_FAULT_AT = 25.0


def run_once(seed: int = 7, deadline: float = 240.0,
             payload_bytes: int = 56 * 1024) -> Dict[str, object]:
    """One fault-injected transfer; returns everything the checks need."""
    from repro.core.simplified import tcplp_params
    from repro.experiments.topology import build_chain

    net = build_chain(2, seed=seed, with_cloud=False)
    for n in net.nodes.values():
        n.mac.params.retry_delay = 0.04
    injector = FaultInjector(
        net, FaultSchedule.from_dict(SMOKE_SCHEDULE)).arm()

    payload = bytes((i * 11 + 5) % 256 for i in range(payload_bytes))
    stack_tx = net.tcp_stack(2)
    stack_rx = net.tcp_stack(0)
    got: List[bytes] = []
    errors: List[str] = []
    done_at: List[Optional[float]] = [None]

    def on_accept(server_conn):
        server_conn.on_data = got.append
        server_conn.on_peer_close = server_conn.close

    stack_rx.listen(8000, on_accept, params=tcplp_params())
    conn = stack_tx.connect(0, 8000,
                            params=tcplp_params(window_segments=4))
    conn.on_error = errors.append
    sent = [0]

    def fill():
        while sent[0] < len(payload) and conn.send_buf.free > 0:
            n = conn.send(payload[sent[0]: sent[0] + 512])
            if n == 0:
                break
            sent[0] += n
        if sent[0] >= len(payload):
            conn.close()

    conn.on_connect = fill
    conn.on_send_space = fill
    conn.on_close = lambda: done_at.__setitem__(0, net.sim.now)
    net.sim.run(until=deadline)

    violations = postrun.check_all(
        net.sim,
        stacks=(stack_tx, stack_rx),
        sent=payload,
        received=b"".join(got),
        errors=errors,
        done_at=done_at[0],
        last_fault_at=LAST_FAULT_AT,
        recovery_bound=deadline - LAST_FAULT_AT,
    )
    return {
        "injector": injector,
        "received": b"".join(got),
        "errors": list(errors),
        "done_at": done_at[0],
        "violations": violations,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7,
                        help="simulation seed (CI pins the default)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the fault-event log as JSONL")
    args = parser.parse_args(argv)

    first = run_once(seed=args.seed)
    second = run_once(seed=args.seed)
    injector = first["injector"]
    violations = list(first["violations"])

    # determinism: identical seed => byte-identical logs and streams
    log1 = [e.as_dict() for e in injector.events]
    log2 = [e.as_dict() for e in second["injector"].events]
    if json.dumps(log1) != json.dumps(log2):
        violations.append(
            f"determinism: fault logs differ between identical runs "
            f"({len(log1)} vs {len(log2)} events)")
    if first["received"] != second["received"]:
        violations.append(
            "determinism: delivered byte streams differ between "
            "identical runs")

    if args.out:
        count = injector.to_jsonl(args.out)
        print(f"wrote {count} fault events to {args.out}")

    print(f"chaos smoke (seed {args.seed}): "
          f"{len(injector.events)} fault events, "
          f"{len(first['received'])} bytes delivered, "
          f"done_at={first['done_at']}, "
          f"summary={injector.summary()}")
    for v in violations:
        print(f"VIOLATION {v}", file=sys.stderr)
    if violations:
        print(f"chaos smoke FAILED: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("chaos smoke OK: all invariants hold, runs byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
