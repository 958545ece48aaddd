"""End-of-run invariant checks.

These run once, after a simulation finishes, and check the end-to-end
contract the paper's §2 case for TCP rests on:

1. **Stream integrity** — whatever the network did, the receiver's
   byte stream is exactly the sender's (or, on a declared error, a
   strict prefix of it).  Silent corruption/reordering never passes.
2. **Clean teardown** — once every connection on a stack is gone, no
   ``tcp-*`` timer may still be armed in the scheduler (a leaked timer
   keeps a dead connection's events firing forever).
3. **Recover or fail within a bound** — after the last injected fault,
   a connection either finishes its work or reports an error within a
   configurable horizon; limbo is a bug.

Each checker returns a list of human-readable violation strings
(empty = pass); :func:`check_all` aggregates them for the CI smoke
job, which fails the build on any violation.  The *live* counterparts
(checked continuously while the run is in flight) are in
:mod:`repro.verify.engine` / :mod:`repro.verify.probes`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def check_stream_integrity(
    sent: bytes, received: bytes, errors: Sequence[object] = (),
    label: str = "stream",
) -> List[str]:
    """Received bytes must equal sent bytes (prefix on declared error)."""
    violations: List[str] = []
    if not errors:
        if received != sent:
            violations.append(
                f"{label}: received {len(received)}/{len(sent)} bytes "
                f"without a declared error"
                + ("" if received == sent[: len(received)]
                   else " and the prefix is corrupted")
            )
    else:
        if received != sent[: len(received)]:
            violations.append(
                f"{label}: connection failed but delivered bytes are not "
                f"a prefix of the sent stream (silent corruption)"
            )
    return violations


def check_no_armed_tcp_timers(sim, label: str = "teardown") -> List[str]:
    """No ``tcp-*`` timer may be armed once all connections are closed.

    Reads the simulator's explicit armed-timer registry
    (:meth:`repro.sim.engine.Simulator.armed_timers`) — timers register
    on start and deregister on stop/fire, so there is no heap
    introspection and no reliance on callback shape.
    """
    violations: List[str] = []
    for timer in sim.armed_timers():
        name = getattr(timer, "name", "")
        if isinstance(name, str) and name.startswith("tcp-"):
            violations.append(
                f"{label}: timer '{name}' still armed at "
                f"t={timer.expiry:.3f} after all connections closed"
            )
    return violations


def check_quiescent(sim, stacks: Sequence[object],
                    label: str = "quiescence") -> List[str]:
    """All stacks empty *and* no TCP timer armed (clean-teardown check)."""
    violations: List[str] = []
    for stack in stacks:
        live = stack.active_connections()
        if live:
            violations.append(
                f"{label}: node {stack.node_id} still holds {live} "
                f"connection(s) at t={sim.now:.3f}"
            )
    if not violations:
        violations.extend(check_no_armed_tcp_timers(sim, label=label))
    return violations


def check_gateway_quiescent(gateway, label: str = "gateway") -> List[str]:
    """A gateway with no clients must hold no per-connection state.

    Checked after load shedding / chaos abuse stops: every bridge torn
    down, every byte returned to the splice budget, and the gateway's
    own sim-side TCP stack empty.  A leak here is slow-motion overload
    — each abusive client that leaves state behind shrinks the
    capacity available to legitimate ones.
    """
    violations: List[str] = []
    bridges = gateway.active_bridges()
    if bridges:
        violations.append(
            f"{label}: {bridges} bridged connection(s) still open "
            f"after all clients left"
        )
    pinned = gateway.splice_used()
    if pinned:
        violations.append(
            f"{label}: {pinned} byte(s) still pinned against the "
            f"splice budget"
        )
    live = gateway.tcp_stack.active_connections()
    if live:
        violations.append(
            f"{label}: gateway TCP stack still holds {live} simulated "
            f"connection(s)"
        )
    return violations


def check_recovery_bound(
    done_at: Optional[float], last_fault_at: float, bound: float,
    errors: Sequence[object] = (), label: str = "recovery",
) -> List[str]:
    """The transfer must finish (or declare failure) within ``bound``
    seconds of the last injected fault.

    ``done_at`` is the sim time the application saw completion (None if
    it never completed); a declared error also counts as a clean
    outcome — limbo is the only violation.
    """
    if errors:
        return []
    if done_at is None:
        return [
            f"{label}: transfer neither completed nor failed within "
            f"{bound:.1f}s of the last fault (t={last_fault_at:.3f})"
        ]
    if done_at > last_fault_at + bound:
        return [
            f"{label}: completion at t={done_at:.3f} exceeded the "
            f"{bound:.1f}s recovery bound after the last fault "
            f"(t={last_fault_at:.3f})"
        ]
    return []


def check_all(
    sim,
    stacks: Sequence[object] = (),
    sent: Optional[bytes] = None,
    received: Optional[bytes] = None,
    errors: Sequence[object] = (),
    done_at: Optional[float] = None,
    last_fault_at: Optional[float] = None,
    recovery_bound: float = 60.0,
) -> List[str]:
    """Run every applicable invariant; returns all violations."""
    violations: List[str] = []
    if sent is not None and received is not None:
        violations.extend(check_stream_integrity(sent, received, errors))
    if stacks:
        violations.extend(check_quiescent(sim, stacks))
    if last_fault_at is not None:
        violations.extend(check_recovery_bound(
            done_at, last_fault_at, recovery_bound, errors))
    return violations
