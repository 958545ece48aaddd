"""Self-verification: live invariants and post-run contract checks.

Two layers of defence against a simulation that is *running* but
*wrong*:

* :class:`InvariantEngine` (:mod:`repro.verify.engine`) watches a
  built network while it runs — per-layer structural probes
  (:mod:`repro.verify.probes`) on a cheap periodic sweep plus
  trace-event-triggered spot checks, collecting structured
  :class:`Violation` records;
* :mod:`repro.verify.postrun` checks the end-to-end contract once a
  run finishes (stream integrity, clean teardown via the simulator's
  armed-timer registry, bounded recovery after the last fault).

The module-level ``auto_verify``/``maybe_attach``/``drain_auto`` trio
mirrors ``repro.faults.auto_inject``: the campaign engine cannot
reach into topology builders, so it flips the switch here and every
subsequently built :class:`~repro.experiments.topology.Network` gets
an engine attached and started.
"""

from __future__ import annotations

from typing import List, Optional

from repro.verify.engine import InvariantEngine, Violation
from repro.verify.postrun import (
    check_all,
    check_gateway_quiescent,
    check_no_armed_tcp_timers,
    check_quiescent,
    check_recovery_bound,
    check_stream_integrity,
)

__all__ = [
    "InvariantEngine",
    "Violation",
    "check_all",
    "check_gateway_quiescent",
    "check_no_armed_tcp_timers",
    "check_quiescent",
    "check_recovery_bound",
    "check_stream_integrity",
    "auto_verify",
    "maybe_attach",
    "drain_auto",
]

#: sweep interval armed onto every Network built while set (see
#: auto_verify); mirrors faults.auto_inject's module-level switch
_auto_interval: Optional[float] = None
#: engines attached via the auto mechanism, for post-run retrieval
_auto_engines: List[InvariantEngine] = []


def auto_verify(interval: Optional[float] = 0.5) -> None:
    """Attach an engine to every Network built from now on (None disables).

    Used by a campaign spec's ``runner.verify``: catalog experiments
    build their networks internally, so the switch is registered
    process-wide and picked up by ``maybe_attach`` inside the topology
    builders.
    """
    global _auto_interval
    _auto_interval = interval
    _auto_engines.clear()


def maybe_attach(net) -> Optional[InvariantEngine]:
    """Attach+start an engine on ``net`` when auto-verify is armed.

    Called by the topology builders; returns the running engine, or
    None when auto-verification is off (the common case — one module
    attribute read and a None check).
    """
    if _auto_interval is None:
        return None
    engine = InvariantEngine(net, interval=_auto_interval).start()
    _auto_engines.append(engine)
    return engine


def drain_auto() -> List[InvariantEngine]:
    """Return (and forget) engines attached since the last drain."""
    attached = list(_auto_engines)
    _auto_engines.clear()
    return attached
