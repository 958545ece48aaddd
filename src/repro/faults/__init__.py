"""Deterministic, seed-driven fault injection (chaos engineering).

The paper's reliability story — Fig. 9's loss sweep, the day-long
Fig. 10/Table 8 runs over real faulty links, §9's resilience comparison
— rests on TCP surviving conditions far nastier than a single static
uniform loss rate.  This package injects those conditions on demand:

* :class:`~repro.faults.models.GilbertElliottLoss` — two-state Markov
  bursty loss per directed link (LLN losses are bursty, not i.i.d.);
* link flapping — scheduled ``block_link``/``unblock_link`` churn;
* node crash-and-reboot — radio off, volatile state wiped, cold
  restart after a configurable outage (:meth:`repro.net.node.Node.crash`);
* frame corruption/truncation at the PHY (dropped as FCS failures);
* per-node clock drift/skew on the TCP timestamp clock
  (:class:`~repro.faults.models.SkewedClock`);
* socket chaos against the *live tier* (:mod:`repro.faults.process`,
  imported from there: it loads ``asyncio``, which the in-simulation
  faults never need) — abusive gateway clients (resets, slow-loris,
  partial writes, accept storms; gated on explicit shedding + recovery
  to quiescence).

A :class:`~repro.faults.schedule.FaultSchedule` (JSON/dict spec) drives
a :class:`~repro.faults.injector.FaultInjector`; all randomness comes
from named :class:`repro.sim.rng.RngStreams` streams so two runs with
the same seed are byte-identical.  Every injection is logged as a
``layer="fault"`` TraceEvent (and mirrored to the PR 2 observability
bus/metrics when attached).  :mod:`repro.verify.postrun` checks the
end-to-end contract after a run.

The module-level ``auto_inject``/``maybe_attach`` pair mirrors
``repro.sim.metrics.auto_attach``: the experiment runner cannot reach
into topology builders, so it registers a schedule spec here and every
subsequently built :class:`~repro.experiments.topology.Network` arms an
injector for it.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.injector import FaultInjector
from repro.faults.models import FrameCorruption, GilbertElliottLoss, SkewedClock
from repro.faults.schedule import FaultSchedule

__all__ = [
    "FaultInjector",
    "FaultSchedule",
    "FrameCorruption",
    "GilbertElliottLoss",
    "SkewedClock",
    "auto_inject",
    "maybe_attach",
    "drain_auto",
]

#: schedule spec armed onto every Network built while set (see
#: auto_inject); mirrors metrics.auto_attach's module-level switch
_auto_spec: Optional[dict] = None
#: injectors armed via the auto mechanism, for post-run retrieval
_auto_injectors: list = []


def auto_inject(spec: Optional[dict]) -> None:
    """Arm ``spec`` on every Network built from now on (None disables).

    Used by ``experiments.runner --faults spec.json``: the runner's
    scenarios build their networks internally, so the schedule is
    registered process-wide and picked up by ``maybe_attach`` inside
    the topology builders.
    """
    global _auto_spec
    _auto_spec = spec
    _auto_injectors.clear()


def maybe_attach(net) -> Optional[FaultInjector]:
    """Arm the auto-registered schedule on ``net`` (topology builders).

    Returns the armed injector, or None when auto-injection is off.
    """
    if _auto_spec is None:
        return None
    injector = FaultInjector(net, FaultSchedule.from_dict(_auto_spec))
    injector.arm()
    _auto_injectors.append(injector)
    return injector


def drain_auto() -> list:
    """Return (and forget) injectors armed since the last drain."""
    armed = list(_auto_injectors)
    _auto_injectors.clear()
    return armed
