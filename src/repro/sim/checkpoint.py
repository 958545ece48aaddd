"""Deterministic snapshot/restore of a whole simulation.

A :class:`Checkpoint` captures the complete reachable state of a
:class:`~repro.sim.engine.Simulator` — event heap (including periodic
events and in-flight timers), :class:`~repro.sim.rng.RngStreams`
generators, per-node PHY/MAC/6LoWPAN/TCP state, fault injectors,
workload harnesses — as one consistent deep copy.  Restoring yields a
fully private simulation that, when run, produces an event trace
byte-identical to the uninterrupted original: the determinism contract
the kernel already guarantees across process runs, extended to apply
across a snapshot boundary.

How it works
------------
``capture`` deep-copies ``(sim, roots)`` in a single memo, so every
object the scheduler can reach — plus any harness objects the caller
names in ``roots`` — is cloned exactly once and identity relationships
are preserved.  This relies on a repo-wide convention: **callbacks
reachable from the scheduler are bound methods or
``functools.partial`` over bound methods, never closures or lambdas.**
``copy.deepcopy`` treats plain functions as atomic (shared), so a
closure would keep mutating the *original* object graph after a
restore; bound methods and partials clone with their ``__self__``.
The same convention makes the graph picklable, which is what
``to_bytes``/``save`` use for on-disk checkpoints.

Capturing from *inside* a running simulation (the
:class:`CheckpointManager` periodic auto-checkpoint) is safe because
``Simulator.run`` re-arms a periodic event before dispatching its
callback — the auto-checkpoint event is already back in the queue when
the snapshot is taken, so the restored run re-checkpoints on the same
cadence and the event sequence is unperturbed.

The ``on_event`` dispatch hook is deliberately excluded from the
snapshot (it is a harness-side observer, frequently a closure over a
trace list); a restored simulator comes back with ``on_event = None``
and the caller installs its own.
"""

from __future__ import annotations

import copy
import io
import pickle
from collections import deque
from typing import Any, Dict, Optional, Tuple


class CheckpointError(Exception):
    """Raised when a simulation graph cannot be snapshotted/serialised."""


class Checkpoint:
    """One consistent snapshot of a simulation (plus named roots).

    Create with :meth:`capture`; re-materialise (as many times as
    needed — each restore is independent) with :meth:`restore`.
    """

    #: format marker for on-disk checkpoints
    MAGIC = "repro-checkpoint-v1"

    def __init__(self, time: float, seq: int,
                 state: Tuple[Any, Dict[str, Any]]):
        #: simulated time at capture
        self.time = time
        #: scheduler sequence counter at capture (unique, monotonic)
        self.seq = seq
        #: trace boundary: the ``(time, seq)`` an ``on_event`` hook
        #: recorded for the dispatch that took this snapshot.  Set by
        #: :class:`CheckpointManager` — periodic events are re-armed
        #: (time/seq mutated in place) *before* dispatch, so the
        #: capture dispatch is traced under its *next* firing
        #: coordinates, and that is the split point for comparing a
        #: restored run's trace against the original.  ``None`` for
        #: checkpoints taken outside the run loop (there the caller
        #: already knows the trace length at capture).
        self.boundary: Optional[Tuple[float, int]] = None
        self._state = state

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, sim, roots: Optional[Dict[str, Any]] = None,
                ) -> "Checkpoint":
        """Snapshot ``sim`` and the named harness ``roots``.

        ``roots`` maps names to objects the caller wants back from
        :meth:`restore` (workload drivers, injectors, stacks …).  They
        are copied in the same memo as the simulator, so a root that
        references the sim (or vice versa) stays consistently shared in
        the clone.
        """
        hook = sim.on_event
        sim.on_event = None  # harness observer: never part of a snapshot
        try:
            state = copy.deepcopy((sim, dict(roots or {})))
        except TypeError as exc:
            raise CheckpointError(
                f"simulation graph is not checkpointable: {exc} "
                f"(scheduler-reachable callbacks must be bound methods "
                f"or functools.partial, not lambdas/closures)"
            ) from exc
        finally:
            sim.on_event = hook
        return cls(sim.now, sim._seq, state)

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    def restore(self) -> Tuple[Any, Dict[str, Any]]:
        """Return ``(sim, roots)`` — a fresh private copy of the snapshot.

        Each call re-copies the stored state, so one checkpoint supports
        repeated replays (the triage workflow) without cross-talk.  The
        returned simulator is stopped (``run`` may be called on it) and
        has no ``on_event`` hook.
        """
        sim, roots = copy.deepcopy(self._state)
        sim._running = False
        sim._stopped = False
        sim.on_event = None
        return sim, roots

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise the checkpoint (header + pickled state graph)."""
        try:
            payload = pickle.dumps(self._state, pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise CheckpointError(
                f"checkpoint is not serialisable: {exc} "
                f"(scheduler-reachable callbacks must be bound methods "
                f"or functools.partial, not lambdas/closures)"
            ) from exc
        header = (self.MAGIC, self.time, self.seq, self.boundary)
        return pickle.dumps(header, pickle.HIGHEST_PROTOCOL) + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Checkpoint":
        """Inverse of :meth:`to_bytes`."""
        buf = io.BytesIO(data)
        header = pickle.load(buf)
        if not (isinstance(header, tuple) and len(header) == 4
                and header[0] == cls.MAGIC):
            raise CheckpointError("not a repro checkpoint (bad header)")
        _, time, seq, boundary = header
        state = pickle.load(buf)
        cp = cls(time, seq, state)
        cp.boundary = boundary
        return cp

    def save(self, path) -> int:
        """Write the checkpoint to ``path``; returns the byte count."""
        data = self.to_bytes()
        with open(path, "wb") as fh:
            fh.write(data)
        return len(data)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a checkpoint written by :meth:`save`."""
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Checkpoint t={self.time:.6f} seq={self.seq}>"


class CheckpointManager:
    """Periodic auto-checkpoints into a bounded ring.

    ``start()`` schedules a snapshot every ``interval`` sim-seconds;
    the newest ``keep`` checkpoints are retained.  ``nearest_before``
    answers the triage question "which snapshot lets me replay up to
    this violation?".

    The manager participates in its own snapshots (its periodic event
    is on the heap), but the ring of already-taken checkpoints is
    deliberately *excluded* from the copy — snapshots of snapshots
    would compound geometrically.  A restored manager therefore resumes
    auto-checkpointing on cadence, into an empty ring of its own.
    """

    def __init__(self, sim, roots: Optional[Dict[str, Any]] = None,
                 interval: float = 5.0, keep: int = 8):
        if interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        if keep < 1:
            raise ValueError("must keep at least one checkpoint")
        self.sim = sim
        self.roots = dict(roots or {})
        self.interval = interval
        self.keep = keep
        self.checkpoints: deque = deque(maxlen=keep)
        #: total snapshots taken (ring may have dropped older ones)
        self.taken = 0
        self._event = None

    def start(self) -> "CheckpointManager":
        """Begin auto-checkpointing every ``interval`` sim-seconds."""
        if self._event is None or not self._event.pending:
            self._event = self.sim.schedule_periodic(
                self.interval, self._take)
        return self

    def stop(self) -> None:
        """Stop auto-checkpointing (retained snapshots survive)."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _take(self) -> None:
        cp = Checkpoint.capture(self.sim, self.roots)
        if self._event is not None and self._event.pending:
            # The run loop re-armed our periodic event before calling
            # _take, so the capture dispatch is traced under the NEXT
            # firing's (time, seq) — record that as the trace boundary.
            cp.boundary = (self._event.time, self._event.seq)
        self.checkpoints.append(cp)
        self.taken += 1

    def nearest_before(self, time: float) -> Optional[Checkpoint]:
        """Latest retained checkpoint with ``cp.time < time`` (or None)."""
        best = None
        for cp in self.checkpoints:
            if cp.time < time and (best is None or cp.time > best.time):
                best = cp
        return best

    def __deepcopy__(self, memo):
        # Taken from inside Checkpoint.capture: clone everything except
        # the checkpoint ring (no snapshots-of-snapshots).
        clone = object.__new__(CheckpointManager)
        memo[id(self)] = clone
        clone.interval = self.interval
        clone.keep = self.keep
        clone.taken = 0
        clone.checkpoints = deque(maxlen=self.keep)
        clone.sim = copy.deepcopy(self.sim, memo)
        clone.roots = copy.deepcopy(self.roots, memo)
        clone._event = copy.deepcopy(self._event, memo)
        return clone

    def __reduce__(self):
        # Pickled inside Checkpoint.to_bytes: same exclusion as deepcopy.
        return (_rebuild_manager,
                (self.sim, self.roots, self.interval, self.keep,
                 self._event))


def _rebuild_manager(sim, roots, interval, keep, event):
    mgr = CheckpointManager(sim, roots, interval=interval, keep=keep)
    mgr._event = event
    return mgr
