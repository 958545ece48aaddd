"""The event-trace recorder the resume-determinism tests compare with."""

from typing import List, Tuple


class TraceHook:
    """A deterministic event-trace recorder for resume verification.

    Install with ``attach``: records ``(time, seq, qualname)`` per
    dispatched event — the exact byte-comparable signature the kernel
    determinism tests use.  A plain object (not a closure) so a test can
    keep one recipe for both original and restored runs.
    """

    def __init__(self):
        self.entries: List[Tuple[float, int, str]] = []

    def attach(self, sim) -> "TraceHook":
        sim.on_event = self
        return self

    def __call__(self, ev) -> None:
        self.entries.append(
            (ev.time, ev.seq, getattr(ev.fn, "__qualname__", repr(ev.fn))))

    def suffix_after(self, checkpoint) -> List[Tuple[float, int, str]]:
        """Entries after the dispatch that took ``checkpoint``.

        Uses the checkpoint's trace ``boundary`` (see
        :attr:`Checkpoint.boundary`): everything recorded after that
        entry is what a restored run must reproduce byte-identically.
        """
        boundary = checkpoint.boundary
        if boundary is None:
            raise ValueError(
                "checkpoint has no trace boundary (taken outside the "
                "run loop) — slice entries by length instead")
        for i, entry in enumerate(self.entries):
            if (entry[0], entry[1]) == boundary:
                return self.entries[i + 1:]
        raise ValueError(f"boundary {boundary} not found in trace")
