"""Deterministic random-number streams.

Each subsystem that needs randomness (CSMA backoff, link-retry jitter,
loss injection, workload jitter) draws from its own named stream so that
changing one subsystem's consumption pattern does not perturb the
others.  Streams are seeded from a single experiment seed, making every
experiment reproducible from ``(seed,)`` alone.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngStreams:
    """A family of independent ``random.Random`` streams under one seed."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the named stream."""
        rng = self._streams.get(name)
        if rng is None:
            # Derive a per-stream seed that is stable across runs and
            # processes (Python's hash() is salted per process, so it
            # must not be used here) and independent of creation order.
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            derived = int.from_bytes(digest[:8], "big")
            rng = random.Random(derived)
            self._streams[name] = rng
        return rng

    def uniform(self, name: str, a: float, b: float) -> float:
        """Draw uniform(a, b) from the named stream."""
        return self.stream(name).uniform(a, b)

    def random(self, name: str) -> float:
        """Draw uniform(0, 1) from the named stream."""
        return self.stream(name).random()
