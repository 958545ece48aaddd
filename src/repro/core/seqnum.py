"""32-bit TCP sequence-number arithmetic (RFC 793 §3.3).

Sequence numbers live on a 2**32 circle; comparisons are defined by
signed distance.  All TCP modules use these helpers instead of raw
comparison operators so wraparound is handled everywhere.
"""

from __future__ import annotations

MOD = 1 << 32
#: half the circle: a forward distance of HALF or more reads as backwards
HALF = 1 << 31


def seq_add(a: int, b: int) -> int:
    """a + b on the sequence circle."""
    return (a + b) % MOD


def seq_sub(a: int, b: int) -> int:
    """Signed distance from b to a (positive if a is 'after' b)."""
    diff = (a - b) % MOD
    if diff >= HALF:
        diff -= MOD
    return diff


# Each comparison is one expression over ``(a - b) % MOD`` (what
# ``seq_sub`` would return before its sign fold), so a comparison costs
# one call; ``tests/test_properties.py`` checks them against ``seq_sub``.
def seq_lt(a: int, b: int) -> bool:
    """a < b on the circle."""
    return (a - b) % MOD >= HALF


def seq_le(a: int, b: int) -> bool:
    """a <= b on the circle."""
    return (b - a) % MOD <= HALF


def seq_gt(a: int, b: int) -> bool:
    """a > b on the circle."""
    return 0 < (a - b) % MOD < HALF


def seq_ge(a: int, b: int) -> bool:
    """a >= b on the circle."""
    return (a - b) % MOD < HALF


def seq_max(a: int, b: int) -> int:
    """The later of two sequence numbers."""
    return a if (a - b) % MOD < HALF else b


def seq_min(a: int, b: int) -> int:
    """The earlier of two sequence numbers."""
    return a if (b - a) % MOD <= HALF else b
