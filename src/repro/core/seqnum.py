"""32-bit TCP sequence-number arithmetic (RFC 793 §3.3).

Sequence numbers live on a 2**32 circle; comparisons are defined by
signed distance.  All TCP modules use these helpers instead of raw
comparison operators so wraparound is handled everywhere.
"""

from __future__ import annotations

MOD = 1 << 32
_HALF = 1 << 31


def seq_add(a: int, b: int) -> int:
    """a + b on the sequence circle."""
    return (a + b) % MOD


def seq_sub(a: int, b: int) -> int:
    """Signed distance from b to a (positive if a is 'after' b)."""
    diff = (a - b) % MOD
    if diff >= _HALF:
        diff -= MOD
    return diff


def seq_lt(a: int, b: int) -> bool:
    """a < b on the circle."""
    return seq_sub(a, b) < 0


def seq_le(a: int, b: int) -> bool:
    """a <= b on the circle."""
    return seq_sub(a, b) <= 0


def seq_gt(a: int, b: int) -> bool:
    """a > b on the circle."""
    return seq_sub(a, b) > 0


def seq_ge(a: int, b: int) -> bool:
    """a >= b on the circle."""
    return seq_sub(a, b) >= 0


def seq_max(a: int, b: int) -> int:
    """The later of two sequence numbers."""
    return a if seq_ge(a, b) else b


def seq_min(a: int, b: int) -> int:
    """The earlier of two sequence numbers."""
    return a if seq_le(a, b) else b
