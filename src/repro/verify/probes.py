"""Read-only per-layer invariant probes.

Each probe inspects one live object and returns a list of violation
detail strings (empty = healthy).  Probes never mutate the objects
they examine and never allocate more than a few temporaries, so the
:class:`~repro.verify.engine.InvariantEngine` can run them on a
periodic timer inside hot simulations.

The invariants are the structural ones a TCPlp port historically gets
wrong (wrap-unaware sequence comparisons, SACK scoreboard drift,
reassembly overlap, leaked ACK timers) plus kernel self-checks
(monotonic time, heap order, tombstone accounting).  Violation strings
carry the observed values so a soak-run artifact is debuggable without
re-running.
"""

from __future__ import annotations

from typing import List

from repro.core.seqnum import seq_le, seq_lt, seq_sub

#: recovery inflates cwnd by at most 3 MSS above the buffer bound
#: (NewRenoCongestion.on_enter_recovery)
_RECOVERY_SLACK_MSS = 3


# ----------------------------------------------------------------------
# TCP
# ----------------------------------------------------------------------
def _probe_tcp_connection(conn) -> List[str]:
    """Structural invariants of one live :class:`TcpConnection`."""
    out: List[str] = []
    una, nxt, smax = conn.snd_una, conn.snd_nxt, conn.snd_max

    # --- send-sequence ordering (wrap-aware) ---
    if not seq_le(una, nxt):
        out.append(f"snd_una={una} > snd_nxt={nxt}")
    if not seq_le(nxt, smax):
        out.append(f"snd_nxt={nxt} > snd_max={smax}")

    # --- congestion-window bounds ---
    cc = conn.cc
    if cc.enabled:
        if cc.cwnd <= 0:
            out.append(f"cwnd={cc.cwnd} is not positive")
        ceiling = cc.max_window + _RECOVERY_SLACK_MSS * cc.mss
        if cc.cwnd > ceiling:
            out.append(f"cwnd={cc.cwnd} above ceiling {ceiling} "
                       f"(max_window={cc.max_window}, mss={cc.mss})")
        floor = min(2 * cc.mss, cc.max_window)
        if cc.ssthresh < floor:
            out.append(f"ssthresh={cc.ssthresh} below floor {floor}")

    # --- SACK scoreboard: sorted, disjoint, within (snd_una, snd_max] ---
    prev_hi = None
    for lo, hi in conn.scoreboard.ranges:
        if not seq_lt(lo, hi):
            out.append(f"sack range [{lo},{hi}) is empty or inverted")
            continue
        if not (seq_lt(una, hi) and seq_le(hi, smax)):
            out.append(f"sack range [{lo},{hi}) outside "
                       f"(snd_una={una}, snd_max={smax}]")
        if prev_hi is not None and not seq_le(prev_hi, lo):
            out.append(f"sack ranges overlap/unsorted at [{lo},{hi}) "
                       f"(previous right edge {prev_hi})")
        prev_hi = hi

    # --- flight size bounded by what was ever permitted on the wire ---
    flight = seq_sub(smax, una)
    limit = conn.send_buf.capacity + 2  # +SYN +FIN
    if cc.enabled:
        limit = max(limit, cc.max_window + _RECOVERY_SLACK_MSS * cc.mss + 2)
    if flight > limit:
        out.append(f"flight {flight}B exceeds window limit {limit}B")

    # --- receive buffer / reassembly bitmap accounting ---
    rb = conn.recv_buf
    present = sum(rb._present)  # no bitmap before the first byte: 0
    if not 0 <= rb._unread <= rb.capacity:
        out.append(f"recv_buf unread={rb._unread} outside "
                   f"[0, capacity={rb.capacity}]")
    if present > rb.capacity:
        out.append(f"recv_buf bitmap holds {present}B > "
                   f"capacity={rb.capacity}")
    if present < rb._unread:
        out.append(f"recv_buf bitmap {present}B < unread={rb._unread} "
                   f"(negative out-of-order bytes)")
    if rb.out_of_order != present - rb._unread:
        out.append(f"recv_buf out-of-order count {rb.out_of_order}B "
                   f"!= bitmap {present}B - unread={rb._unread}")
    if rb.window != rb.capacity - rb._unread:
        out.append(f"recv_buf window={rb.window} != capacity - unread")
    sb = conn.send_buf
    if (sb.used, sb.free) != (len(sb._data), sb.capacity - len(sb._data)):
        out.append(f"send_buf used={sb.used} free={sb.free} disagree with "
                   f"its {len(sb._data)}B of data")

    # --- no data sequenced past our FIN ---
    if conn._fin_seq is not None:
        fin_end = (conn._fin_seq + 1) & 0xFFFFFFFF
        if not seq_le(nxt, fin_end):
            out.append(f"snd_nxt={nxt} beyond FIN at {conn._fin_seq}")
        if not seq_le(smax, fin_end):
            out.append(f"snd_max={smax} beyond FIN at {conn._fin_seq}")
    return out


def probe_tcp_stack(stack) -> List[str]:
    """All connections of one stack, labelled by 4-tuple key."""
    out: List[str] = []
    for key, conn in list(stack._connections.items()):
        for detail in _probe_tcp_connection(conn):
            out.append(f"conn{key}: {detail}")
    return out


# ----------------------------------------------------------------------
# 6LoWPAN
# ----------------------------------------------------------------------
def probe_reassembler(reasm) -> List[str]:
    """Fragment-reassembly sanity for every in-progress datagram."""
    out: List[str] = []
    for (origin, tag), part in list(reasm._partials.items()):
        label = f"reasm(origin={origin},tag={tag})"
        total = 0
        spans = sorted(part.received)
        prev_end = 0
        for offset, length in spans:
            total += length
            if length <= 0 or offset < 0 or offset + length > part.size:
                out.append(f"{label}: span ({offset},{length}) outside "
                           f"datagram of {part.size}B")
            if offset < prev_end:
                out.append(f"{label}: span ({offset},{length}) overlaps "
                           f"previous fragment ending at {prev_end}")
            prev_end = max(prev_end, offset + length)
        if total != part.bytes_received:
            out.append(f"{label}: span sum {total}B != "
                       f"bytes_received={part.bytes_received}")
        if part.bytes_received > part.size:
            out.append(f"{label}: bytes_received={part.bytes_received} "
                       f"> datagram size {part.size}")
    return out


# ----------------------------------------------------------------------
# MAC
# ----------------------------------------------------------------------
def probe_mac(mac) -> List[str]:
    """An armed ACK wait must belong to an in-flight ACK-requesting
    frame, and the radio's ACK window (``Radio.ack_seq``, which its
    address filter matches Imm-ACKs against) must be open only inside
    one, on that frame's sequence number."""
    out: List[str] = []
    ev = mac._ack_timer_event
    armed = ev is not None and ev.pending
    op = mac._current
    if armed:
        if op is None:
            out.append("ack timer armed with no in-flight transmission")
        elif not op.frame.ack_request:
            out.append(f"ack timer armed for frame to {op.frame.dst} "
                       f"that did not request an ACK")
    seq = mac.radio.ack_seq
    if seq is not None:
        if not armed:
            out.append(f"radio's ack window open on seq {seq} with no "
                       f"ack timer armed")
        elif op is not None and seq != op.frame.seq:
            out.append(f"radio's ack window open on seq {seq}, in-flight "
                       f"frame has seq {op.frame.seq}")
    return out


# ----------------------------------------------------------------------
# kernel
# ----------------------------------------------------------------------
def probe_kernel(sim, last_now: float) -> List[str]:
    """Scheduler self-checks: monotonic clock, heap order, tombstones."""
    out: List[str] = []
    if sim.now < last_now:
        out.append(f"sim time went backwards: {sim.now} < {last_now}")
    queue = sim._queue
    n = len(queue)
    tombstones = 0
    for i in range(n):
        entry = queue[i]
        time_i, seq_i = entry[0], entry[1]
        # schedule_unref mixes slim handle-free 4-tuples
        # (time, seq, fn, args) into the heap; only full Event entries
        # can be tombstoned
        if len(entry) == 3 and entry[2].cancelled:
            tombstones += 1
        for child in (2 * i + 1, 2 * i + 2):
            if child < n and (time_i, seq_i) > queue[child][:2]:
                out.append(f"heap property violated at index {i}: "
                           f"({time_i}, {seq_i}) > child "
                           f"{queue[child][:2]}")
    if tombstones != sim.cancelled_count:
        out.append(f"tombstone accounting drift: cancelled_count="
                   f"{sim.cancelled_count} but heap holds {tombstones}")
    return out
