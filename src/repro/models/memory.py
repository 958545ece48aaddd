"""Memory-footprint model for TCPlp connection state (Tables 3-4).

The paper measures TCPlp's RAM cost per socket with the platform
linker; we reproduce the accounting by laying out the connection state
our engine actually keeps as C structs on a 32-bit ABI and summing
field sizes.  Two things the paper stresses fall out directly:

* an **active** socket costs a few hundred bytes of protocol state
  (≈1-2 % of a Cortex-M RAM) *before* buffers, and
* a **passive** socket (listener) costs almost nothing — port, accept
  callback, and a params pointer (§4.1's protocol-level split).

Buffers dominate overall usage (§4.3): with the default 4-segment
windows, send + receive buffers are ~3.6 KiB total; the in-place
reassembly queue adds only ``capacity/8`` bytes of bitmap instead of a
separate out-of-order buffer, and the zero-copy send path avoids a
packet-heap copy of every in-flight segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: (field, bytes) inventory of the protocol control block, mirroring
#: the state kept by :class:`repro.core.connection.TcpConnection` as a
#: packed C struct on a 32-bit microcontroller.
TCB_FIELDS: List[Tuple[str, int]] = [
    # connection identity
    ("local_port", 2), ("peer_port", 2), ("peer_addr", 16),
    ("state", 1), ("flags", 1),
    # send sequence space
    ("snd_una", 4), ("snd_nxt", 4), ("snd_max", 4), ("snd_wnd", 4),
    ("snd_wl1", 4), ("snd_wl2", 4), ("iss", 4),
    # receive sequence space
    ("irs", 4), ("rcv_nxt", 4),
    # negotiated options
    ("mss", 2), ("peer_mss", 2), ("sack_ok", 1), ("ts_ok", 1),
    ("ecn_ok", 1), ("dupack_count", 1),
    # congestion control
    ("cwnd", 4), ("ssthresh", 4), ("recover", 4),
    # RTT estimation
    ("srtt", 4), ("rttvar", 4), ("rto_shift", 1), ("rto_cur", 4),
    # timestamps
    ("ts_recent", 4), ("ts_recent_age", 4), ("last_ack_sent", 4),
    # SACK scoreboard (4 ranges of [start, end))
    ("sack_ranges", 4 * 8), ("sack_count", 1),
    # timers (tickless: deadline + callback each), 4 of them:
    # retransmit, delayed-ACK, persist, 2MSL
    ("timers", 4 * 8),
    # persist / probe state
    ("persist_shift", 1), ("fin_seq", 4), ("fin_flags", 1),
    # buffer descriptors (data areas counted separately)
    ("send_buf_desc", 12), ("recv_buf_desc", 16),
    ("reassembly_bitmap_desc", 8),
    # zero-copy send path: linked-list nodes referencing app data (§4.3.1)
    ("send_list_nodes", 2 * 12),
    # FreeBSD-isms the port keeps: a prebuilt header template for
    # header prediction, previous cwnd/ssthresh for bad-retransmit
    # recovery, timestamp offset, idle time
    ("header_template", 44), ("cwnd_prev", 4), ("ssthresh_prev", 4),
    ("ts_offset", 4), ("t_rcvtime", 4),
    # receive window bookkeeping
    ("rcv_wnd", 4), ("rcv_adv", 4),
    # socket-layer upcalls (connect/data/close/error/send-space/cleanup)
    ("upcalls", 6 * 4),
    # per-connection statistics exported to the application
    ("stats", 16),
    # network-layer binding (interface / next-header registration)
    ("netif_binding", 8),
]

#: listener state: port, backlog callback, params pointer
PASSIVE_FIELDS: List[Tuple[str, int]] = [
    ("local_port", 2), ("accept_cb", 4), ("params_ptr", 4), ("flags", 1),
]


def _struct_size(fields: List[Tuple[str, int]], align: int = 4) -> int:
    """Sum of field sizes rounded up to the ABI alignment."""
    total = sum(size for _, size in fields)
    return (total + align - 1) // align * align


@dataclass
class MemoryFootprint:
    """One platform's TCPlp memory budget (Table 3/4 shape)."""

    platform: str
    rom_protocol: int
    rom_support: int  # event scheduler / socket layer
    rom_api: int  # user library / posix layer
    ram_active_protocol: int
    ram_active_support: int
    ram_passive_protocol: int
    ram_passive_support: int

    @property
    def ram_active_total(self) -> int:
        return self.ram_active_protocol + self.ram_active_support

    def fraction_of_ram(self, platform_ram_bytes: int) -> float:
        """Active-socket state as a fraction of platform RAM (§4.2)."""
        return self.ram_active_total / platform_ram_bytes


def modelled_tcb_bytes() -> int:
    """Our engine's connection state as a 32-bit C struct."""
    return _struct_size(TCB_FIELDS)


def modelled_passive_bytes() -> int:
    """Our listener state as a 32-bit C struct."""
    return _struct_size(PASSIVE_FIELDS)


#: Paper-measured values (Tables 3 and 4), kept as reference points the
#: model is validated against.
PAPER_TINYOS = MemoryFootprint(
    platform="TinyOS/Firestorm",
    rom_protocol=21352, rom_support=1696, rom_api=5384,
    ram_active_protocol=488, ram_active_support=40 + 36,
    ram_passive_protocol=16, ram_passive_support=16 + 36,
)
PAPER_RIOT = MemoryFootprint(
    platform="RIOT/Hamilton",
    rom_protocol=19972, rom_support=6216, rom_api=5468,
    ram_active_protocol=364, ram_active_support=88 + 48,
    ram_passive_protocol=12, ram_passive_support=88 + 48,
)


def tcplp_memory_tinyos() -> MemoryFootprint:
    """Table 3 reference footprint (TinyOS port)."""
    return PAPER_TINYOS


def tcplp_memory_riot() -> MemoryFootprint:
    """Table 4 reference footprint (RIOT port)."""
    return PAPER_RIOT


def buffer_memory(mss: int, window_segments: int, reassembly_bitmap: bool = True) -> Dict[str, int]:
    """Data-buffer budget for a TCPlp socket (§4.3).

    The in-place reassembly queue (Fig. 1b) costs one bit per receive
    buffer byte instead of a second buffer; the zero-copy send path
    needs only the linked-list nodes, not a packet-heap copy.
    """
    recv = mss * window_segments
    send = mss * window_segments
    bitmap = (recv + 7) // 8 if reassembly_bitmap else 0
    naive_reassembly = recv if not reassembly_bitmap else 0
    return {
        "send_buffer": send,
        "recv_buffer": recv,
        "reassembly_bitmap": bitmap,
        "naive_reassembly_buffer": naive_reassembly,
        "total": send + recv + bitmap + naive_reassembly,
    }
