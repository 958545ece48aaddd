"""The TCP connection engine: FreeBSD protocol logic, TCPlp sizing.

One :class:`TcpConnection` is an *active socket* in the paper's §4.1
terminology; passive sockets (listeners) live in
:mod:`repro.core.socket_api` and hold almost no state.  The engine
implements:

* the RFC 793 state machine with challenge ACKs (RFC 5961),
* a sliding window over the §4.3 buffers,
* New Reno fast retransmit/recovery, driven by duplicate ACKs and,
  when negotiated, the SACK scoreboard,
* RFC 6298 retransmission timeouts with exponential backoff, capped at
  ``max_retransmits`` (12 — §9.4),
* TCP timestamps for RTT-on-retransmission (with Karn's algorithm as
  the fallback when timestamps are off),
* delayed ACKs (ACK every second segment or after 100 ms),
* zero-window probes on the persist timer,
* ECN (RFC 3168) when enabled — used with RED relays in Appendix A.

Feature flags in :class:`repro.core.params.TcpParams` switch these off
individually to express the simplified stacks of Table 1.
"""

from __future__ import annotations

import copy
import enum
from typing import Callable, Optional

from repro.core.buffers import ReceiveBuffer, SendBuffer
from repro.core.congestion import NewRenoCongestion
from repro.core.options import TcpOptions
from repro.core.params import TcpParams
from repro.core.rtt import RttEstimator
from repro.core.sack import SackScoreboard
from repro.core.segment import (
    FLAG_ACK,
    FLAG_CWR,
    FLAG_ECE,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    TCP_BASE_HEADER_BYTES,
    Segment,
)
from repro.core.seqnum import (
    HALF,
    MOD,
    seq_add,
    seq_ge,
    seq_gt,
    seq_le,
    seq_lt,
    seq_max,
    seq_sub,
)
from repro.net.ipv6 import ECN_CE, ECN_ECT0, ECN_NOT_ECT, PROTO_TCP
from repro.sim.timers import Timer
from repro.sim.trace import TraceRecorder

#: BSD option names -> (TcpParams field, invert) — ``invert`` flips the
#: boolean both ways (TCP_NODELAY is the negation of Nagle).
SOCKET_OPTION_ALIASES = {
    "SO_SNDBUF": ("send_buffer", False),
    "SO_RCVBUF": ("recv_buffer", False),
    "SO_KEEPALIVE": ("keepalive", False),
    "TCP_NODELAY": ("nagle", True),
    "TCP_MAXSEG": ("mss", False),
}


class _SocketOptions:
    """BSD setsockopt: ``set_option`` / ``get_option`` by
    :class:`TcpParams` field or :data:`SOCKET_OPTION_ALIASES` name.

    The params are copied on first write, so an option never leaks to
    sockets sharing a :class:`TcpParams`.  As with BSD, fields consumed
    at connect time (buffers, MSS) do not resize a live connection.
    """

    __slots__ = ()
    #: the attribute holding the TcpParams the options read and write
    _OPTIONS = "params"

    def _resolve_option(self, name: str):
        params = getattr(self, self._OPTIONS)
        field_name, invert = SOCKET_OPTION_ALIASES.get(name, (name, False))
        if field_name.startswith("_") or not hasattr(params, field_name):
            raise ValueError(
                f"unknown socket option {name!r}; use a TcpParams field "
                f"name or one of {sorted(SOCKET_OPTION_ALIASES)}"
            )
        return params, field_name, invert

    def set_option(self, name: str, value) -> None:
        """Set one socket option."""
        params, field_name, invert = self._resolve_option(name)
        if not self._params_owned:
            params = copy.copy(params)
            setattr(self, self._OPTIONS, params)
            self._params_owned = True
        setattr(params, field_name, (not value) if invert else value)
        self._option_set(field_name, value)

    def get_option(self, name: str):
        """Read one socket option (same names as :meth:`set_option`)."""
        params, field_name, invert = self._resolve_option(name)
        value = getattr(params, field_name)
        return (not value) if invert else value

    def _option_set(self, field_name: str, value) -> None:
        """Hook: a live socket reacts to a changed option."""


def node_instruments(metrics, node_id: int) -> tuple:
    """The node-labelled ``tcp.*`` gauges and histogram of ``metrics``.

    Every connection of a node shares them, so :class:`TcpStack`
    resolves the bundle once and hands it to each connection it makes
    (a lookup sorts its label set; a gateway opens two connections per
    client).  The order is the one ``TcpConnection.__init__`` unpacks.
    The ``tcp.*`` counters are read from the recorder's ``Counter``
    (:data:`repro.sim.metrics.COUNTER_FAMILIES`).
    """
    return (
        metrics.gauge("tcp.cwnd", node=node_id),
        metrics.gauge("tcp.ssthresh", node=node_id),
        metrics.gauge("tcp.srtt_seconds", node=node_id),
        metrics.gauge("tcp.rto_seconds", node=node_id),
        metrics.histogram("tcp.rtt_seconds", node=node_id),
    )


class TcpState(enum.Enum):
    """RFC 793 connection states."""

    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    SYN_RECEIVED = "syn-received"
    ESTABLISHED = "established"
    FIN_WAIT_1 = "fin-wait-1"
    FIN_WAIT_2 = "fin-wait-2"
    CLOSE_WAIT = "close-wait"
    CLOSING = "closing"
    LAST_ACK = "last-ack"
    TIME_WAIT = "time-wait"


_ESTABLISHED = TcpState.ESTABLISHED
_CLOSED = TcpState.CLOSED
#: the flags of a header-predicted segment, PSH or not
_ACK_PSH = FLAG_ACK | FLAG_PSH


class TcpConnection(_SocketOptions):
    """One TCP connection endpoint (an active socket)."""

    # Slotted: past 29 attributes an instance dict stops sharing its
    # keys (CPython 3.11), so each connection would carry ~1.6 kB of
    # private dict.  Grouped as ``__init__`` sets them.
    __slots__ = (
        "sim", "network", "local_id", "local_port", "peer_id", "peer_port",
        "params", "_params_owned", "dst_is_cloud", "trace", "cpu",
        "on_cleanup", "ts_clock",
        "state", "send_buf", "recv_buf", "rtt", "cc", "scoreboard",
        # send / receive sequence state
        "iss", "snd_una", "snd_nxt", "snd_max", "snd_wnd", "snd_wl1",
        "snd_wl2", "irs", "rcv_nxt",
        # negotiated features
        "mss", "sack_enabled", "ts_enabled", "ecn_enabled", "ts_recent",
        # loss recovery, ECN and FIN state
        "dupacks", "rto_shift", "_timed_seq",
        "_timed_at", "_ece_pending", "_cwr_pending", "_ecn_response_seq",
        "_fin_pending", "_fin_seq", "_peer_fin", "_peer_offered_ecn",
        # timers
        "rexmt_timer", "delack_timer", "persist_timer", "timewait_timer",
        "keepalive_timer", "_persist_shift", "_last_activity",
        "_keepalive_unanswered", "_challenge_window_start",
        "_challenges_in_window", "_badrexmit",
        # application interface
        "on_connect", "on_data", "on_peer_close", "on_close", "on_error",
        "on_send_space", "on_awaiting_ack", "_awaiting_ack",
        "_last_advertised_window", "bytes_delivered",
        # observability
        "_bus", "_counts", "_rexmit_kind", "_g_cwnd", "_g_ssthresh",
        "_g_srtt", "_g_rto", "_h_rtt",
    )

    def __init__(
        self,
        sim,
        network,
        local_id: int,
        local_port: int,
        peer_id: int,
        peer_port: int,
        params: Optional[TcpParams] = None,
        dst_is_cloud: bool = False,
        iss: int = 1000,
        trace: Optional[TraceRecorder] = None,
        cpu=None,
        on_cleanup: Optional[Callable[["TcpConnection"], None]] = None,
        instruments: Optional[tuple] = None,
    ):
        self.sim = sim
        self.network = network
        self.local_id = local_id
        self.local_port = local_port
        self.peer_id = peer_id
        self.peer_port = peer_port
        self.params = params or TcpParams()
        #: set_option copies params on first write (never mutate a
        #: TcpParams instance shared with other sockets)
        self._params_owned = False
        self.dst_is_cloud = dst_is_cloud
        self.trace = trace or TraceRecorder()
        self.cpu = cpu
        self.on_cleanup = on_cleanup
        #: optional per-node timestamp clock (sim-seconds -> 32-bit ms);
        #: fault injection installs a skewed clock on the network layer
        self.ts_clock: Optional[Callable[[float], int]] = getattr(
            network, "ts_clock", None)

        p = self.params
        self.state = TcpState.CLOSED
        self.send_buf = SendBuffer(p.send_buffer)
        self.recv_buf = ReceiveBuffer(p.recv_buffer)
        self.rtt = RttEstimator(p.rto_initial, p.rto_min, p.rto_max)
        self.cc = NewRenoCongestion(
            p.mss, p.send_buffer, enabled=p.congestion_control, trace=self.trace
        )
        self.scoreboard = SackScoreboard()

        # send sequence state
        self.iss = iss
        self.snd_una = iss
        self.snd_nxt = iss
        self.snd_max = iss  # highest sequence ever sent
        self.snd_wnd = 0
        self.snd_wl1 = 0
        self.snd_wl2 = 0

        # receive sequence state
        self.irs = 0
        self.rcv_nxt = 0

        # negotiated features
        self.mss = p.mss
        self.sack_enabled = False
        self.ts_enabled = False
        self.ecn_enabled = False
        self.ts_recent = 0

        # loss recovery state
        self.dupacks = 0
        self.rto_shift = 0
        self._timed_seq: Optional[int] = None  # Karn fallback timing
        self._timed_at = 0.0

        # ECN state
        self._ece_pending = False  # receiver: echo ECE until CWR seen
        self._cwr_pending = False  # sender: set CWR on next data segment
        self._ecn_response_seq = iss  # once-per-window ECE response

        # FIN bookkeeping
        self._fin_pending = False
        self._fin_seq: Optional[int] = None
        self._peer_fin: Optional[int] = None  # its sequence number
        self._peer_offered_ecn = False

        # timers
        self.rexmt_timer = Timer(sim, self._on_rexmt_timeout, "tcp-rexmt")
        self.delack_timer = Timer(sim, self._on_delack_timeout, "tcp-delack")
        self.persist_timer = Timer(sim, self._on_persist_timeout, "tcp-persist")
        self.timewait_timer = Timer(sim, self._on_timewait_timeout, "tcp-2msl")
        self.keepalive_timer = Timer(sim, self._on_keepalive, "tcp-keepalive")
        self._persist_shift = 0
        self._last_activity = sim.now
        self._keepalive_unanswered = 0

        # RFC 5961 challenge-ACK rate limiting
        self._challenge_window_start = sim.now
        self._challenges_in_window = 0

        # FreeBSD bad-retransmit detection (paper footnote 8)
        self._badrexmit: Optional[dict] = None

        # application interface
        self.on_connect: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_peer_close: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_error: Optional[Callable[[str], None]] = None
        self.on_send_space: Optional[Callable[[], None]] = None
        #: §9.2 hook: True while we are waiting for an ACK (fast poll)
        self.on_awaiting_ack: Optional[Callable[[bool], None]] = None
        self._awaiting_ack = False

        self._last_advertised_window = p.recv_buffer
        self.bytes_delivered = 0

        # observability (no-op when the simulator carries no registry)
        self._bus = getattr(sim, "trace_bus", None)
        #: the live ``tcp.*`` counts: the per-segment path adds with one
        #: dict store (as MacLayer does) instead of ``Counter.incr``
        self._counts = self.trace.counters._counts
        metrics = getattr(sim, "metrics", None)
        self._rexmit_kind = "rto"
        self._g_cwnd = None
        if metrics is not None:
            (self._g_cwnd, self._g_ssthresh, self._g_srtt, self._g_rto,
             self._h_rtt) = instruments
        if metrics is not None or self._bus is not None:
            self.cc.on_window_change = self._on_window_change
            self.rtt.on_update = self._on_rtt_update

    # ------------------------------------------------------------------
    # metrics observers (wired to cc/rtt only when observability is on)
    # ------------------------------------------------------------------
    def _on_window_change(self, now: float, cwnd: int, ssthresh: int) -> None:
        if self._g_cwnd is not None:
            self._g_cwnd.set(cwnd)
            self._g_ssthresh.set(ssthresh)
        if self._bus is not None:
            self._bus.emit("tcp", self.local_id, "cwnd",
                           cwnd=cwnd, ssthresh=ssthresh)

    def _on_rtt_update(self, sample: float, srtt: float, rto: float) -> None:
        if self._g_cwnd is not None:
            self._h_rtt.observe(sample)
            self._g_srtt.set(srtt)
            self._g_rto.set(rto)

    # ==================================================================
    # small helpers
    # ==================================================================
    def _charge_cpu(self) -> None:
        if self.cpu is not None:
            self.cpu.charge(self.params.cpu_per_segment)

    def _now_ts(self) -> int:
        if self.ts_clock is not None:
            return self.ts_clock(self.sim.now)
        return int(self.sim.now * 1000) & 0xFFFFFFFF

    def _flight_size(self) -> int:
        """Bytes sent but not yet acknowledged."""
        return seq_sub(self.snd_max, self.snd_una)

    def _unsent_bytes(self) -> int:
        return self.send_buf.used - seq_sub(self.snd_nxt, self.snd_una)

    #: the states that exchange data, and those that may still send
    _OPEN = (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT,
             TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2)
    _CAN_OUTPUT = _OPEN + (TcpState.CLOSING, TcpState.LAST_ACK)

    @property
    def is_open(self) -> bool:
        """True while data can still be exchanged."""
        return self.state in self._OPEN

    def _set_awaiting_ack(self, value: bool) -> None:
        if value != self._awaiting_ack:
            self._awaiting_ack = value
            if self.on_awaiting_ack is not None:
                self.on_awaiting_ack(value)

    # ==================================================================
    # application API
    # ==================================================================
    def connect(self) -> None:
        """Active open: send SYN."""
        if self.state is not TcpState.CLOSED:
            raise RuntimeError("connect() on a non-closed connection")
        self._open(TcpState.SYN_SENT)
        self._set_awaiting_ack(True)

    def accept_syn(self, seg: Segment, packet) -> None:
        """Passive open: a listener handed us a SYN."""
        self._take_peer_syn(seg, packet)
        self._update_window(seg)
        self._open(TcpState.SYN_RECEIVED)

    def _open(self, state: TcpState) -> None:
        """Both opens: our SYN takes sequence number ``iss``."""
        self.state = state
        self.snd_una = self.iss
        self.snd_nxt = self.snd_max = seq_add(self.iss, 1)
        self._send_syn()
        self.rexmt_timer.start(self.rtt.rto)

    def send(self, data: bytes) -> int:
        """Queue application data; returns bytes accepted."""
        if self.state in (TcpState.CLOSED, TcpState.CLOSING,
                          TcpState.LAST_ACK, TcpState.TIME_WAIT):
            raise RuntimeError(f"send() in state {self.state}")
        if self._fin_pending:
            raise RuntimeError("send() after close()")
        accepted = self.send_buf.write(data)
        if accepted and self.state in self._OPEN:
            self.output()
        return accepted

    def recv(self, max_bytes: Optional[int] = None) -> bytes:
        """Read buffered in-sequence data (when no on_data callback)."""
        data = self.recv_buf.read(max_bytes)
        self._maybe_send_window_update()
        return data

    def close(self) -> None:
        """Graceful close: FIN after all queued data."""
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT):
            return
        if self.state is TcpState.SYN_SENT:
            self._teardown()
            return
        # in SYN_RECEIVED the FIN waits for _establish (RFC 793 §3.9)
        self._fin_pending = True
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
        self.output()

    def abort(self) -> None:
        """Hard close: send RST and drop all state."""
        if self.state not in (TcpState.CLOSED, TcpState.TIME_WAIT):
            self._emit(flags=FLAG_RST | FLAG_ACK)
        self._teardown()

    def _option_set(self, field_name: str, value) -> None:
        if field_name == "keepalive" and value and self.is_open:
            self._arm_keepalive()

    # ==================================================================
    # output engine
    # ==================================================================
    def output(self) -> None:
        """Send whatever the windows allow (data, FIN, probes)."""
        if self.state not in self._CAN_OUTPUT:
            return
        window = min(self.snd_wnd, self.cc.window())
        mss = self.mss
        send_buf = self.send_buf
        sent_something = False
        while True:
            in_flight = seq_sub(self.snd_nxt, self.snd_una)
            usable = window - in_flight
            unsent = send_buf.used - in_flight
            if unsent <= 0 or usable <= 0:
                break
            length = min(mss, unsent, usable)
            # Nagle: hold sub-MSS segments while data is in flight
            if (
                self.params.nagle
                and length < mss
                and length == unsent
                and in_flight > 0
                and not self._fin_pending
            ):
                break
            data = send_buf.peek(in_flight, length)
            seq = self.snd_nxt
            self._send_data_segment(seq, data)
            self.snd_nxt = nxt = (seq + len(data)) % MOD
            if (self.snd_max - nxt) % MOD >= HALF:  # seq_max
                self.snd_max = nxt
            sent_something = True
        # FIN once all data is out (FIN_WAIT_1, LAST_ACK, or CLOSING
        # when the peer's FIN overtook our unsent one), and again when a
        # timeout's go-back-N has resent the data before it
        if (
            self._fin_pending
            and self._unsent_bytes() == 0
            and (self._fin_seq is None or self.snd_nxt == self._fin_seq)
        ):
            self._fin_seq = self.snd_nxt
            self._emit(flags=FLAG_FIN | FLAG_ACK, seq=self.snd_nxt)
            self.snd_nxt = seq_add(self.snd_nxt, 1)
            self.snd_max = seq_max(self.snd_max, self.snd_nxt)
            sent_something = True
        if sent_something:
            if not self.rexmt_timer.armed:
                self.rexmt_timer.start(self._current_rto())
            self.persist_timer.stop()
            if not self._awaiting_ack:
                self._set_awaiting_ack(True)
        elif (
            self.snd_wnd == 0
            and self._unsent_bytes() > 0
            and self._flight_size() == 0
        ):
            # zero window with data waiting: persist
            self.persist_timer.start_if_idle(self._persist_interval())

    def _current_rto(self) -> float:
        return self.rtt.backed_off(self.rto_shift)

    def _persist_interval(self) -> float:
        p = self.params
        interval = self.rtt.rto * (1 << min(self._persist_shift, 6))
        return min(p.persist_max, max(p.persist_min, interval))

    def _window_reopened(self) -> None:
        """The send window reopened (every path goes through
        _update_window): the persist backoff ends with its episode, or
        the next episode's first probe waits up to 64x persist_min."""
        self._persist_shift = 0
        self.persist_timer.stop()

    # ------------------------------------------------------------------
    # segment construction
    # ------------------------------------------------------------------
    def _syn_options(self) -> TcpOptions:
        p = self.params
        opts = TcpOptions(mss=p.mss)
        if p.use_sack:
            opts.sack_permitted = True
        if p.use_timestamps:
            opts.ts_val = self._now_ts()
            opts.ts_ecr = self.ts_recent
        return opts

    def _advertised_window(self) -> int:
        return min(0xFFFF, self.recv_buf.window)

    def _emit(
        self,
        flags: int,
        seq: Optional[int] = None,
        data: bytes = b"",
        options: Optional[TcpOptions] = None,
        is_retransmit: bool = False,
    ) -> None:
        """Build and send one segment."""
        if seq is None:
            # a bare ACK or RST carries snd_max, as in FreeBSD's
            # tcp_output: after a timeout rewinds snd_nxt the peer may
            # hold data past it and would find snd_nxt unacceptable
            seq = self.snd_max
        if options is not None:
            opts = options
        elif self.ts_enabled and self.params.use_timestamps:
            clock = self.ts_clock
            now = self.sim.now
            opts = TcpOptions(
                ts_val=(clock(now) if clock is not None
                        else int(now * 1000) & 0xFFFFFFFF),
                ts_ecr=self.ts_recent)
        else:
            opts = TcpOptions()
        recv_buf = self.recv_buf
        if flags & FLAG_ACK and self.sack_enabled and recv_buf.out_of_order > 0:
            opts.sack_blocks = recv_buf.sack_ranges(self.rcv_nxt)
        if self._ece_pending and self.ecn_enabled:
            flags |= FLAG_ECE
        if self._cwr_pending and data:
            flags |= FLAG_CWR
            self._cwr_pending = False
        window = recv_buf.window
        if window > 0xFFFF:
            window = 0xFFFF
        seg = Segment(self.local_port, self.peer_port, seq,
                      self.rcv_nxt if flags & FLAG_ACK else 0, flags, window,
                      opts, data)
        self._last_advertised_window = window
        ecn_bits = ECN_NOT_ECT
        if self.ecn_enabled and data:
            ecn_bits = ECN_ECT0
        if self.cpu is not None:
            self.cpu.charge(self.params.cpu_per_segment)
        counts = self._counts
        counts["tcp.segs_sent"] += 1
        if opts.sack_blocks:
            counts["tcp.sack_blocks_sent"] += len(opts.sack_blocks)
        if data:
            counts["tcp.data_segs_sent"] += 1
            if is_retransmit:
                counts["tcp.retransmits"] += 1
                counts[f"tcp.retransmits.{self._rexmit_kind}"] += 1
                if self._bus is not None:
                    self._bus.emit("tcp", self.local_id, "retransmit",
                                   seq=seq, kind=self._rexmit_kind,
                                   bytes=len(data))
        # the size is seg.wire_bytes, less its two calls
        self.network.send(
            self.peer_id, PROTO_TCP, seg,
            TCP_BASE_HEADER_BYTES + opts.wire_bytes() + len(data),
            ecn_bits, self.dst_is_cloud)

    def _send_syn(self) -> None:
        """(Re)send our SYN: a SYN-ACK in SYN_RECEIVED.  Only the ECN
        negotiation flags (RFC 3168 §6.1.1) are particular to it."""
        flags = FLAG_SYN
        if self.state is TcpState.SYN_RECEIVED:
            flags |= FLAG_ACK
            if self.params.ecn and self._peer_offered_ecn:
                flags |= FLAG_ECE
                self.ecn_enabled = True
        elif self.params.ecn:
            flags |= FLAG_ECE | FLAG_CWR
        self._emit(flags, seq=self.iss, options=self._syn_options())

    def _send_data_segment(self, seq: int, data: bytes, is_retransmit: bool = False) -> None:
        flags = FLAG_ACK
        # PSH on the last segment of currently-queued data
        if self.send_buf.used <= (seq + len(data) - self.snd_una) % MOD < HALF:
            flags |= FLAG_PSH
        if self._timed_seq is None and not is_retransmit:
            self._timed_seq = seq
            self._timed_at = self.sim.now
        self._emit(flags, seq, data, None, is_retransmit)

    def _send_ack_now(self) -> None:
        self.delack_timer.stop()
        self._emit(FLAG_ACK)

    def _challenge_ack(self) -> None:
        """RFC 5961 challenge ACK, rate-limited per connection."""
        now = self.sim.now
        if now - self._challenge_window_start >= 1.0:
            self._challenge_window_start = now
            self._challenges_in_window = 0
        if self._challenges_in_window >= self.params.challenge_ack_limit:
            self._counts["tcp.challenge_acks_suppressed"] += 1
            return
        self._challenges_in_window += 1
        self._counts["tcp.challenge_acks"] += 1
        self._send_ack_now()

    # ==================================================================
    # timers
    # ==================================================================
    def _on_rexmt_timeout(self) -> None:
        if self.state is TcpState.CLOSED:
            return
        if self.state in (TcpState.SYN_SENT, TcpState.SYN_RECEIVED):
            self.rto_shift += 1
            if self.rto_shift > self.params.max_syn_retries:
                self._error_out("connection timed out (SYN)")
                return
            self._counts["tcp.syn_retransmits"] += 1
            self._send_syn()
            self.rexmt_timer.start(self._current_rto())
            return
        self.rto_shift += 1
        if self.rto_shift > self.params.max_retransmits:
            self._error_out("connection timed out (data)")
            return
        self._counts["tcp.rto_events"] += 1
        if self._bus is not None:
            self._bus.emit("tcp", self.local_id, "rto",
                           shift=self.rto_shift, snd_una=self.snd_una)
        self._rexmit_kind = "rto"
        if self.params.bad_rexmit_detection and self.ts_enabled:
            # snapshot so a spurious timeout can be undone (footnote 8)
            self._badrexmit = {
                "cwnd": self.cc.cwnd,
                "ssthresh": self.cc.ssthresh,
                "ts": self._now_ts(),
            }
        self.cc.on_timeout(self._flight_size(), self.sim.now)
        self.scoreboard.clear()
        self.dupacks = 0
        self._timed_seq = None  # Karn: do not time retransmitted data
        # go-back-N: rewind and retransmit from the oldest unacked byte
        self.snd_nxt = self.snd_una
        self._retransmit_head()
        self.rexmt_timer.start(self._current_rto())

    def _retransmit_head(self) -> None:
        """Retransmit one MSS from snd_una (timeout or fast retransmit)."""
        pending = self.send_buf.used
        if pending > 0:
            length = min(self.mss, pending)
            data = self.send_buf.peek(0, length)
            self._send_data_segment(self.snd_una, data, is_retransmit=True)
            self.snd_nxt = seq_max(self.snd_nxt, seq_add(self.snd_una, len(data)))
        elif self._fin_pending:
            self._fin_seq = self.snd_una
            self._emit(flags=FLAG_FIN | FLAG_ACK, seq=self.snd_una)
            self.snd_nxt = seq_max(self.snd_nxt, seq_add(self.snd_una, 1))
        else:
            return
        self.snd_max = seq_max(self.snd_max, self.snd_nxt)

    def _on_delack_timeout(self) -> None:
        if self.state is not TcpState.CLOSED:
            self._emit(flags=FLAG_ACK)

    def _on_persist_timeout(self) -> None:
        # LAST_ACK and CLOSING may still hold data behind a zero window;
        # a reopen stops this timer (_window_reopened), so it only fires
        # on a closed window
        if self.state not in self._CAN_OUTPUT:
            return
        # window probe: one byte past the edge
        self._counts["tcp.zero_window_probes"] += 1
        if self._bus is not None:
            self._bus.emit("tcp", self.local_id, "zero_window_probe",
                           shift=self._persist_shift)
        # the timer runs only while data waits unsent (output)
        data = self.send_buf.peek(seq_sub(self.snd_nxt, self.snd_una), 1)
        self._emit(flags=FLAG_ACK, seq=self.snd_nxt, data=data)
        self._persist_shift += 1
        self.persist_timer.start(self._persist_interval())

    def _on_timewait_timeout(self) -> None:
        self._teardown()

    def _on_keepalive(self) -> None:
        """Probe an idle connection; tear it down after enough silence."""
        if self.state is not TcpState.ESTABLISHED or not self.params.keepalive:
            return
        idle = self.sim.now - self._last_activity
        if idle < self.params.keepalive_idle:
            # activity since the probe was armed; wait out the remainder
            self.keepalive_timer.start(self.params.keepalive_idle - idle)
            return
        if self._keepalive_unanswered >= self.params.keepalive_probes:
            self._error_out("connection timed out (keepalive)")
            return
        self._keepalive_unanswered += 1
        self._counts["tcp.keepalive_probes"] += 1
        # garbage-byte-style probe: one sequence number below snd_nxt is
        # outside the peer's window, so it must answer with an ACK
        self._emit(flags=FLAG_ACK, seq=(self.snd_nxt - 1) % (1 << 32))
        self.keepalive_timer.start(self.params.keepalive_interval)

    def _arm_keepalive(self) -> None:
        if self.params.keepalive:
            self.keepalive_timer.start(self.params.keepalive_idle)

    # ==================================================================
    # input engine
    # ==================================================================
    def on_segment(self, seg: Segment, packet) -> None:
        """Process one inbound segment.

        FreeBSD's header prediction (tcp_input.c) picks out the common
        case: established, in order, a bare ACK (PSH aside), no
        retransmission under way (``snd_nxt == snd_max``), the same
        nonzero window, no reassembly, no recovery and no SACK option;
        then either a pure ACK for new data, or in-order data that fits
        the receive window and leaves the ACK where it was.  Such a
        segment takes the straight line below: the state updates of
        :meth:`_full_input`, in its order, minus the checks the
        predicate has decided.  Every other segment takes the full path.
        """
        if not (self.state is _ESTABLISHED and seg.seq == self.rcv_nxt
                and (seg.flags | FLAG_PSH) == _ACK_PSH
                and self.snd_nxt == self.snd_max
                and seg.window == self.snd_wnd != 0
                and not self.recv_buf.out_of_order
                and not self.cc.in_recovery
                and not seg.options.sack_blocks):
            self._full_input(seg, packet)
            return
        data = seg.data
        if data:
            if seg.ack != self.snd_una or len(data) > self.recv_buf.window:
                self._full_input(seg, packet)
                return
        elif not (0 < (seg.ack - self.snd_una) % MOD < HALF  # seq_gt
                  and (self.snd_max - seg.ack) % MOD <= HALF):  # seq_le
            self._full_input(seg, packet)  # not an ACK for new data
            return
        p = self.params
        counts = self._counts
        if p.header_prediction:  # the full path's _header_predicted holds
            counts["tcp.header_predictions"] += 1
            if self.cpu is not None:
                self.cpu.charge(p.cpu_per_segment * p.cpu_fast_path_factor)
        elif self.cpu is not None:
            self.cpu.charge(p.cpu_per_segment)
        counts["tcp.segs_rcvd"] += 1
        self._last_activity = self.sim.now
        self._keepalive_unanswered = 0
        opts = seg.options
        if self.ts_enabled and opts.ts_val is not None:
            self.ts_recent = opts.ts_val
        # _process_ack's window update: the window is the same, so only
        # snd_wl1/snd_wl2 can move, and nothing reopens
        if ((self.snd_wl1 - seg.seq) % MOD >= HALF  # seq_lt
                or (self.snd_wl1 == seg.seq
                    and (seg.ack - self.snd_wl2) % MOD <= HALF)):  # seq_le
            self.snd_wl1 = seg.seq
            self.snd_wl2 = seg.ack
        if data:
            # _process_ack: an unchanged ACK on data is no duplicate ACK
            self._process_payload(seg, packet)
        else:
            self._ack_advance(seg)
            if self.state is _CLOSED:  # on_send_space closed it
                return
        if self._peer_fin == self.rcv_nxt:  # a FIN waiting for this data
            self._process_fin(seg)
        self._set_awaiting_ack(  # _flight_size() > 0
            0 < (self.snd_max - self.snd_una) % MOD < HALF)

    def _full_input(self, seg: Segment, packet) -> None:
        """RFC 793's segment arrival steps, for any segment."""
        if self.params.header_prediction and self._header_predicted(seg):
            # §4.1: the common-case segment costs a fraction of the
            # full processing in simulated CPU time
            self._counts["tcp.header_predictions"] += 1
            if self.cpu is not None:
                self.cpu.charge(
                    self.params.cpu_per_segment * self.params.cpu_fast_path_factor
                )
        else:
            self._charge_cpu()
        self._counts["tcp.segs_rcvd"] += 1
        self._last_activity = self.sim.now
        self._keepalive_unanswered = 0
        if self.state is TcpState.CLOSED:
            return
        if self.state is TcpState.SYN_SENT:
            self._input_syn_sent(seg, packet)
            return
        if self.state is TcpState.TIME_WAIT:
            if seg.fin:
                self._send_ack_now()
            return

        # -- sequence acceptability (RFC 793 p.69) ----------------------
        acceptable = self._segment_acceptable(seg)

        # -- RST / SYN (RFC 5961 challenge-ACK discipline) --------------
        if seg.rst:
            if not acceptable:
                return
            if seg.seq == self.rcv_nxt:
                self._error_out("connection reset by peer")
            else:
                self._challenge_ack()
            return
        if seg.syn:
            self._challenge_ack()
            return

        # -- timestamp bookkeeping, before anything answers a duplicate:
        # a retransmission whose first ACK was lost must be echoed, or
        # the sender's next RTT sample spans every backoff (§9.4) ------
        if (self.ts_enabled and seg.options.has_timestamps
                and seq_le(seg.seq, self.rcv_nxt)):
            self.ts_recent = seg.options.ts_val

        if not acceptable:
            self._challenge_ack()
            # A duplicate wholly left of the window still carries a live
            # ACK: FreeBSD drops its data and keeps the ACK (tcp_input's
            # "todrop").  Dropping both deadlocks two ends whose window
            # probes were each accepted by the other.
            if (seg.ack_flag and self.state is not TcpState.SYN_RECEIVED
                    and seq_le(seq_add(seg.seq, seg.seg_len), self.rcv_nxt)):
                self._process_ack(seg)
            return
        if not seg.ack_flag:
            return

        if self.state is TcpState.SYN_RECEIVED:
            if not (seq_gt(seg.ack, self.snd_una)
                    and seq_le(seg.ack, self.snd_max)):
                # an old duplicate or forged SYN began this handshake:
                # reset it (RFC 793 §3.4, figure 10)
                self._emit(flags=FLAG_RST, seq=seg.ack)
                return
            self._update_window(seg)
            self._ack_advance(seg)
            self._establish()

        self._process_ack(seg)
        if self.state is TcpState.CLOSED:
            return
        self._process_payload(seg, packet)
        self._process_fin(seg)
        self._set_awaiting_ack(self._flight_size() > 0)

    # ------------------------------------------------------------------
    def _header_predicted(self, seg: Segment) -> bool:
        """The simulated CPU model's header prediction (§4.1).

        Either the next expected in-order data segment with a
        non-advancing ACK, or a pure ACK for new data, with no flag but
        ACK and PSH and an unchanged window.  Looser than FreeBSD's
        predicate (``on_segment``): it requires neither the ACK flag, a
        nonzero window, ``snd_nxt == snd_max``, an empty reassembly
        queue, being out of recovery nor the absence of a SACK option,
        so it counts more segments as predicted and charges them less
        CPU than FreeBSD would (docs/robustness.md §5).
        """
        if self.state is not TcpState.ESTABLISHED:
            return False
        if seg.flags & ~(FLAG_ACK | FLAG_PSH):
            return False
        if seg.window != self.snd_wnd:
            return False
        if seg.seq != self.rcv_nxt:
            return False
        if seg.data:
            return seg.ack == self.snd_una
        return seq_gt(seg.ack, self.snd_una) and seq_le(seg.ack, self.snd_max)

    def _segment_acceptable(self, seg: Segment) -> bool:
        wnd = self.recv_buf.window
        seg_len = seg.seg_len
        if seg_len == 0 and wnd == 0:
            return seg.seq == self.rcv_nxt
        if seg_len == 0:
            return seq_le(self.rcv_nxt, seg.seq) and seq_lt(
                seg.seq, seq_add(self.rcv_nxt, wnd)
            )
        if wnd == 0:
            return False
        return seq_lt(seg.seq, seq_add(self.rcv_nxt, wnd)) and seq_gt(
            seq_add(seg.seq, seg_len), self.rcv_nxt
        )

    # ------------------------------------------------------------------
    def _input_syn_sent(self, seg: Segment, packet) -> None:
        if seg.rst:
            if seg.ack_flag and seg.ack == self.snd_nxt:
                self._error_out("connection refused")
            return
        if seg.ack_flag and (
            seq_le(seg.ack, self.iss) or seq_gt(seg.ack, self.snd_max)
        ):
            self._emit(flags=FLAG_RST, seq=seg.ack)
            return
        if not seg.syn:
            return
        self._take_peer_syn(seg, packet)
        if seg.ack_flag:
            # normal SYN-ACK
            self.snd_una = seg.ack
            self.rto_shift = 0
            self._update_window(seg)
            if self.params.ecn and seg.ece and not seg.cwr:
                self.ecn_enabled = True
            self.rexmt_timer.stop()
            self._set_awaiting_ack(False)
            self._send_ack_now()
            self._establish()
        else:
            # simultaneous open
            self.state = TcpState.SYN_RECEIVED
            self._send_syn()

    def _establish(self) -> None:
        """Our SYN is acknowledged, by the SYN-ACK or by the handshake's
        last ACK: enter the data phase.  A close() issued in
        SYN_RECEIVED enters FIN_WAIT_1 here (RFC 793 §3.9), and its FIN
        follows whatever data was queued before it."""
        self.state = (TcpState.FIN_WAIT_1 if self._fin_pending
                      else TcpState.ESTABLISHED)
        self._arm_keepalive()
        if self.on_connect is not None:
            self.on_connect()
        self.output()

    def _take_peer_syn(self, seg: Segment, packet) -> None:
        """The peer's SYN: its sequence space and its options."""
        self.irs = seg.seq
        self.rcv_nxt = seq_add(seg.seq, 1)
        p = self.params
        if seg.options.mss is not None:
            self.mss = min(p.mss, seg.options.mss)
            self.cc.mss = self.mss
        self.sack_enabled = p.use_sack and seg.options.sack_permitted
        self.ts_enabled = p.use_timestamps and seg.options.has_timestamps
        if self.ts_enabled:
            self.ts_recent = seg.options.ts_val
        self._peer_offered_ecn = p.ecn and seg.ece and seg.cwr

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def _update_window(self, seg: Segment) -> bool:
        """Take the peer's window from ``seg``; True if it reopened a
        zero window."""
        reopened = self.snd_wnd == 0 and seg.window > 0
        self.snd_wnd = seg.window
        self.snd_wl1 = seg.seq
        self.snd_wl2 = seg.ack
        if reopened:
            self._window_reopened()
        return reopened

    def _process_ack(self, seg: Segment) -> None:
        # window update (RFC 793 p.72)
        if (seq_lt(self.snd_wl1, seg.seq) or (
            self.snd_wl1 == seg.seq and seq_le(self.snd_wl2, seg.ack)
        )) and self._update_window(seg):
            self.output()

        if self.sack_enabled and seg.options.sack_blocks:
            self.scoreboard.update(seg.options.sack_blocks, self.snd_una)

        # ECN echo: congestion response once per window
        if (
            self.ecn_enabled
            and seg.ece
            and seq_ge(self.snd_una, self._ecn_response_seq)
        ):
            self._counts["tcp.ecn_responses"] += 1
            self.cc.on_ecn_echo(self._flight_size(), self.sim.now)
            self._ecn_response_seq = self.snd_max
            self._cwr_pending = True

        if seq_gt(seg.ack, self.snd_max):
            # acks something we never sent: a rate-limited challenge ACK
            # (RFC 5961 §5.2), or two such ends ACK each other forever
            self._challenge_ack()
            return
        if seq_gt(seg.ack, self.snd_una):
            self._ack_advance(seg)
        elif seg.ack == self.snd_una:
            self._maybe_duplicate_ack(seg)

    def _ack_advance(self, seg: Segment) -> None:
        """Take an ACK for new data: every caller has checked that
        ``seg.ack`` is past ``snd_una``."""
        ack = seg.ack
        acked = (ack - self.snd_una) % MOD
        fin_acked = (
            self._fin_seq is not None
            and 0 < (ack - self._fin_seq) % MOD < HALF  # seq_gt
        )
        # the SYN (acked in SYN_RECEIVED) and the FIN each take one
        # sequence number that is not data
        data_acked = (acked - (self.state is TcpState.SYN_RECEIVED)
                      - fin_acked)
        send_buf = self.send_buf
        if data_acked > 0:
            send_buf.ack(data_acked)
            self._counts["tcp.bytes_acked"] += data_acked
        self.snd_una = ack
        if (self.snd_nxt - ack) % MOD >= HALF:  # seq_lt(snd_nxt, ack)
            self.snd_nxt = ack
        self.scoreboard.advance(ack)

        # FreeBSD bad-retransmit detection: the first ACK after an RTO
        # echoing a timestamp *older* than the retransmission answers
        # the original transmission — the timeout was spurious, so the
        # congestion response is undone (paper footnote 8).
        if self._badrexmit is not None:
            echo = seg.options.ts_ecr if seg.options.has_timestamps else None
            # Presence check, not truthiness: a legitimate echo of 0 at
            # the 32-bit timestamp wrap must still trigger the undo.
            if echo is not None \
                    and ((self._badrexmit["ts"] - echo) & 0xFFFFFFFF) < (1 << 28) \
                    and echo != self._badrexmit["ts"]:
                self._counts["tcp.bad_retransmits_undone"] += 1
                self.cc.cwnd = self._badrexmit["cwnd"]
                self.cc.ssthresh = self._badrexmit["ssthresh"]
                self.cc._record(self.sim.now)
            self._badrexmit = None

        # RTT sampling
        self._sample_rtt(seg)
        self.rto_shift = 0

        # recovery bookkeeping
        cc = self.cc
        if cc.in_recovery:
            if seq_ge(ack, cc.recover):
                cc.exit_recovery(self.sim.now)
                self.dupacks = 0
            else:
                # NewReno partial ACK: retransmit the next hole
                self._counts["tcp.partial_acks"] += 1
                cc.on_partial_ack(acked, self.sim.now)
                self._fast_retransmit_hole()
        else:
            self.dupacks = 0
            cc.on_ack(data_acked, self.sim.now)

        # FIN state advancement
        if fin_acked:
            if self.state is TcpState.FIN_WAIT_1:
                self.state = TcpState.FIN_WAIT_2
            elif self.state is TcpState.CLOSING:
                self._enter_time_wait()
            elif self.state is TcpState.LAST_ACK:
                self._teardown()
                return

        if 0 < (self.snd_max - self.snd_una) % MOD < HALF:  # _flight_size() > 0
            self.rexmt_timer.start(self.rtt.backed_off(self.rto_shift))
        else:
            self.rexmt_timer.stop()
            if self._awaiting_ack:
                self._set_awaiting_ack(False)
        if self.on_send_space is not None and send_buf.free > 0:
            self.on_send_space()
        self.output()

    def _sample_rtt(self, seg: Segment) -> None:
        if not self.params.rtt_estimation:
            return
        sample: Optional[float] = None
        # Presence check, not truthiness: ts_ecr == 0 is a legitimate
        # echo when the peer's timestamp clock wraps at 2**32 ms, and
        # treating it as absent silently disables timestamp RTT
        # sampling (the wrap-aware delta below already handles it).
        if (self.ts_enabled and seg.options.has_timestamps
                and seg.options.ts_ecr is not None):
            now_ms = self._now_ts()
            delta_ms = (now_ms - seg.options.ts_ecr) & 0xFFFFFFFF
            if delta_ms < 1 << 28:  # sane echo
                sample = delta_ms / 1000.0
        elif self._timed_seq is not None and seq_gt(seg.ack, self._timed_seq):
            # Karn: only if the timed segment was never retransmitted
            sample = self.sim.now - self._timed_at
        if sample is not None:
            self.rtt.update(sample)
            self.trace.series("tcp.rtt").record(self.sim.now, sample)
        if self._timed_seq is not None and seq_gt(seg.ack, self._timed_seq):
            self._timed_seq = None

    def _maybe_duplicate_ack(self, seg: Segment) -> None:
        is_dup = (
            len(seg.data) == 0
            and not seg.fin
            and seg.window == self.snd_wnd
            and self._flight_size() > 0
        )
        if not is_dup:
            return
        self.dupacks += 1
        self._counts["tcp.dupacks"] += 1
        if self.cc.in_recovery:
            self.cc.on_dupack_in_recovery(self.sim.now)
            self.output()
            return
        if self.dupacks == self.params.dupack_threshold:
            self._counts["tcp.fast_retransmits"] += 1
            if self._bus is not None:
                self._bus.emit("tcp", self.local_id, "fast_retransmit",
                               snd_una=self.snd_una)
            self.cc.enter_recovery(self._flight_size(), self.snd_max, self.sim.now)
            self._fast_retransmit_hole()
            self.rexmt_timer.start(self._current_rto())

    def _fast_retransmit_hole(self) -> None:
        """Retransmit the first missing range (SACK-aware)."""
        if self.sack_enabled:
            hole = self.scoreboard.first_hole(self.snd_una, self.snd_max, self.mss)
            if hole is not None:
                start, end = hole
                offset = seq_sub(start, self.snd_una)
                length = seq_sub(end, start)
                fin_only = offset >= self.send_buf.used
                if not fin_only:
                    data = self.send_buf.peek(offset, length)
                    if data:
                        self._rexmit_kind = "sack"
                        self._send_data_segment(start, data, is_retransmit=True)
                        return
        # no SACK information: retransmit the head
        pending = min(self.mss, self.send_buf.used)
        if pending > 0:
            data = self.send_buf.peek(0, pending)
            self._rexmit_kind = "fast"
            self._send_data_segment(self.snd_una, data, is_retransmit=True)
        elif self._fin_seq is not None:
            self._emit(flags=FLAG_FIN | FLAG_ACK, seq=self._fin_seq)

    # ------------------------------------------------------------------
    # payload processing
    # ------------------------------------------------------------------
    #: the states that take no more data from the peer
    _NO_PAYLOAD = (TcpState.CLOSING, TcpState.LAST_ACK, TcpState.TIME_WAIT)

    def _process_payload(self, seg: Segment, packet) -> None:
        data = seg.data
        if not data or self.state in self._NO_PAYLOAD:
            return
        # ECN: CE mark on the IP header means congestion happened
        if self.ecn_enabled and getattr(packet, "ecn", ECN_NOT_ECT) == ECN_CE:
            self._counts["tcp.ce_received"] += 1
            self._ece_pending = True
        if seg.flags & FLAG_CWR:
            self._ece_pending = False

        rel = (seg.seq - self.rcv_nxt) % MOD  # seq_sub(seg.seq, rcv_nxt)
        if rel >= HALF:
            rel -= MOD
        if rel != 0 and not self.params.ooo_reassembly:
            # simplified stacks drop out-of-order data outright
            self._counts["tcp.ooo_dropped"] += 1
            self._send_ack_now()
            return
        advanced = self.recv_buf.write(rel, data)
        if advanced > 0:
            self.rcv_nxt = (self.rcv_nxt + advanced) % MOD
            if self.on_data is not None:
                delivered = self.recv_buf.read()
                if delivered:
                    self.bytes_delivered += len(delivered)
                    self._counts["tcp.bytes_delivered"] += len(delivered)
                    self.on_data(delivered)
            # delayed ACK: at least every second segment (RFC 1122)
            if self.params.delayed_ack and not self.delack_timer.armed:
                self.delack_timer.start(self.params.delayed_ack_timeout)
            else:
                self._send_ack_now()
        else:
            # out-of-order or duplicate: immediate (duplicate) ACK
            self._counts["tcp.ooo_segments"] += 1
            self._send_ack_now()

    def _maybe_send_window_update(self) -> None:
        """After the app reads, reopen the window if it was pinched."""
        if not self.is_open:
            return
        new_wnd = self._advertised_window()
        if (
            self._last_advertised_window < self.mss
            and new_wnd >= self._last_advertised_window + self.mss
        ):
            self._counts["tcp.window_updates"] += 1
            self._send_ack_now()

    # ------------------------------------------------------------------
    # FIN processing
    # ------------------------------------------------------------------
    def _process_fin(self, seg: Segment) -> None:
        if seg.fin:
            # kept while data before it is missing, as FreeBSD's
            # reassembly queue keeps it: else it costs a retransmission
            self._peer_fin = seq_add(seg.seq, len(seg.data))
        if self._peer_fin != self.rcv_nxt:
            return
        self._peer_fin = None
        self.rcv_nxt = seq_add(self.rcv_nxt, 1)
        self._send_ack_now()
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
            if self.on_peer_close is not None:
                self.on_peer_close()
        elif self.state is TcpState.FIN_WAIT_1:
            # our FIN not yet acked (else _ack_advance moved us to FW2)
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self._stop_timers()
        self.timewait_timer.start(self.params.time_wait)

    def _stop_timers(self) -> None:
        self.rexmt_timer.stop()
        self.persist_timer.stop()
        self.delack_timer.stop()
        self.timewait_timer.stop()
        self.keepalive_timer.stop()

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _error_out(self, reason: str) -> None:
        self._counts["tcp.errors"] += 1
        cb = self.on_error
        self._teardown()
        if cb is not None:
            cb(reason)

    def _teardown(self) -> None:
        self.state = TcpState.CLOSED
        self._stop_timers()
        self._set_awaiting_ack(False)
        if self.on_cleanup is not None:
            self.on_cleanup(self)
        if self.on_close is not None:
            self.on_close()
