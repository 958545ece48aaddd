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
    Segment,
)
from repro.core.seqnum import (
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


def resolve_socket_option(params: TcpParams, name: str):
    """Map a socket-option name to ``(TcpParams field, invert)``.

    Accepts any :class:`TcpParams` field name verbatim, plus the BSD
    aliases in :data:`SOCKET_OPTION_ALIASES`.  Shared by the
    connection- and stack-level ``set_option``/``get_option`` wrappers.
    """
    alias = SOCKET_OPTION_ALIASES.get(name)
    if alias is not None:
        return alias
    if not name.startswith("_") and hasattr(params, name):
        return (name, False)
    raise ValueError(
        f"unknown socket option {name!r}; use a TcpParams field "
        f"name or one of {sorted(SOCKET_OPTION_ALIASES)}"
    )


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


class TcpConnection:
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
        "dupacks", "rto_shift", "retransmit_budget", "_timed_seq",
        "_timed_at", "_ece_pending", "_cwr_pending", "_ecn_response_seq",
        "_fin_pending", "_fin_seq", "_peer_offered_ecn",
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
        "_bus", "_rexmit_kind", "_g_cwnd", "_g_ssthresh", "_g_srtt",
        "_g_rto", "_h_rtt",
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
        self.retransmit_budget = p.max_retransmits
        self._timed_seq: Optional[int] = None  # Karn fallback timing
        self._timed_at = 0.0

        # ECN state
        self._ece_pending = False  # receiver: echo ECE until CWR seen
        self._cwr_pending = False  # sender: set CWR on next data segment
        self._ecn_response_seq = iss  # once-per-window ECE response

        # FIN bookkeeping
        self._fin_pending = False
        self._fin_seq: Optional[int] = None
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
        metrics = getattr(sim, "metrics", None)
        self._rexmit_kind = "rto"
        self._g_cwnd = None
        if metrics is not None:
            if instruments is None:
                # built outside a TcpStack: export this recorder itself
                metrics.pull_counters("tcp", local_id, self.trace.counters)
                instruments = node_instruments(metrics, local_id)
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

    def flight_size(self) -> int:
        """Bytes sent but not yet acknowledged."""
        return seq_sub(self.snd_max, self.snd_una)

    def _unsent_bytes(self) -> int:
        return self.send_buf.used - seq_sub(self.snd_nxt, self.snd_una)

    @property
    def is_open(self) -> bool:
        """True while data can still be exchanged."""
        return self.state in (
            TcpState.ESTABLISHED,
            TcpState.CLOSE_WAIT,
            TcpState.FIN_WAIT_1,
            TcpState.FIN_WAIT_2,
        )

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
        self.state = TcpState.SYN_SENT
        self.snd_una = self.iss
        self.snd_nxt = seq_add(self.iss, 1)
        self.snd_max = self.snd_nxt
        self._send_syn(with_ack=False)
        self.rexmt_timer.start(self.rtt.rto)
        self._set_awaiting_ack(True)

    def accept_syn(self, seg: Segment, packet) -> None:
        """Passive open: a listener handed us a SYN."""
        self.state = TcpState.SYN_RECEIVED
        self.irs = seg.seq
        self.rcv_nxt = seq_add(seg.seq, 1)
        self._process_syn_options(seg, packet)
        self.snd_una = self.iss
        self.snd_nxt = seq_add(self.iss, 1)
        self.snd_max = self.snd_nxt
        self.snd_wnd = seg.window
        self._send_syn(with_ack=True)
        self.rexmt_timer.start(self.rtt.rto)

    def send(self, data: bytes) -> int:
        """Queue application data; returns bytes accepted."""
        if not self.is_open and self.state not in (
            TcpState.SYN_SENT,
            TcpState.SYN_RECEIVED,
        ):
            raise RuntimeError(f"send() in state {self.state}")
        if self._fin_pending:
            raise RuntimeError("send() after close()")
        accepted = self.send_buf.write(data)
        if accepted and self.is_open:
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
            self._teardown("closed before establishment")
            return
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
        self._teardown("aborted")

    # ==================================================================
    # socket options (BSD setsockopt/getsockopt surface)
    # ==================================================================
    def set_option(self, name: str, value) -> None:
        """Set one socket option on this connection.

        ``name`` is a :class:`TcpParams` field (``"rto_min"``,
        ``"keepalive"``, ...) or a BSD alias (``"TCP_NODELAY"``,
        ``"SO_KEEPALIVE"``, ``"SO_SNDBUF"``, ``"SO_RCVBUF"``,
        ``"TCP_MAXSEG"``).  The connection's params object is copied on
        first write, so options never leak to other sockets sharing the
        same :class:`TcpParams` instance.  As with BSD ``setsockopt``,
        fields consumed at connect time (buffer sizes, the negotiated
        MSS) do not retroactively resize a live connection; fields read
        on the fly (timers, thresholds, ``nagle``, ``keepalive``) take
        effect immediately.
        """
        field_name, invert = resolve_socket_option(self.params, name)
        if not self._params_owned:
            self.params = copy.copy(self.params)
            self._params_owned = True
        setattr(self.params, field_name, (not value) if invert else value)
        if field_name == "keepalive" and value and self.is_open:
            self._arm_keepalive()

    def get_option(self, name: str):
        """Read one socket option (same names as :meth:`set_option`)."""
        field_name, invert = resolve_socket_option(self.params, name)
        value = getattr(self.params, field_name)
        return (not value) if invert else value

    #: BSD-named thin aliases
    setsockopt = set_option
    getsockopt = get_option

    # ==================================================================
    # output engine
    # ==================================================================
    _CAN_OUTPUT = (
        TcpState.ESTABLISHED,
        TcpState.CLOSE_WAIT,
        TcpState.FIN_WAIT_1,
        TcpState.FIN_WAIT_2,
        TcpState.CLOSING,
        TcpState.LAST_ACK,
    )

    def output(self) -> None:
        """Send whatever the windows allow (data, FIN, probes)."""
        if self.state not in self._CAN_OUTPUT:
            return
        window = min(self.snd_wnd, self.cc.window())
        sent_something = False
        while True:
            in_flight = seq_sub(self.snd_nxt, self.snd_una)
            usable = window - in_flight
            unsent = self._unsent_bytes()
            if unsent <= 0 or usable <= 0:
                break
            length = min(self.mss, unsent, usable)
            if length <= 0:
                break
            # Nagle: hold sub-MSS segments while data is in flight
            if (
                self.params.nagle
                and length < self.mss
                and length == unsent
                and in_flight > 0
                and not self._fin_pending
            ):
                break
            offset = seq_sub(self.snd_nxt, self.snd_una)
            data = self.send_buf.peek(offset, length)
            self._send_data_segment(self.snd_nxt, data)
            self.snd_nxt = seq_add(self.snd_nxt, len(data))
            self.snd_max = seq_max(self.snd_max, self.snd_nxt)
            sent_something = True
        # FIN once all data is out
        if (
            self._fin_pending
            and self._fin_seq is None
            and self._unsent_bytes() == 0
            and self.state in (TcpState.FIN_WAIT_1, TcpState.LAST_ACK)
        ):
            self._fin_seq = self.snd_nxt
            self._emit(flags=FLAG_FIN | FLAG_ACK, seq=self.snd_nxt)
            self.snd_nxt = seq_add(self.snd_nxt, 1)
            self.snd_max = seq_max(self.snd_max, self.snd_nxt)
            sent_something = True
        if sent_something:
            self.rexmt_timer.start_if_idle(self._current_rto())
            self.persist_timer.stop()
            self._set_awaiting_ack(True)
        elif (
            self.snd_wnd == 0
            and self._unsent_bytes() > 0
            and self.flight_size() == 0
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
        """The send window transitioned zero -> nonzero: end the
        zero-window episode.

        Every reopen path funnels through here so the persist backoff
        can never leak across episodes — a stale ``_persist_shift``
        would make the *next* episode's first probe fire at up to 64x
        ``persist_min``, stalling live traffic behind a bug the batch
        experiments never notice.
        """
        self._persist_shift = 0
        self.persist_timer.stop()

    # ------------------------------------------------------------------
    # segment construction
    # ------------------------------------------------------------------
    def _base_options(self, for_syn: bool = False) -> TcpOptions:
        opts = TcpOptions()
        p = self.params
        if for_syn:
            opts.mss = p.mss
            if p.use_sack:
                opts.sack_permitted = True
        if (self.ts_enabled or for_syn) and p.use_timestamps:
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
            seq = self.snd_nxt
        opts = options if options is not None else self._base_options()
        if (
            flags & FLAG_ACK
            and self.sack_enabled
            and self.recv_buf.out_of_order_bytes() > 0
        ):
            opts.sack_blocks = self.recv_buf.sack_ranges(self.rcv_nxt)
        if self._ece_pending and self.ecn_enabled:
            flags |= FLAG_ECE
        if self._cwr_pending and data:
            flags |= FLAG_CWR
            self._cwr_pending = False
        window = self._advertised_window()
        seg = Segment(
            src_port=self.local_port,
            dst_port=self.peer_port,
            seq=seq,
            ack=self.rcv_nxt if flags & FLAG_ACK else 0,
            flags=flags,
            window=window,
            options=opts,
            data=data,
        )
        self._last_advertised_window = window
        ecn_bits = ECN_NOT_ECT
        if self.ecn_enabled and data:
            ecn_bits = ECN_ECT0
        self._charge_cpu()
        counters = self.trace.counters
        counters.incr("tcp.segs_sent")
        if opts.sack_blocks:
            counters.incr("tcp.sack_blocks_sent", len(opts.sack_blocks))
        if data:
            counters.incr("tcp.data_segs_sent")
            if is_retransmit:
                counters.incr("tcp.retransmits")
                counters.incr(f"tcp.retransmits.{self._rexmit_kind}")
                if self._bus is not None:
                    self._bus.emit("tcp", self.local_id, "retransmit",
                                   seq=seq, kind=self._rexmit_kind,
                                   bytes=len(data))
        self.network.send(
            self.peer_id,
            PROTO_TCP,
            seg,
            seg.wire_bytes,
            ecn=ecn_bits,
            dst_is_cloud=self.dst_is_cloud,
        )

    def _send_syn(self, with_ack: bool) -> None:
        opts = self._base_options(for_syn=True)
        flags = FLAG_SYN
        if with_ack:
            flags |= FLAG_ACK
            if self.params.ecn and self._peer_offered_ecn:
                flags |= FLAG_ECE
                self.ecn_enabled = True
        else:
            self._peer_offered_ecn = False
            if self.params.ecn:
                flags |= FLAG_ECE | FLAG_CWR
        self.trace.counters.incr("tcp.segs_sent")
        self._charge_cpu()
        seg = Segment(
            src_port=self.local_port,
            dst_port=self.peer_port,
            seq=self.iss,
            ack=self.rcv_nxt if with_ack else 0,
            flags=flags,
            window=self._advertised_window(),
            options=opts,
        )
        self.network.send(
            self.peer_id, PROTO_TCP, seg, seg.wire_bytes,
            dst_is_cloud=self.dst_is_cloud,
        )

    def _send_data_segment(self, seq: int, data: bytes, is_retransmit: bool = False) -> None:
        flags = FLAG_ACK
        offset_end = seq_add(seq, len(data))
        # PSH on the last segment of currently-queued data
        if seq_sub(offset_end, self.snd_una) >= self.send_buf.used:
            flags |= FLAG_PSH
        if self._timed_seq is None and not is_retransmit:
            self._timed_seq = seq
            self._timed_at = self.sim.now
        self._emit(flags=flags, seq=seq, data=data, is_retransmit=is_retransmit)

    def _send_ack_now(self) -> None:
        self.delack_timer.stop()
        self._emit(flags=FLAG_ACK)

    def _challenge_ack(self) -> None:
        """RFC 5961 challenge ACK, rate-limited per connection."""
        now = self.sim.now
        if now - self._challenge_window_start >= 1.0:
            self._challenge_window_start = now
            self._challenges_in_window = 0
        if self._challenges_in_window >= self.params.challenge_ack_limit:
            self.trace.counters.incr("tcp.challenge_acks_suppressed")
            return
        self._challenges_in_window += 1
        self.trace.counters.incr("tcp.challenge_acks")
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
            self.trace.counters.incr("tcp.syn_retransmits")
            self._send_syn(with_ack=self.state is TcpState.SYN_RECEIVED)
            self.rexmt_timer.start(self._current_rto())
            return
        self.rto_shift += 1
        if self.rto_shift > self.params.max_retransmits:
            self._error_out("connection timed out (data)")
            return
        self.trace.counters.incr("tcp.rto_events")
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
        self.cc.on_timeout(self.flight_size(), self.sim.now)
        self.scoreboard.clear()
        self.dupacks = 0
        self._timed_seq = None  # Karn: do not time retransmitted data
        # go-back-N: rewind and retransmit from the oldest unacked byte
        self.snd_nxt = self.snd_una
        if self._fin_seq is not None and seq_ge(self.snd_nxt, self._fin_seq):
            self._fin_seq = None  # FIN needs resending too
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
        if not self.is_open:
            return
        if self.snd_wnd > 0:
            self._window_reopened()
            self.output()
            return
        # window probe: one byte past the edge
        self.trace.counters.incr("tcp.zero_window_probes")
        if self._bus is not None:
            self._bus.emit("tcp", self.local_id, "zero_window_probe",
                           shift=self._persist_shift)
        offset = seq_sub(self.snd_nxt, self.snd_una)
        if self.send_buf.used > offset:
            data = self.send_buf.peek(offset, 1)
            self._emit(flags=FLAG_ACK, seq=self.snd_nxt, data=data)
        else:
            self._emit(flags=FLAG_ACK)
        self._persist_shift += 1
        self.persist_timer.start(self._persist_interval())

    def _on_timewait_timeout(self) -> None:
        self._teardown(None)

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
        self.trace.counters.incr("tcp.keepalive_probes")
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
        """Process one inbound segment."""
        if self.params.header_prediction and self._header_predicted(seg):
            # fast path (§4.1): in-order pure data or pure ACK with no
            # surprises costs a fraction of the full processing
            self.trace.counters.incr("tcp.header_predictions")
            if self.cpu is not None:
                self.cpu.charge(
                    self.params.cpu_per_segment * self.params.cpu_fast_path_factor
                )
        else:
            self._charge_cpu()
        self.trace.counters.incr("tcp.segs_rcvd")
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
        if not self._segment_acceptable(seg):
            if not seg.rst:
                self._challenge_ack()
            return

        # -- RST / SYN (RFC 5961 challenge-ACK discipline) --------------
        if seg.rst:
            if seg.seq == self.rcv_nxt:
                self._error_out("connection reset by peer")
            else:
                self._challenge_ack()
            return
        if seg.syn:
            self._challenge_ack()
            return
        if not seg.ack_flag:
            return

        # -- timestamp bookkeeping --------------------------------------
        if self.ts_enabled and seg.options.has_timestamps:
            if seq_le(seg.seq, self.rcv_nxt):
                self.ts_recent = seg.options.ts_val

        if self.state is TcpState.SYN_RECEIVED:
            if seq_gt(seg.ack, self.snd_una) and seq_le(seg.ack, self.snd_max):
                self.state = TcpState.ESTABLISHED
                old_wnd = self.snd_wnd
                self.snd_wnd = seg.window
                self.snd_wl1 = seg.seq
                self.snd_wl2 = seg.ack
                if old_wnd == 0 and self.snd_wnd > 0:
                    self._window_reopened()
                self._ack_advance(seg)
                self._arm_keepalive()
                if self.on_connect is not None:
                    self.on_connect()
            else:
                return

        self._process_ack(seg)
        if self.state is TcpState.CLOSED:
            return
        self._process_payload(seg, packet)
        self._process_fin(seg)
        self._set_awaiting_ack(self.flight_size() > 0)

    # ------------------------------------------------------------------
    def _header_predicted(self, seg: Segment) -> bool:
        """FreeBSD-style header prediction: the common-case segment.

        Either the next expected in-order data segment with a
        non-advancing ACK, or a pure ACK for new data — with no special
        flags, no SACK surprises, and an unchanged window.
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
        self.irs = seg.seq
        self.rcv_nxt = seq_add(seg.seq, 1)
        self._process_syn_options(seg, packet)
        if seg.ack_flag:
            # normal SYN-ACK
            self.snd_una = seg.ack
            self.rto_shift = 0
            self.state = TcpState.ESTABLISHED
            old_wnd = self.snd_wnd
            self.snd_wnd = seg.window
            self.snd_wl1 = seg.seq
            self.snd_wl2 = seg.ack
            if old_wnd == 0 and self.snd_wnd > 0:
                self._window_reopened()
            if self.params.ecn and seg.ece and not seg.cwr:
                self.ecn_enabled = True
            self.rexmt_timer.stop()
            self._set_awaiting_ack(False)
            self._send_ack_now()
            self._arm_keepalive()
            if self.on_connect is not None:
                self.on_connect()
            self.output()
        else:
            # simultaneous open
            self.state = TcpState.SYN_RECEIVED
            self._send_syn(with_ack=True)

    def _process_syn_options(self, seg: Segment, packet) -> None:
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
    def _process_ack(self, seg: Segment) -> None:
        # window update (RFC 793 p.72)
        if seq_lt(self.snd_wl1, seg.seq) or (
            self.snd_wl1 == seg.seq and seq_le(self.snd_wl2, seg.ack)
        ):
            old_wnd = self.snd_wnd
            self.snd_wnd = seg.window
            self.snd_wl1 = seg.seq
            self.snd_wl2 = seg.ack
            if old_wnd == 0 and self.snd_wnd > 0:
                self._window_reopened()
                self.output()

        if self.sack_enabled and seg.options.sack_blocks:
            self.scoreboard.update(seg.options.sack_blocks, self.snd_una)

        # ECN echo: congestion response once per window
        if (
            self.ecn_enabled
            and seg.ece
            and seq_ge(self.snd_una, self._ecn_response_seq)
        ):
            self.trace.counters.incr("tcp.ecn_responses")
            self.cc.on_ecn_echo(self.flight_size(), self.sim.now)
            self._ecn_response_seq = self.snd_max
            self._cwr_pending = True

        if seq_gt(seg.ack, self.snd_max):
            # acks something we never sent
            self._send_ack_now()
            return
        if seq_gt(seg.ack, self.snd_una):
            self._ack_advance(seg)
        elif seg.ack == self.snd_una:
            self._maybe_duplicate_ack(seg)

    def _ack_advance(self, seg: Segment) -> None:
        acked = seq_sub(seg.ack, self.snd_una)
        fin_acked = (
            self._fin_seq is not None and seq_gt(seg.ack, self._fin_seq)
        )
        data_acked = acked - (1 if fin_acked else 0)
        # The SYN consumed one sequence number; clamping to the buffer
        # occupancy absorbs it (and any other non-data sequence space).
        if data_acked > self.send_buf.used:
            data_acked = self.send_buf.used
        if data_acked > 0:
            self.send_buf.ack(data_acked)
            self.trace.counters.incr("tcp.bytes_acked", data_acked)
        self.snd_una = seg.ack
        if seq_lt(self.snd_nxt, self.snd_una):
            self.snd_nxt = self.snd_una
        self.scoreboard.advance(self.snd_una)

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
                self.trace.counters.incr("tcp.bad_retransmits_undone")
                self.cc.cwnd = self._badrexmit["cwnd"]
                self.cc.ssthresh = self._badrexmit["ssthresh"]
                self.cc._record(self.sim.now)
            self._badrexmit = None

        # RTT sampling
        self._sample_rtt(seg)
        self.rto_shift = 0

        # recovery bookkeeping
        if self.cc.in_recovery:
            if seq_ge(seg.ack, self.cc.recover):
                self.cc.exit_recovery(self.sim.now)
                self.dupacks = 0
            else:
                # NewReno partial ACK: retransmit the next hole
                self.trace.counters.incr("tcp.partial_acks")
                self.cc.on_partial_ack(acked, self.sim.now)
                self._fast_retransmit_hole()
        else:
            self.dupacks = 0
            self.cc.on_ack(data_acked, self.sim.now)

        # FIN state advancement
        if fin_acked:
            if self.state is TcpState.FIN_WAIT_1:
                self.state = TcpState.FIN_WAIT_2
            elif self.state is TcpState.CLOSING:
                self._enter_time_wait()
            elif self.state is TcpState.LAST_ACK:
                self._teardown(None)
                return

        if self.flight_size() > 0:
            self.rexmt_timer.start(self._current_rto())
        else:
            self.rexmt_timer.stop()
            self._set_awaiting_ack(False)
        if self.on_send_space is not None and self.send_buf.free > 0:
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
            and self.flight_size() > 0
        )
        if not is_dup:
            return
        self.dupacks += 1
        self.trace.counters.incr("tcp.dupacks")
        if self.cc.in_recovery:
            self.cc.on_dupack_in_recovery(self.sim.now)
            self.output()
            return
        if self.dupacks == self.params.dupack_threshold:
            self.trace.counters.incr("tcp.fast_retransmits")
            if self._bus is not None:
                self._bus.emit("tcp", self.local_id, "fast_retransmit",
                               snd_una=self.snd_una)
            self.cc.enter_recovery(self.flight_size(), self.snd_max, self.sim.now)
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
    def _process_payload(self, seg: Segment, packet) -> None:
        if not seg.data:
            return
        if self.state in (
            TcpState.CLOSING,
            TcpState.LAST_ACK,
            TcpState.TIME_WAIT,
        ):
            return
        # ECN: CE mark on the IP header means congestion happened
        if self.ecn_enabled and getattr(packet, "ecn", ECN_NOT_ECT) == ECN_CE:
            self.trace.counters.incr("tcp.ce_received")
            self._ece_pending = True
        if seg.cwr:
            self._ece_pending = False

        rel = seq_sub(seg.seq, self.rcv_nxt)
        if rel != 0 and not self.params.ooo_reassembly:
            # simplified stacks drop out-of-order data outright
            self.trace.counters.incr("tcp.ooo_dropped")
            self._send_ack_now()
            return
        advanced = self.recv_buf.write(rel, seg.data)
        if advanced > 0:
            self.rcv_nxt = seq_add(self.rcv_nxt, advanced)
            self._deliver_data()
            self._ack_policy(in_order=True, psh=seg.psh)
        else:
            # out-of-order or duplicate: immediate (duplicate) ACK
            self.trace.counters.incr("tcp.ooo_segments")
            self._send_ack_now()

    def _deliver_data(self) -> None:
        if self.on_data is None:
            return
        data = self.recv_buf.read()
        if data:
            self.bytes_delivered += len(data)
            self.trace.counters.incr("tcp.bytes_delivered", len(data))
            self.on_data(data)

    def _ack_policy(self, in_order: bool, psh: bool) -> None:
        if not self.params.delayed_ack:
            self._send_ack_now()
            return
        if self.delack_timer.armed:
            # second segment: ACK now (RFC 1122 "at least every 2nd")
            self._send_ack_now()
        else:
            self.delack_timer.start(self.params.delayed_ack_timeout)

    def _maybe_send_window_update(self) -> None:
        """After the app reads, reopen the window if it was pinched."""
        if not self.is_open:
            return
        new_wnd = self._advertised_window()
        if (
            self._last_advertised_window < self.mss
            and new_wnd >= self._last_advertised_window + self.mss
        ):
            self.trace.counters.incr("tcp.window_updates")
            self._send_ack_now()

    # ------------------------------------------------------------------
    # FIN processing
    # ------------------------------------------------------------------
    def _process_fin(self, seg: Segment) -> None:
        if not seg.fin:
            return
        fin_seq = seq_add(seg.seq, len(seg.data))
        if fin_seq != self.rcv_nxt:
            return  # data before the FIN still missing
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
        self.rexmt_timer.stop()
        self.persist_timer.stop()
        self.delack_timer.stop()
        self.keepalive_timer.stop()
        self.timewait_timer.start(self.params.time_wait)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _error_out(self, reason: str) -> None:
        self.trace.counters.incr("tcp.errors")
        cb = self.on_error
        self._teardown(None)
        if cb is not None:
            cb(reason)

    def _teardown(self, _reason: Optional[str]) -> None:
        self.state = TcpState.CLOSED
        self.rexmt_timer.stop()
        self.persist_timer.stop()
        self.delack_timer.stop()
        self.timewait_timer.stop()
        self.keepalive_timer.stop()
        self._set_awaiting_ack(False)
        if self.on_cleanup is not None:
            self.on_cleanup(self)
        if self.on_close is not None:
            self.on_close()
