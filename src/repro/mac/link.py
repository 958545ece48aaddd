"""Software CSMA-CA link layer with randomised link retries.

This is the MAC behaviour TCPlp required (paper §4 and §7.1):

* CSMA-CA runs in *software* so the radio keeps listening between
  backoff slots, fixing the AT86RF233 "deaf listening" problem.  The
  broken hardware behaviour is reproduced when the radio is created
  with ``deaf_csma=True`` (the radio goes deaf during backoff).
* After a failed transmission (missed link ACK or channel-access
  failure) the frame is retried after a uniform ``[0, d]`` delay.
  ``d`` is :attr:`MacParams.retry_delay` — the x-axis of Figure 6.
  Stock OpenThread has ``d = 0``.
* Frames to *sleepy children* are not transmitted directly: they are
  parked on an indirect queue until the child polls with a
  data-request command (Thread listen-after-send, §3.2).

The layer exposes ``send`` downward-facing semantics to 6LoWPAN and an
``on_receive(payload, src, frame)`` upcall.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.mac.frame import (
    ACK_FRAME_BYTES, BROADCAST, DATA_HEADER_BYTES, Frame, FrameKind,
)
from repro.phy.energy import RadioState
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder

_LISTEN = RadioState.LISTEN
_DEAF = RadioState.DEAF
_DATA = FrameKind.DATA
_ACK = FrameKind.ACK
_DATA_REQUEST = FrameKind.DATA_REQUEST
_new_frame = Frame.__new__


@dataclass(slots=True)
class MacParams:
    """Knobs for the CSMA-CA link layer."""

    min_be: int = 3  # macMinBE
    max_be: int = 5  # macMaxBE
    max_csma_backoffs: int = 4  # macMaxCSMABackoffs
    #: software link retries.  Calibrated to 6 so that hidden-terminal
    #: re-collisions at d=0 produce the ~6-9% TCP-segment loss the
    #: paper measures at three hops (Fig. 6b); OpenThread's direct
    #: transmission budget is of this order.
    max_retries: int = 6
    retry_delay: float = 0.0  # "d": uniform(0, d) between link retries (§7.1)
    ack_wait: float = 0.003  # seconds to wait for a link ACK
    tx_queue_limit: int = 40  # frames; tail-dropped beyond this
    indirect_queue_limit: int = 30  # frames parked per sleepy child
    indirect_max_retries: int = 6  # link retries for indirect frames (§9.5 fix)
    #: MAC processing cost (CPU meter) per frame put on the air and per
    #: frame received — that is, passed up by the radio's address
    #: filter: an overheard frame never interrupts the MCU
    per_frame_cpu: float = 0.0003


class _TxOp:
    """State for the in-flight transmission attempt (``nb`` and ``be``,
    the CSMA state, are set by each CSMA run's start)."""

    __slots__ = ("frame", "nb", "be", "retries", "on_done", "indirect_child")

    def __init__(self, frame: Frame, on_done: Optional[Callable[[bool], None]]):
        self.frame = frame
        self.retries = 0
        self.on_done = on_done
        self.indirect_child = None


_new_op = _TxOp.__new__


class MacLayer:
    """Per-node 802.15.4 MAC."""

    # Slotted: every node carries one, and slots are smaller than an
    # instance dict.
    __slots__ = (
        "sim", "radio", "rng", "params", "trace", "node_id",
        "_csma_rng", "_retry_rng", "_counts", "_cpu", "_bus",
        "_queue", "_current", "paused", "_ack_timer_event", "_seq",
        "_dedup", "_indirect",
        "on_receive", "on_poll_ack", "on_idle", "on_data_pending",
    )

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        rng: RngStreams,
        params: Optional[MacParams] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        self.sim = sim
        self.radio = radio
        self.rng = rng
        self.params = params or MacParams()
        self.trace = trace or TraceRecorder()
        self.node_id = radio.node_id
        radio.on_frame = self._on_frame
        # Stream objects resolved on the first draw and kept: the
        # per-draw f-string key build and dict lookup are measurable at
        # CSMA rates, and a node that never transmits never pays for a
        # Mersenne-Twister state.  Stream seeds derive from the name
        # alone, so when a stream is created does not change its draws.
        self._csma_rng = None
        self._retry_rng = None
        # Direct handles for per-frame accounting: Counter.incr and
        # CpuMeter.charge are semantically trivial but their call
        # overhead is measurable at frame dispatch rates.
        self._counts = self.trace.counters._counts
        self._cpu = radio.cpu
        self._bus = getattr(sim, "trace_bus", None)

        # a list, not a deque: at most ``tx_queue_limit`` (+ a few
        # data requests) ops, and an empty deque costs ~600 B per MAC
        self._queue: List[_TxOp] = []
        self._current: Optional[_TxOp] = None
        #: when True, no new transmission starts; set through :meth:`hold`
        self.paused = False
        self._ack_timer_event = None
        self._seq = 0
        self._dedup: Dict[int, int] = {}  # src -> last accepted seq
        #: sleepy child -> its parked frames; the keys are the sleepy
        #: children (a child, once marked, is never unmarked)
        self._indirect: Dict[int, Deque[_TxOp]] = {}

        #: upcall: (payload, src, frame) for each accepted data frame
        self.on_receive: Optional[Callable[[object, int, Frame], None]] = None
        #: upcall on the *sender* when the link ACK for a data request
        #: arrives; carries the pending bit (used by the poll layer)
        self.on_poll_ack: Optional[Callable[[bool], None]] = None
        #: upcall when the tx queue drains (poll layer may sleep the radio)
        self.on_idle: Optional[Callable[[], None]] = None
        #: upcall for every received data frame's pending bit (poll layer)
        self.on_data_pending: Optional[Callable[[bool], None]] = None

    # ------------------------------------------------------------------
    # downward-facing API
    # ------------------------------------------------------------------
    def send(
        self,
        payload: object,
        payload_bytes: int,
        dst: int,
        on_done: Optional[Callable[[bool], None]] = None,
    ) -> bool:
        """Queue a frame for ``dst`` (park it if ``dst`` is a sleepy
        child).  Returns False when that queue is full."""
        seq = self._seq = (self._seq + 1) & 0xFF
        # The frame and its op are built by slot stores, as the kernel
        # builds an Event: one of each for every frame sent.
        frame = _new_frame(Frame)
        frame.kind = _DATA
        frame.src = self.node_id
        frame.dst = dst
        frame.seq = seq
        frame.pending = False
        frame.ack_request = dst != BROADCAST
        frame.payload = payload
        frame.payload_bytes = payload_bytes
        frame.retries_used = 0
        frame.byte_size = DATA_HEADER_BYTES + payload_bytes
        frame.is_ack = False
        op = _new_op(_TxOp)
        op.frame = frame
        op.retries = 0
        op.on_done = on_done
        op.indirect_child = None
        parked = self._indirect.get(dst)
        if parked is not None:
            if len(parked) >= self.params.indirect_queue_limit:
                return self._drop(op, "indirect_drop")
            op.indirect_child = dst
            parked.append(op)
            return True
        if len(self._queue) >= self.params.tx_queue_limit:
            return self._drop(op, "tail_drop")
        self._queue.append(op)
        self._kick()
        return True

    def _drop(self, op: _TxOp, kind: str) -> bool:
        """Refuse ``op``: count ``mac.<kind>s``, emit ``kind``, fail it."""
        self._counts[f"mac.{kind}s"] += 1
        if self._bus is not None:
            self._bus.emit("mac", self.node_id, kind, dst=op.frame.dst)
        if op.on_done is not None:
            op.on_done(False)
        return False

    def send_data_request(self, parent: int) -> None:
        """Send a data-request command to ``parent`` (poll layer).

        Data requests jump the queue: they are tiny, latency-critical
        (the parent releases queued downlink traffic on them), and the
        transport above may be stalled waiting for exactly the ACK they
        will fetch.
        """
        seq = self._seq = (self._seq + 1) & 0xFF
        frame = Frame(
            kind=FrameKind.DATA_REQUEST,
            src=self.node_id,
            dst=parent,
            seq=seq,
            ack_request=True,
        )
        op = _TxOp(frame, None)
        self._queue.insert(0, op)
        self._kick()

    @property
    def idle(self) -> bool:
        """No frame in flight or queued (parked ones wait for a poll)."""
        return self._current is None and not self._queue

    def hold(self, on: bool) -> None:
        """Hold all transmissions (a crash, App. C's listen phase) or
        release them; a release starts the next queued frame."""
        self.paused = on
        if not on:
            self._kick()

    def _pending_for(self, child: int) -> bool:
        """Frames for ``child`` still to come: parked, or released by an
        earlier poll and not yet delivered."""
        cur = self._current
        ops = self._queue if cur is None else [cur, *self._queue]
        return (bool(self._indirect.get(child))
                or any(op.indirect_child == child for op in ops))

    def mark_sleepy_child(self, child: int) -> None:
        """Route future frames for ``child`` through the indirect queue."""
        self._indirect.setdefault(child, deque())

    def reset(self) -> None:
        """Drop all volatile MAC state (node crash).

        Queued frames vanish without firing their ``on_done`` callbacks
        — the layers above are being wiped too, so nobody is listening.
        The in-flight op is orphaned by clearing ``_current``: its ACK
        wait ends here, its load and frame on the air died with the
        radio's power, and its CSMA or retry event checks ``op is not
        self._current``.  The dedup table is cleared as well: a
        cold-started MAC has no memory of past sequence numbers.
        """
        if self._ack_timer_event is not None:
            self._ack_timer_event.cancel()
            self._end_ack_wait()
        self._current = None
        self._queue.clear()
        for q in self._indirect.values():
            q.clear()
        self._dedup.clear()
        self._seq = 0

    # ------------------------------------------------------------------
    # transmit state machine
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        if self._current is not None or not self._queue or self.paused:
            return
        op = self._current = self._queue.pop(0)
        # SPI-load the frame buffer first (the §6.4 overhead), *then*
        # run CSMA from the start, so that clear-channel assessment is
        # fresh at air time.  Retries reuse the loaded buffer.  The load
        # never completes for a stale op: only a crash ends an op
        # mid-load, and the radio drops a load cut off by its crash.
        op.nb = 0
        op.be = self.params.min_be
        self.radio.load(op.frame.byte_size, self._backoff, op)

    def _backoff(self, op: _TxOp) -> None:
        self._counts["mac.csma_backoffs"] += 1
        # Draw-identical inline of Random.randint(0, 2**be - 1): CPython's
        # randrange -> _randbelow_with_getrandbits(n) does exactly this
        # rejection loop, but its wrapper layers cost ~4us per draw at
        # CSMA rates.  Must consume getrandbits identically so seeded
        # traces match randint's byte for byte (pinned by
        # tests/test_fastcore_equivalence.py::test_backoff_draw_matches_randint).
        be = op.be
        n = 1 << be
        k = be + 1  # n.bit_length()
        csma_rng = self._csma_rng
        if csma_rng is None:
            csma_rng = self._csma_rng = self.rng.stream(f"csma:{self.node_id}")
        getrandbits = csma_rng.getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        radio = self.radio
        # a radio on the air (this node's link ACK) is left alone: its
        # end of air returns it to LISTEN
        if not radio._tx_busy:
            if radio.deaf_csma:
                radio.go_deaf()
            elif radio.energy.state is not _LISTEN:
                radio.listen()
        self.sim.schedule_unref(r * radio.params.unit_backoff, self._cca, op)

    def _cca(self, op: _TxOp) -> None:
        if op is not self._current:
            return  # op was aborted
        radio = self.radio
        params = self.params
        # clear-channel assessment: energy detect at this node, which
        # hears every frame on the medium's audible list for it
        if not radio._tx_busy:
            medium = radio.medium
            audible = medium._audible
            if audible is None:
                medium._build_cache()
                audible = medium._audible
            if not audible[self.node_id]:
                if radio.energy.state is not _LISTEN:
                    radio.listen()  # leave deaf state before TX
                self._cpu._busy += params.per_frame_cpu
                # the frame is already in the radio's buffer (``_kick``
                # loaded it)
                frame = op.frame
                radio.transmit(frame, frame.byte_size, self._tx_done, op)
                self._counts["mac.frames_tx"] += 1
                return
            if medium._metrics is not None:
                medium._node_counter(medium._m_carrier_busy,
                                     "phy.carrier_busy", self.node_id).inc()
        op.nb += 1
        be = op.be + 1
        op.be = be if be < params.max_be else params.max_be
        if op.nb > params.max_csma_backoffs:
            self._counts["mac.csma_failures"] += 1
            if radio.energy.state is _DEAF:
                radio.listen()  # only the backoff is deaf (§4)
            if self._bus is not None:
                self._bus.emit("mac", self.node_id, "csma_failure",
                               dst=op.frame.dst, retries=op.retries)
            self._retry(op)
        else:
            self._backoff(op)

    def _tx_done(self, op: _TxOp) -> None:
        # never stale: a crash disarms it, an op on the air is not preempted
        if not op.frame.ack_request:
            self._finish(op, True)
            return
        # the ack-wait: the radio's address filter passes an Imm-ACK
        # with this sequence number until the timer is disarmed
        self.radio.ack_seq = op.frame.seq
        self._ack_timer_event = self.sim.schedule(
            self.params.ack_wait, self._ack_timeout, op
        )

    def _ack_timeout(self, op: _TxOp) -> None:
        # never stale: a crash cancels it, an ACK wait is not preempted
        self._end_ack_wait()
        self._counts["mac.ack_timeouts"] += 1
        self._retry(op)

    def _end_ack_wait(self) -> None:
        """Forget the ACK timer and shut the radio's ACK window."""
        self._ack_timer_event = None
        self.radio.ack_seq = None

    def _retry(self, op: _TxOp) -> None:
        op.retries += 1
        limit = (
            self.params.indirect_max_retries
            if op.indirect_child is not None
            else self.params.max_retries
        )
        if op.retries > limit:
            self._counts["mac.tx_failures"] += 1
            if self._bus is not None:
                self._bus.emit("mac", self.node_id, "tx_failure",
                               dst=op.frame.dst, retries=op.retries)
            self._finish(op, False)
            return
        self._counts["mac.link_retries"] += 1
        if self._bus is not None:
            self._bus.emit("mac", self.node_id, "link_retry",
                           dst=op.frame.dst, attempt=op.retries)
        # The paper's fix for hidden terminals (§7.1): wait a random
        # duration in [0, d] before re-running CSMA for the retry.
        # Indirect frames retry quickly instead (§9.5 improvement 3) —
        # the sleepy child is listening *right now*.
        d = self.params.retry_delay
        if op.indirect_child is not None:
            d = min(d, 0.005)
        if d > 0:
            retry_rng = self._retry_rng
            if retry_rng is None:
                retry_rng = self._retry_rng = self.rng.stream(
                    f"retry:{self.node_id}")
            # Random.uniform(0.0, d) is 0.0 + (d - 0.0) * random():
            # bit for bit this product, without uniform's call
            delay = d * retry_rng.random()
        else:
            delay = 0.0
        self.sim.schedule_unref(delay, self._retry_fire, op)

    def _retry_fire(self, op: _TxOp) -> None:
        # a retry reuses the loaded buffer and re-runs CSMA from the start
        if op is not self._current:
            return  # preempted during its retry wait
        op.nb = 0
        op.be = self.params.min_be
        self._backoff(op)

    def _finish(self, op: _TxOp, success: bool) -> None:
        op.frame.retries_used = op.retries
        self._current = None
        if success:
            self._counts["mac.tx_success"] += 1
        child = op.indirect_child
        if child is not None and not success:
            # park it again; the child will poll later
            self._counts["mac.indirect_requeue"] += 1
            op.retries = 0
            self._indirect[child].appendleft(op)
        else:
            if op.on_done is not None:
                op.on_done(success)
            if child is not None:
                # keep draining while the child is listening
                self._release_indirect(child)
        if self._queue:
            self._kick()
        elif self.on_idle is not None:
            self.on_idle()

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame, sender_id: int) -> None:
        """The radio's upcall: ``frame`` passed its address filter
        (``Radio.accepts``), so it is this node's to process."""
        self._cpu._busy += self.params.per_frame_cpu
        kind = frame.kind
        if kind is _ACK:
            # Imm-ACKs carry no addresses: the radio's address filter
            # passes one only during our ack-wait, with the sequence
            # number of the frame in flight.
            op = self._current
            self._ack_timer_event.cancel()
            self._ack_timer_event = None
            self.radio.ack_seq = None
            if (op.frame.kind is _DATA_REQUEST
                    and self.on_poll_ack is not None):
                self.on_poll_ack(frame.pending)
            self._finish(op, True)
            return
        if frame.ack_request:
            # link ACK one RX->TX turnaround from now; a data request's
            # tells the child whether frames are parked for it
            ack = _new_frame(Frame)  # slot stores, as in ``send``
            ack.kind = _ACK
            ack.src = self.node_id
            ack.dst = frame.src
            ack.seq = frame.seq
            ack.pending = (kind is _DATA_REQUEST
                           and self._pending_for(frame.src))
            ack.ack_request = False
            ack.payload = None
            ack.payload_bytes = 0
            ack.retries_used = 0
            ack.byte_size = ACK_FRAME_BYTES
            ack.is_ack = True
            self.sim.schedule_unref(
                self.radio.params.turnaround_time, self._ack_fire, ack)
        if kind is _DATA_REQUEST:
            # a sleepy child polled us: release its parked frames
            self._release_indirect(frame.src)
            return
        # duplicate suppression: the sender repeats a frame whose ACK we
        # lost; accept each (src, seq) once.
        if self._dedup.get(frame.src) == frame.seq:
            self._counts["mac.duplicates"] += 1
            return
        self._dedup[frame.src] = frame.seq
        if self.on_data_pending is not None:
            self.on_data_pending(frame.pending)
        if self.on_receive is not None:
            self.on_receive(frame.payload, frame.src, frame)

    def _ack_fire(self, ack: Frame) -> None:
        if not self.radio.powered:
            return  # node crashed between receiving the frame and ACKing
        if self.radio._tx_busy:
            self._counts["mac.ack_suppressed"] += 1
            return  # half-duplex: cannot ACK while transmitting
        self.radio.transmit(ack, ack.byte_size, self._ack_sent)

    def _ack_sent(self) -> None:
        # The radio ends a transmission in LISTEN; let the poll layer
        # decide whether a sleepy node can go back to sleep.
        if self._current is None and not self._queue and self.on_idle is not None:
            self.on_idle()

    def _release_indirect(self, child: int) -> None:
        q = self._indirect.get(child)
        if not q:
            return
        op = q.popleft()
        op.frame.pending = len(q) > 0  # App. C: keep child awake if more
        # §9.5 improvement 1: indirect messages are prioritised over the
        # current packet being sent — they jump the queue, and an op
        # that is still contending for the channel (not yet on the air,
        # not awaiting its ACK) is preempted and retried afterwards.
        self._queue.insert(0, op)
        cur = self._current
        if (
            cur is not None
            and cur.indirect_child is None
            and not self.radio._tx_busy
            and not self.radio._load_busy
            and self._ack_timer_event is None
        ):
            self._counts["mac.preemptions"] += 1
            # cur's pending CSMA or retry event still names it, so the
            # frame goes back as a fresh op that the event cannot revive
            again = _TxOp(cur.frame, cur.on_done)
            again.retries = cur.retries
            self._current = None
            self._queue.insert(1, again)
        self._kick()
