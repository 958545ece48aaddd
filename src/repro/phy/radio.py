"""The per-node radio state machine.

Transmission is a two-phase operation matching the paper's measurement
(§6.4) that a 127-byte frame takes 8.2 ms end to end although its air
time is only 4.1 ms: first an SPI-load phase (charged to the CPU meter,
radio still able to listen), then the air phase (radio in TX, frame on
the medium).  The MAC drives CSMA in software, so between backoff slots
the radio stays in LISTEN — the fix for the AT86RF233 "deaf listening"
problem described in §4.  Setting ``deaf_csma=True`` restores the broken
hardware behaviour for ablation experiments.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.phy.energy import CpuMeter, EnergyLedger, RadioState
from repro.phy.medium import Medium, Transmission
from repro.phy.params import BROADCAST, PhyParams
from repro.sim.engine import Simulator

_TX = RadioState.TX
_new_transmission = Transmission.__new__


class Radio:
    """Half-duplex 802.15.4 radio bound to one node."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        node_id: int,
        position: tuple,
        params: Optional[PhyParams] = None,
        deaf_csma: bool = False,
    ):
        self.sim = sim
        self.medium = medium
        self.node_id = node_id
        self.params = params or medium.params
        self.deaf_csma = deaf_csma
        self.energy = EnergyLedger(sim)
        self.cpu = CpuMeter(sim)
        # PHY constants folded once at construction: air/SPI time is
        # computed and the frame size checked for every load, transmit
        # and delivery, and they never change after a radio is built.
        p = self.params
        self._air_per_byte = 8.0 / p.bit_rate
        self._air_base = p.phy_preamble_bytes * self._air_per_byte
        self._spi_factor = p.spi_overhead_factor - 1.0
        self._max_frame_bytes = p.max_frame_bytes
        #: set by the MAC layer: called with (frame, sender_id) for each
        #: clean frame the address filter passes
        self.on_frame: Optional[Callable[[object, int], None]] = None
        #: sequence number of the link ACK the MAC is waiting for, None
        #: outside an ack-wait (written by the MAC with its ack timer)
        self.ack_seq: Optional[int] = None
        self._listen_since: float = sim.now
        self._tx_busy = False
        self._load_busy = False
        #: False while the node is crashed (fault injection)
        self.powered = True
        #: bumped by every power_off; a scheduled completion carries the
        #: epoch it was scheduled in, so work in flight at a crash
        #: evaporates however soon the radio is powered again
        self._power_epoch = 0
        self.frames_sent = 0
        self.frames_received = 0
        medium.register(self, position)

    def collect_metrics(self, metrics) -> None:
        """Export energy/traffic state as gauges (snapshot-time pull,
        registered by the node): the ledger already holds the state
        totals, so the radio hot path carries no metrics code."""
        nid = self.node_id
        for state, seconds in self.energy._settled().items():
            metrics.gauge(
                "phy.radio_time_seconds", node=nid, state=state.value
            ).set(seconds)
        metrics.gauge("phy.radio_duty_cycle", node=nid).set(
            self.energy.radio_duty_cycle()
        )
        metrics.gauge("phy.cpu_busy_seconds", node=nid).set(
            self.cpu.busy_time()
        )
        metrics.gauge("phy.frames_sent", node=nid).set(self.frames_sent)
        metrics.gauge("phy.frames_received", node=nid).set(
            self.frames_received
        )

    # ------------------------------------------------------------------
    # state control (driven by the MAC)
    # ------------------------------------------------------------------
    def power_off(self) -> None:
        """Cut power (node crash): abort any load/transmit in progress.

        A frame already on the air is truncated — the medium spoils it
        so no receiver gets a clean copy.  The energy ledger moves to
        SLEEP (a dead radio draws nothing; SLEEP is the closest state
        the ledger models).
        """
        if not self.powered:
            return
        self.powered = False
        self._power_epoch += 1
        self._tx_busy = False
        self._load_busy = False
        self.ack_seq = None
        self.medium.drop_in_flight(self.node_id)
        if self.energy.state is not RadioState.SLEEP:
            self.energy.transition(RadioState.SLEEP)

    def power_on(self) -> None:
        """Restore power (node reboot): cold-start into LISTEN."""
        if self.powered:
            return
        self.powered = True
        self.energy.transition(RadioState.LISTEN)
        self._listen_since = self.sim.now

    def listen(self) -> None:
        """Enter RX mode; the radio can now hear frames."""
        if not self.powered:
            return
        if self.energy.state is not RadioState.LISTEN:
            self.energy.transition(RadioState.LISTEN)
            self._listen_since = self.sim.now

    def sleep(self) -> None:
        """Enter the low-power sleep state (cannot hear frames)."""
        if not self.powered:
            return
        if self._tx_busy:
            raise RuntimeError("cannot sleep while transmitting")
        if self.energy.state is not RadioState.SLEEP:
            self.energy.transition(RadioState.SLEEP)

    def go_deaf(self) -> None:
        """Enter the hardware-CSMA backoff state: awake but not receiving."""
        if not self.powered:
            return
        if self.energy.state is not RadioState.DEAF:
            self.energy.transition(RadioState.DEAF)

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def load(self, frame_bytes: int, on_done: Callable[..., None], *args: object) -> None:
        """Upload a frame to the radio's buffer over SPI.

        This happens *before* CSMA (real radios transmit from the frame
        buffer), takes the §6.4-measured SPI time, keeps the radio able
        to listen, and is charged to the CPU meter.  Retries reuse the
        loaded buffer without paying this again.

        ``on_done(*args)`` fires when the load completes; passing args
        through lets the MAC avoid a per-frame closure allocation.
        """
        if not self.powered:
            raise RuntimeError(f"node {self.node_id}: SPI load while powered off")
        if self._load_busy:
            raise RuntimeError(f"node {self.node_id}: SPI load while loading")
        if frame_bytes > self._max_frame_bytes:
            raise self._oversize(frame_bytes)
        self._load_busy = True
        spi = (self._air_base + frame_bytes * self._air_per_byte) * self._spi_factor
        self.cpu._busy += spi
        # handle-free: an SPI load completion is never cancelled
        self.sim.schedule_unref(spi, self._finish_load, self._power_epoch, on_done, args)

    def _finish_load(self, epoch: int, on_done: Callable[..., None],
                     args: tuple = ()) -> None:
        if epoch != self._power_epoch:
            return  # crashed mid-load (rebooted or not); the buffer is gone
        self._load_busy = False
        on_done(*args)

    def transmit(self, frame: object, frame_bytes: int,
                 on_done: Callable[..., None], *args: object) -> None:
        """Put a frame on the air from the radio's buffer.

        A data frame was uploaded by :meth:`load` first; a link-layer
        ACK is hardware-generated and needs no upload.  This call is the
        commit point: the frame is on the air when it returns.  One
        medium event ends it for everyone: ``Medium._end_transmission``
        delivers it to the hearers, then returns this radio to LISTEN
        and runs ``on_done(*args)``.  A receiver that already hears
        something gets a corrupted copy of the new frame and of every
        frame it was hearing.
        """
        if not self.powered:
            raise RuntimeError(f"node {self.node_id}: transmit while powered off")
        if self._tx_busy:
            raise RuntimeError(f"node {self.node_id}: transmit while busy")
        if frame_bytes > self._max_frame_bytes:
            raise self._oversize(frame_bytes)
        self._tx_busy = True
        air = self._air_base + frame_bytes * self._air_per_byte
        sim = self.sim
        now = sim.now
        # Inlined EnergyLedger.transition(TX): two transitions per frame
        # on the air makes the call overhead itself measurable.
        energy = self.energy
        energy._totals[energy.state.index] += now - energy._since
        energy.state = _TX
        energy._since = now
        # The medium's side of the frame, here because this is its one
        # caller; the Transmission is built by slot stores, as the
        # kernel builds an Event.
        medium = self.medium
        tx = _new_transmission(Transmission)
        tx.sender = self
        tx.frame = frame
        tx.start = now
        tx.end = now + air
        tx.spoiled = spoiled = set()
        tx.on_done = on_done
        tx.args = args
        channel = medium._channel
        if channel is None:
            medium._build_cache()
            channel = medium._channel
        for rcv_id, _, heard in channel[self.node_id]:
            if heard:
                spoiled.add(rcv_id)
                for other in heard:
                    other.spoiled.add(rcv_id)
            heard.append(tx)
        medium._active[tx] = None
        if medium._metrics is not None:
            medium._node_counter(medium._m_tx, "phy.tx", self.node_id).inc()
        if medium._bus is not None:
            medium._bus.emit("phy", self.node_id, "tx_begin", air_time=air)
        # Handle-free schedule: nothing ever cancels a frame's air-time
        # expiry, so the kernel can skip the Event allocation.
        sim.schedule_unref(air, medium._end_transmission, tx)

    def _oversize(self, frame_bytes: int) -> ValueError:
        return ValueError(
            f"frame of {frame_bytes} B exceeds 802.15.4 maximum "
            f"{self._max_frame_bytes} B"
        )

    # ------------------------------------------------------------------
    # receive path (called by the medium)
    # ------------------------------------------------------------------
    def accepts(self, frame: object) -> bool:
        """The transceiver's address filter: is a clean ``frame`` ours?

        The AT86RF233's extended operating mode matches addresses in
        hardware, as it generates the link ACK: a data or command frame
        passes at the node it is addressed to and, broadcast, at every
        node; an Imm-ACK carries no address and passes at a radio that
        is waiting for its sequence number (``ack_seq``) — so a
        bystander in its own ack-wait on the same number takes a
        neighbour's ACK for its own, as on the hardware.  A frame that
        fails was still received by the channel's account (the medium
        counts it, it collided, it kept the radio listening); it is
        never read out, so it costs the MCU nothing.  Duck-typed: an
        object that does not say whether it is an ACK (a bare test
        frame) has nothing to match and passes everywhere.
        """
        is_ack = getattr(frame, "is_ack", None)
        if is_ack is None:
            return True
        if is_ack:
            return frame.seq == self.ack_seq
        dst = frame.dst
        return dst == self.node_id or dst == BROADCAST

    def deliver(self, frame: object, sender_id: int) -> None:
        """A clean frame passed the address filter (the medium asks
        ``accepts`` first): charge the SPI read-out and pass it up."""
        if not self.powered:
            return
        self.frames_received += 1
        size = getattr(frame, "byte_size", 32)
        self.cpu._busy += (self._air_base + size * self._air_per_byte) * self._spi_factor
        if self.on_frame is not None:
            self.on_frame(frame, sender_id)
