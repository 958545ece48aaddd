"""The medium before it cached anything, kept as the oracle.

:class:`BruteMedium` answers every question from geometry: range is a
distance test per pair; carrier sense (the audible list the MAC's
``_cca`` reads) and the collision marking in ``begin_transmission``
(done before the frame joins ``_active``) scan every frame in flight;
the end of a frame (``_end_transmission``: delivery, then the sender's
release) sweeps every registered radio through one general loop; and
the neighbour sets come from the O(n²) pairwise sweep.  Its radios are
:class:`BruteRadio`, whose ``transmit`` hands the frame to
``begin_transmission`` as a separate call, where ``Radio.transmit``
does the medium's side itself.  The equivalence suites
(tests/test_phy_medium.py, tests/test_kernel_fastpath.py) hold
:class:`repro.phy.medium.Medium` and :class:`repro.phy.radio.Radio`
to byte-identical behaviour against it.
"""

from repro.phy.energy import RadioState
from repro.phy.medium import Medium, Transmission
from repro.phy.radio import Radio


def carrier_busy(medium, node_id):
    """Is any frame on the air audible at ``node_id``?  (What the MAC's
    clear-channel assessment reads, without its counter.)"""
    if medium._audible is None:
        medium._build_cache()
    return bool(medium._audible[node_id])


class BruteRadio(Radio):
    """A radio whose frames go on the air through the brute medium's
    ``begin_transmission``."""

    def transmit(self, frame, frame_bytes, on_done, *args):
        if not self.powered:
            raise RuntimeError(f"node {self.node_id}: transmit while powered off")
        if self._tx_busy:
            raise RuntimeError(f"node {self.node_id}: transmit while busy")
        if frame_bytes > self._max_frame_bytes:
            raise self._oversize(frame_bytes)
        self._tx_busy = True
        self.energy.transition(RadioState.TX)
        air = self._air_base + frame_bytes * self._air_per_byte
        self.medium.begin_transmission(self, frame, air, on_done, args)


class _BruteAudible:
    """``Medium._audible`` answered from geometry: receiver -> the
    frames in flight that it is in range of."""

    def __init__(self, medium):
        self.medium = medium

    def __getitem__(self, node_id):
        medium = self.medium
        return [tx for tx in medium._active
                if medium._in_range_uncached(tx.sender.node_id, node_id)]


class BruteMedium(Medium):
    """A :class:`Medium` that never consults the adjacency cache."""

    def register(self, radio, position):
        radio.__class__ = BruteRadio
        super().register(radio, position)

    def _in_range_uncached(self, a, b):
        if a == b or (a, b) in self._blocked_links:
            return False
        if (a, b) in self._forced_links:
            return True
        return self.distance(a, b) <= self.comm_range

    def _build_cache(self):
        sets = super()._build_cache()
        self._audible = _BruteAudible(self)
        return sets

    def _build_sets(self, sources, known):
        """Neighbor sets via the original O(n²) pairwise sweep."""
        return {
            a: {b for b in known if a != b and self._in_range_uncached(a, b)}
            for a in sources
        }

    def in_range(self, a, b):
        return self._in_range_uncached(a, b)

    def neighbors(self, node_id):
        return [n for n in self.radios if self._in_range_uncached(node_id, n)]

    def begin_transmission(self, sender, frame, air_time, on_done=None,
                           args=()):
        now = self.sim.now
        tx = Transmission(sender, frame, now, now + air_time, on_done, args)
        # any receiver that hears both this frame and an already-ongoing
        # one gets a corrupted copy of each
        sender_id = sender.node_id
        for other in self._active:
            for rcv_id in self.radios:
                if rcv_id == sender_id or rcv_id == other.sender.node_id:
                    continue
                if self._in_range_uncached(
                    sender_id, rcv_id
                ) and self._in_range_uncached(other.sender.node_id, rcv_id):
                    tx.spoiled.add(rcv_id)
                    other.spoiled.add(rcv_id)
        self._active[tx] = None
        if self._metrics is not None:
            self._node_counter(self._m_tx, "phy.tx", sender_id).inc()
        if self._bus is not None:
            self._bus.emit("phy", sender_id, "tx_begin", air_time=air_time)
        self.sim.schedule_unref(air_time, self._end_transmission, tx)
        return tx

    def _count(self, cache, name, rcv_id):
        if self._metrics is not None:
            self._node_counter(getattr(self, cache), name, rcv_id).inc()

    def _end_transmission(self, tx):
        """The whole end of a frame through one loop that tests
        everything for every radio in range (``Medium`` picks one of
        two specialised loops per frame)."""
        sender, frame, now = tx.sender, tx.frame, self.sim.now
        sender_id = sender.node_id
        bus = self._bus
        del self._active[tx]
        for rcv_id, radio in self.radios.items():
            if rcv_id == sender_id or not self._in_range_uncached(
                    sender_id, rcv_id):
                continue
            if rcv_id in tx.spoiled:
                self.frames_collided += 1
                self._count("_m_collisions", "phy.collisions", rcv_id)
                if bus is not None:
                    bus.emit("phy", rcv_id, "collision", sender=sender_id)
            elif not (radio.energy.state is RadioState.LISTEN
                      and radio._listen_since <= tx.start):
                self._count("_m_missed", "phy.missed_not_listening", rcv_id)
            elif any(loss(sender_id, rcv_id, now)
                     for loss in self.loss_models):
                self.frames_lost += 1
                self._count("_m_losses", "phy.losses", rcv_id)
                if bus is not None:
                    bus.emit("phy", rcv_id, "loss", sender=sender_id)
            elif any(drop(frame, sender_id, rcv_id)
                     for drop in self.frame_filters):
                self.frames_lost += 1
                self._count("_m_losses", "phy.losses", rcv_id)
            else:
                self.frames_delivered += 1
                self._count("_m_deliveries", "phy.deliveries", rcv_id)
                if radio.accepts(frame):
                    radio.deliver(frame, sender_id)
        if tx.on_done is not None and sender.powered:
            # the frame has left the air: the sender listens again,
            # then its MAC hears about it
            sender._tx_busy = False
            sender.frames_sent += 1
            sender.energy.transition(RadioState.LISTEN)
            sender._listen_since = now
            tx.on_done(*tx.args)


def use_brute_medium(medium: Medium) -> None:
    """Swap an already-built medium onto the brute path (the registered
    radios and link overrides carry over; anything cached is dropped)."""
    medium.__class__ = BruteMedium
    for radio in medium.radios.values():
        radio.__class__ = BruteRadio
    medium._invalidate_cache()
