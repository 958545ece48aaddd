"""The shared wireless channel.

Connectivity is range-based over node positions (with optional explicit
overrides for forcing a topology).  A frame is received cleanly only if

* the receiver is within range of the sender,
* the receiver's radio listened for the frame's entire air time
  (half-duplex and duty-cycling losses),
* no other in-range transmission overlapped the frame at the receiver
  (collisions — this is what makes hidden terminals lossy, §7.1), and
* no configured loss model dropped it (background interference).

Carrier sense answers "is any transmitter audible to this node right
now", so two senders that cannot hear each other will happily collide
at a middle node: the hidden-terminal problem studied in §7.

Hot-path design: connectivity is queried on every carrier-sense,
collision-mark, and delivery pass, but the topology only changes on
``register``/``force_link``/``block_link``.  The medium therefore
rebuilds, once per topology change, the adjacency sets
(``neighbor_sets``, for ``in_range``), a per-receiver list of the
frames audible there right now, and one channel table that gives each
sender its hearers as ``(receiver id, radio, audible list)`` in
registration order.  Carrier sense (the MAC's ``_cca``) is one truth
test on the audible list, and collision marking (``Radio.transmit``)
and delivery walk one sender's row: O(degree) whatever the size of
the network.  Those two passes live with their one caller each, so a
frame pays no call to reach them.
The original geometric path, which scans every frame in flight, lives
on as ``tests/reference_medium.py``; the determinism regression tests
assert both produce byte-identical event traces.

Scale design: the adjacency rebuild itself used to be an O(n²)
pairwise distance sweep, which dominates setup (and every topology
change) on hundred-node meshes.  The rebuild now buckets positions
into a uniform grid with cell size ``comm_range`` and only tests the
3x3 cell neighborhood of each node, so a rebuild costs O(n · degree).
The resulting neighbor sets are identical to the brute-force sweep
(kept in tests/reference_medium.py, asserted by tests/test_phy_medium.py).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.phy.energy import RadioState
from repro.phy.params import BROADCAST, PhyParams
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

_LISTEN = RadioState.LISTEN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.phy.radio import Radio

#: A loss model takes (sender_id, receiver_id, now) and returns True to drop.
LossModel = Callable[[int, int, float], bool]


class UniformLoss:
    """Drops frames uniformly at random with fixed probability.

    Optionally restricted to a specific directed link.  Used for
    controlled background-interference experiments.
    """

    def __init__(
        self,
        rate: float,
        rng: RngStreams,
        link: Optional[Tuple[int, int]] = None,
        stream: str = "frame-loss",
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("loss rate must be in [0, 1]")
        self.rate = rate
        self.rng = rng
        self.link = link
        self.stream = stream

    def __call__(self, sender: int, receiver: int, now: float) -> bool:
        if self.link is not None and (sender, receiver) != self.link:
            return False
        return self.rng.random(self.stream) < self.rate


class _LinkSet(set):
    """A set of (a, b) link overrides that invalidates the owning
    medium's adjacency cache on any mutation.

    Chaos/fault-injection code mutates ``_forced_links`` /
    ``_blocked_links`` directly (e.g. scheduling ``_blocked_links.clear``
    to heal a partition), so invalidation must live on the set itself
    rather than only in ``force_link``/``block_link``.
    """

    def __init__(self, medium: "Medium"):
        super().__init__()
        self._medium = medium

    def add(self, item) -> None:
        super().add(item)
        self._medium._invalidate_cache()

    def discard(self, item) -> None:
        super().discard(item)
        self._medium._invalidate_cache()

    def remove(self, item) -> None:
        super().remove(item)
        self._medium._invalidate_cache()

    def clear(self) -> None:
        super().clear()
        self._medium._invalidate_cache()

    def update(self, *others) -> None:
        super().update(*others)
        self._medium._invalidate_cache()


class Transmission:
    """One frame in flight on the channel."""

    __slots__ = ("sender", "frame", "start", "end", "spoiled",
                 "on_done", "args")

    def __init__(self, sender: "Radio", frame: object, start: float,
                 end: float, on_done: Optional[Callable[..., None]] = None,
                 args: tuple = ()):
        self.sender = sender
        self.frame = frame
        self.start = start
        self.end = end
        #: receivers whose copy was corrupted by an overlapping transmission
        self.spoiled: Set[int] = set()
        #: the sending radio's end-of-air completion, run by the same
        #: event that delivers the frame; None for a frame whose sender
        #: is not released from here (a bare test frame, a frame cut
        #: short by its sender's crash)
        self.on_done = on_done
        self.args = args


class Medium:
    """Range-based broadcast medium with collision detection."""

    def __init__(
        self,
        sim: Simulator,
        params: Optional[PhyParams] = None,
        rng: Optional[RngStreams] = None,
        comm_range: float = 10.0,
    ):
        self.sim = sim
        self.params = params or PhyParams()
        self.rng = rng or RngStreams(0)
        self.comm_range = comm_range
        self.radios: Dict[int, "Radio"] = {}
        self.positions: Dict[int, Tuple[float, float]] = {}
        #: the frames on the air, in the order they started (a dict, so
        #: that a frame's end of air removes it in O(1))
        self._active: Dict[Transmission, None] = {}
        self.loss_models: List[LossModel] = []
        #: (frame, sender, receiver) -> True to drop; for targeted
        #: fault-injection in tests (e.g. kill one datagram's fragments)
        self.frame_filters: List[Callable[[object, int, int], bool]] = []
        self._forced_links: Set[Tuple[int, int]] = _LinkSet(self)
        self._blocked_links: Set[Tuple[int, int]] = _LinkSet(self)
        #: node -> set of nodes that hear it; None until (re)built
        self._neighbor_sets: Optional[Dict[int, Set[int]]] = None
        #: receiver -> transmissions audible there right now: collision
        #: and carrier sense are asked *at a receiver*, so channel state
        #: follows radio range, not network size.  Dropped and rebuilt
        #: (from ``_active``) together with the adjacency cache.
        self._audible: Optional[Dict[int, List[Transmission]]] = None
        #: the channel table: sender -> ((rcv_id, radio, that receiver's
        #: ``_audible`` list), ...) in radio-registration order, so
        #: delivery iterates receivers in exactly the uncached order and
        #: the per-frame loops look nothing up
        self._channel: Optional[Dict[int, Tuple[
            Tuple[int, "Radio", List[Transmission]], ...]]] = None
        self.cache_rebuilds = 0
        self.frames_delivered = 0
        self.frames_collided = 0
        self.frames_lost = 0
        # Observability (None when disabled — each guard below is one
        # attribute load + identity test, so the disabled path stays on
        # the PR 1 fast path).  Per-receiver instruments are cached in
        # dicts keyed by node id so the delivery loop never hashes
        # label tuples.
        self._metrics = getattr(sim, "metrics", None)
        self._bus = getattr(sim, "trace_bus", None)
        if self._metrics is not None:
            self._m_tx: Dict[int, object] = {}
            self._m_collisions: Dict[int, object] = {}
            self._m_deliveries: Dict[int, object] = {}
            self._m_losses: Dict[int, object] = {}
            self._m_missed: Dict[int, object] = {}
            self._m_carrier_busy: Dict[int, object] = {}

    def _node_counter(self, cache: Dict[int, object], name: str,
                      node_id: int):
        counter = cache.get(node_id)
        if counter is None:
            counter = self._metrics.counter(name, node=node_id)
            cache[node_id] = counter
        return counter

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def register(self, radio: "Radio", position: Tuple[float, float]) -> None:
        """Attach a radio to the channel at the given position."""
        if radio.node_id in self.radios:
            raise ValueError(f"node {radio.node_id} already registered")
        self.radios[radio.node_id] = radio
        self.positions[radio.node_id] = position
        self._invalidate_cache()

    def force_link(self, a: int, b: int) -> None:
        """Make a<->b connected regardless of distance."""
        self._forced_links.add((a, b))
        self._forced_links.add((b, a))
        self._invalidate_cache()

    def block_link(self, a: int, b: int) -> None:
        """Make a<->b disconnected regardless of distance."""
        self._blocked_links.add((a, b))
        self._blocked_links.add((b, a))
        self._invalidate_cache()

    def unblock_link(self, a: int, b: int) -> None:
        """Undo a previous :meth:`block_link` (no-op if not blocked)."""
        self._blocked_links.discard((a, b))
        self._blocked_links.discard((b, a))
        self._invalidate_cache()

    def drop_in_flight(self, node_id: int) -> None:
        """Spoil every in-flight frame transmitted by ``node_id``.

        Used by fault injection when a node's radio powers off
        mid-transmission: the truncated frame is unreceivable at every
        listener (FCS failure), but the transmission object stays on
        the channel so overlap/collision accounting remains correct
        until its scheduled end time.  Its end of air no longer
        releases the sender: that radio lost the frame with its power,
        and may be rebooted and transmitting again by then.
        """
        for tx in self._active:
            if tx.sender.node_id == node_id:
                tx.spoiled.update(self.radios)
                tx.on_done = None

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two registered nodes."""
        (xa, ya), (xb, yb) = self.positions[a], self.positions[b]
        return math.hypot(xa - xb, ya - yb)

    # ------------------------------------------------------------------
    # adjacency cache
    # ------------------------------------------------------------------
    def _invalidate_cache(self) -> None:
        self._neighbor_sets = None
        self._audible = None
        self._channel = None

    def _spatial_buckets(self, cell: float) -> Dict[Tuple[int, int], List[int]]:
        """Uniform-grid bucketing of registered positions.

        With ``cell >= comm_range`` every node within range of ``a``
        lives in the 3x3 cell neighborhood of ``a``'s cell.
        Rebuilt together with (and invalidated by) the adjacency cache.
        """
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for nid in self.radios:
            x, y = self.positions[nid]
            key = (int(x // cell), int(y // cell))
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [nid]
            else:
                bucket.append(nid)
        return buckets

    def _build_sets(self, sources: List[int],
                    known: Set[int]) -> Dict[int, Set[int]]:
        """Neighbor sets via spatial bucketing: O(n · degree).

        Produces exactly the sets the pairwise sweep would: the same
        distance predicate (``math.hypot(...) <= comm_range``) decides
        range, blocked links beat forced links beat distance.
        """
        comm_range = self.comm_range
        # any positive cell works when nothing is in range by distance
        cell = comm_range if comm_range > 0 else 1.0
        positions = self.positions
        blocked = self._blocked_links
        buckets = self._spatial_buckets(cell)
        forced_out: Dict[int, List[int]] = {}
        for a, b in self._forced_links:
            forced_out.setdefault(a, []).append(b)
        hypot = math.hypot
        sets: Dict[int, Set[int]] = {}
        for a in sources:
            hears_a: Set[int] = set()
            pos = positions.get(a)
            if pos is not None:
                ax, ay = pos
                cx, cy = int(ax // cell), int(ay // cell)
                for mx in (cx - 1, cx, cx + 1):
                    for my in (cy - 1, cy, cy + 1):
                        for b in buckets.get((mx, my), ()):
                            if b == a or (a, b) in blocked:
                                continue
                            bx, by = positions[b]
                            if hypot(ax - bx, ay - by) <= comm_range:
                                hears_a.add(b)
            for b in forced_out.get(a, ()):
                if b != a and b in known and (a, b) not in blocked:
                    hears_a.add(b)
            sets[a] = hears_a
        return sets

    def _build_cache(self) -> Dict[int, Set[int]]:
        """(Re)build the adjacency cache from the current topology."""
        ids = list(self.radios)
        # forced links may reference ids with no registered radio; they
        # still answer in_range() truthfully, so include them as sources
        sources = list(ids)
        known = set(ids)
        for link in self._forced_links:
            for end in link:
                if end not in known:
                    known.add(end)
                    sources.append(end)
        sets = self._build_sets(sources, known)
        # registration-ordered receivers (registered radios only)
        order = {nid: i for i, nid in enumerate(ids)}
        radios = self.radios
        audible: Dict[int, List[Transmission]] = {nid: [] for nid in ids}
        self._channel = channel = {
            a: tuple((b, radios[b], audible[b])
                     for b in sorted((b for b in sets[a] if b in order),
                                     key=order.__getitem__))
            for a in sources
        }
        # frames already on the air are audible under the new topology
        for tx in self._active:
            for _, _, heard in channel[tx.sender.node_id]:
                heard.append(tx)
        self._audible = audible
        self._neighbor_sets = sets
        self.cache_rebuilds += 1
        return sets

    @property
    def neighbor_sets(self) -> Dict[int, Set[int]]:
        """node -> set of node ids that hear it (cached adjacency)."""
        sets = self._neighbor_sets
        if sets is None:
            sets = self._build_cache()
        return sets

    def in_range(self, a: int, b: int) -> bool:
        """True if node b can hear node a's transmissions."""
        sets = self._neighbor_sets
        if sets is None:
            sets = self._build_cache()
        # an id never registered nor forced is heard by nobody
        return b in sets.get(a, ())

    def neighbors(self, node_id: int) -> List[int]:
        """Nodes that can hear ``node_id``."""
        channel = self._channel
        if channel is None:
            self._build_cache()
            channel = self._channel
        return [rcv_id for rcv_id, _, _ in channel.get(node_id, ())]

    # ------------------------------------------------------------------
    # channel activity
    # ------------------------------------------------------------------
    def _end_transmission(self, tx: Transmission) -> None:
        """The one event that ends a frame: it leaves the air, every
        hearer that got a clean copy receives it, the sender is released."""
        sender = tx.sender
        sender_id = sender.node_id
        # a rebuild re-derives the audible lists from ``_active``,
        # so it must still see ``tx`` there
        channel = self._channel
        if channel is None:
            self._build_cache()
            channel = self._channel
        del self._active[tx]
        receivers = channel[sender_id]
        for _, _, heard in receivers:
            heard.remove(tx)
        spoiled = tx.spoiled
        frame = tx.frame
        start = tx.start
        loss_models = self.loss_models
        frame_filters = self.frame_filters
        metrics = self._metrics
        bus = self._bus
        now = self.sim.now
        if (metrics is None and bus is None
                and not loss_models and not frame_filters):
            # Nothing observes or perturbs this run: a frame is clean
            # wherever it was not spoiled and was listened to throughout.
            # Inlined Radio.accepts, the frame classified once so that
            # a clean hearer costs one comparison, and Radio.deliver (a
            # radio in LISTEN is powered): the SPI read-out is charged
            # and the frame passed up.
            is_ack = getattr(frame, "is_ack", None)
            size = getattr(frame, "byte_size", 32)
            if is_ack:
                seq = frame.seq
            else:
                # None: nothing to match (a broadcast, a bare test frame)
                dst = None if is_ack is None else frame.dst
                if dst == BROADCAST:
                    dst = None
            for rcv_id, radio, _ in receivers:
                if rcv_id in spoiled:
                    self.frames_collided += 1
                # listening continuously since tx start, as below
                elif (radio.energy.state is _LISTEN
                        and radio._listen_since <= start):
                    self.frames_delivered += 1
                    if (radio.ack_seq == seq if is_ack
                            else rcv_id == dst or dst is None):
                        radio.frames_received += 1
                        radio.cpu._busy += (
                            (radio._air_base + size * radio._air_per_byte)
                            * radio._spi_factor)
                        if radio.on_frame is not None:
                            radio.on_frame(frame, sender_id)
        else:
            for rcv_id, radio, _ in receivers:
                if rcv_id in spoiled:
                    self.frames_collided += 1
                    if metrics is not None:
                        self._node_counter(
                            self._m_collisions, "phy.collisions", rcv_id
                        ).inc()
                    if bus is not None:
                        bus.emit("phy", rcv_id, "collision", sender=sender_id)
                    continue
                # Hot (once per potential receiver per frame):
                # continuously in LISTEN since tx start?
                if (radio.energy.state is not _LISTEN
                        or radio._listen_since > start):
                    # Asleep, deaf (hardware-CSMA backoff), or transmitting.
                    if metrics is not None:
                        self._node_counter(
                            self._m_missed, "phy.missed_not_listening", rcv_id
                        ).inc()
                    continue
                if loss_models and any(
                    loss(sender_id, rcv_id, now) for loss in loss_models
                ):
                    self.frames_lost += 1
                    if metrics is not None:
                        self._node_counter(
                            self._m_losses, "phy.losses", rcv_id
                        ).inc()
                    if bus is not None:
                        bus.emit("phy", rcv_id, "loss", sender=sender_id)
                    continue
                if frame_filters and any(
                    f(frame, sender_id, rcv_id) for f in frame_filters
                ):
                    self.frames_lost += 1
                    if metrics is not None:
                        self._node_counter(
                            self._m_losses, "phy.losses", rcv_id
                        ).inc()
                    continue
                self.frames_delivered += 1
                if metrics is not None:
                    self._node_counter(
                        self._m_deliveries, "phy.deliveries", rcv_id
                    ).inc()
                # The address filter comes last: an overheard frame is
                # a clean reception like any other up to here (same
                # counters, same loss draws), it just is not read out.
                if radio.accepts(frame):
                    radio.deliver(frame, sender_id)
        on_done = tx.on_done
        if on_done is not None and sender.powered:
            # The frame has left the air: the sender returns to
            # listening (inlined EnergyLedger.transition, as in
            # Radio.transmit); its MAC may immediately put it to sleep.
            sender._tx_busy = False
            sender.frames_sent += 1
            energy = sender.energy
            energy._totals[energy.state.index] += now - energy._since
            energy.state = _LISTEN
            energy._since = now
            sender._listen_since = now
            on_done(*tx.args)
