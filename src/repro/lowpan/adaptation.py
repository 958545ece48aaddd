"""Per-node 6LoWPAN adaptation: compress, fragment, forward, reassemble.

Forwarding follows OpenThread's default *fragment forwarding*: a relay
routes each FRAG1 by the destination in its compressed header and
remembers ``(origin, tag) -> next hop`` so FRAGNs follow; only the final
destination reassembles.  Appendix A of the paper modifies OpenThread
to reassemble at *every* hop so RED/ECN can operate on whole packets;
``reassemble_per_hop=True`` reproduces that mode, handing complete
packets to the network layer's ``on_forward`` (where the RED queue
lives) instead of relaying raw fragments.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.lowpan.frag import Fragment, Fragmenter, Reassembler
from repro.mac.link import MacLayer
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder


class _FragCompletion:
    """Joins per-fragment MAC outcomes into one datagram callback."""

    __slots__ = ("remaining", "ok", "on_done")

    def __init__(self, remaining: int, on_done: Callable[[bool], None]):
        self.remaining = remaining
        self.ok = True
        self.on_done = on_done

    def __call__(self, success: bool) -> None:
        if not success:
            self.ok = False
        self.remaining -= 1
        if self.remaining == 0 and self.on_done is not None:
            self.on_done(self.ok)


class LowpanAdaptation:
    """Binds a node's network layer to its MAC through 6LoWPAN."""

    def __init__(
        self,
        sim: Simulator,
        mac: MacLayer,
        node_id: int,
        route_lookup: Callable[[int], Optional[int]],
        deliver_up: Callable[[object], None],
        should_reassemble: Callable[[int], bool],
        trace: Optional[TraceRecorder] = None,
        reassemble_per_hop: bool = False,
        reassembly_timeout: float = 5.0,
    ):
        self.sim = sim
        self.mac = mac
        self.node_id = node_id
        self.route_lookup = route_lookup
        self.deliver_up = deliver_up
        self.trace = trace or TraceRecorder()
        self.reassemble_per_hop = reassemble_per_hop
        self._should_reassemble = should_reassemble
        self.fragmenter = Fragmenter(node_id)
        self.reassembler = Reassembler(
            sim, timeout=reassembly_timeout, trace=self.trace, node_id=node_id
        )
        #: (origin, tag) -> next hop for FRAGN forwarding
        self._forward_tags: Dict[Tuple[int, int], int] = {}
        self._counts = self.trace.counters._counts  # a count is one dict store
        mac.on_receive = self._on_mac_receive

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def send_packet(
        self,
        packet: object,
        datagram_bytes: int,
        next_hop: int,
        final_dst: int,
        on_done: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Fragment and queue a compressed datagram toward ``next_hop``."""
        frags = self.fragmenter.fragment(packet, datagram_bytes, final_dst)
        counts = self._counts
        counts["lowpan.datagrams_sent"] += 1
        counts["lowpan.fragments_sent"] += len(frags)
        # an originated datagram (no on_done) joins no per-frame outcomes
        frag_done = (None if on_done is None
                     else _FragCompletion(len(frags), on_done))
        send = self.mac.send
        for frag in frags:
            send(frag, frag.wire_bytes, next_hop, frag_done)

    # ------------------------------------------------------------------
    # receive / forward path
    # ------------------------------------------------------------------
    def _on_mac_receive(self, frag: Fragment, src: int, frame: object) -> None:
        if not self.reassemble_per_hop:
            if frag.is_first:
                final_dst = frag.final_dst
                if (final_dst != self.node_id
                        and not self._should_reassemble(final_dst)):
                    self._forward_first(frag)
                    return
            else:
                next_hop = self._forward_tags.get((frag.origin, frag.tag))
                if next_hop is not None:
                    self._forward_next(frag, next_hop)
                    return
        # reassemble here; an unfragmented datagram is already whole
        packet = self.reassembler.add(frag) if frag.fragmented else frag.packet
        if packet is None:
            return
        # The network layer demuxes local packets and forwards the rest
        # (per-hop reassembly mode, and the border router's mesh->wired
        # transition, both land here with a non-local destination).
        self.deliver_up(packet)

    def _forward_first(self, frag: Fragment) -> None:
        # Route-over forwarding rewrites the hop limit in the compressed
        # header carried by the first fragment.
        hop_limit = getattr(frag.packet, "hop_limit", None)
        if hop_limit is not None:
            frag.packet.hop_limit = hop_limit - 1
            if frag.packet.hop_limit <= 0:
                self._counts["lowpan.hop_limit_exceeded"] += 1
                return
        next_hop = self.route_lookup(frag.final_dst)
        if next_hop is None:
            self._counts["lowpan.no_route"] += 1
            return
        if frag.fragmented:
            self._forward_tags[(frag.origin, frag.tag)] = next_hop
            self._trim_forward_tags()
        self._counts["lowpan.fragments_forwarded"] += 1
        self.mac.send(frag, frag.wire_bytes, next_hop)

    def _forward_next(self, frag: Fragment, next_hop: int) -> None:
        self._counts["lowpan.fragments_forwarded"] += 1
        self.mac.send(frag, frag.wire_bytes, next_hop)

    def _trim_forward_tags(self, limit: int = 64) -> None:
        # bound relay state deterministically (embedded memory discipline)
        while len(self._forward_tags) > limit:
            self._forward_tags.pop(next(iter(self._forward_tags)))
