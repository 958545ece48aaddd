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
from repro.mac.frame import BROADCAST
from repro.mac.link import MacLayer
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder

#: network-layer "all nodes on this link" destination (link-local
#: multicast, e.g. RPL's all-RPL-nodes group); never forwarded
MULTICAST_ALL = 0xFFFF


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
        trace: Optional[TraceRecorder] = None,
        reassemble_per_hop: bool = False,
        should_reassemble: Optional[Callable[[int], bool]] = None,
        reassembly_timeout: float = 5.0,
    ):
        self.sim = sim
        self.mac = mac
        self.node_id = node_id
        self.route_lookup = route_lookup
        self.deliver_up = deliver_up
        self.trace = trace or TraceRecorder()
        self.reassemble_per_hop = reassemble_per_hop
        # By default a node reassembles datagrams addressed to it; a
        # border router also reassembles datagrams leaving the mesh.
        self._should_reassemble = (
            should_reassemble or self._reassemble_if_local)
        self.fragmenter = Fragmenter(node_id)
        self.reassembler = Reassembler(
            sim, timeout=reassembly_timeout, trace=self.trace, node_id=node_id
        )
        #: (origin, tag) -> next hop for FRAGN forwarding
        self._forward_tags: Dict[Tuple[int, int], int] = {}
        mac.on_receive = self._on_mac_receive

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def send_multicast(self, packet: object, datagram_bytes: int) -> None:
        """Broadcast an unfragmentable link-local datagram (RPL DIOs)."""
        if datagram_bytes > self.fragmenter.max_frame_payload:
            raise ValueError("multicast datagrams must fit one frame")
        frags = self.fragmenter.fragment(packet, datagram_bytes,
                                         MULTICAST_ALL)
        self.trace.counters.incr("lowpan.multicasts_sent")
        self.mac.send(frags[0], frags[0].wire_bytes, BROADCAST)

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
        self.trace.counters.incr("lowpan.datagrams_sent")
        self.trace.counters.incr("lowpan.fragments_sent", len(frags))
        frag_done = _FragCompletion(len(frags), on_done)
        for frag in frags:
            self.mac.send(frag, frag.wire_bytes, next_hop, on_done=frag_done)

    def _reassemble_if_local(self, dst: int) -> bool:
        return dst == self.node_id

    # ------------------------------------------------------------------
    # receive / forward path
    # ------------------------------------------------------------------
    def _on_mac_receive(self, payload: object, src: int, frame: object) -> None:
        if not isinstance(payload, Fragment):
            # Non-6LoWPAN traffic (not used in practice, but don't crash).
            self.deliver_up(payload)
            return
        frag = payload
        if frag.final_dst == MULTICAST_ALL:
            # link-local multicast: consume locally, never forward
            self._receive_for_reassembly(frag)
            return
        if self.reassemble_per_hop:
            self._receive_for_reassembly(frag)
            return
        if frag.is_first:
            if self._should_reassemble(frag.final_dst):
                self._receive_for_reassembly(frag)
            else:
                self._forward_first(frag)
        else:
            key = (frag.origin, frag.tag)
            if key in self._forward_tags:
                self._forward_next(frag, self._forward_tags[key])
            else:
                self._receive_for_reassembly(frag)

    def _receive_for_reassembly(self, frag: Fragment) -> None:
        packet = self.reassembler.add(frag)
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
                self.trace.counters.incr("lowpan.hop_limit_exceeded")
                return
        next_hop = self.route_lookup(frag.final_dst)
        if next_hop is None:
            self.trace.counters.incr("lowpan.no_route")
            return
        if frag.fragmented:
            self._forward_tags[(frag.origin, frag.tag)] = next_hop
            self._trim_forward_tags()
        self.trace.counters.incr("lowpan.fragments_forwarded")
        self.mac.send(frag, frag.wire_bytes, next_hop)

    def _forward_next(self, frag: Fragment, next_hop: int) -> None:
        self.trace.counters.incr("lowpan.fragments_forwarded")
        self.mac.send(frag, frag.wire_bytes, next_hop)

    def _trim_forward_tags(self, limit: int = 64) -> None:
        # bound relay state deterministically (embedded memory discipline)
        while len(self._forward_tags) > limit:
            self._forward_tags.pop(next(iter(self._forward_tags)))
