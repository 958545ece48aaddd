"""RPL-lite: the IPv6 routing protocol for LLNs (RFC 6550, storing mode).

The pre-Thread TCP studies the paper tabulates (notably [66], "TCP
over RPL") ran on RPL rather than Thread; this module provides that
substrate so their context can be reproduced on its native routing
protocol, and so the library offers both of the LLN routing families.

What is implemented (the storing-mode core):

* **DIOs** — the root multicasts DODAG Information Objects governed by
  a Trickle timer; nodes compute a rank (parent rank + one
  MinHopRankIncrease per hop), pick the lowest-rank audible neighbour
  as preferred parent, and re-advertise with their own rank.
* **DAOs** — Destination Advertisement Objects flow from each node to
  the root along preferred parents; every node on the way stores a
  (target -> via-child) entry, building downward routes.
* **Routing** — upward traffic follows preferred parents; downward
  traffic follows stored DAO entries; off-mesh traffic exits at the
  root (the border router).  Parent loss (no DIO within a lifetime)
  triggers re-selection and a fresh DAO.

RPL control messages are ICMPv6 type 155 and ride the normal
6LoWPAN/MAC path: DIOs as link-local multicasts, DAOs as unicasts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.ipv6 import Ipv6Packet
from repro.net.icmpv6 import PROTO_ICMPV6
from repro.mac.trickle import TrickleTimer
from repro.sim.timers import Timer
from repro.sim.trace import TraceRecorder

INFINITE_RANK = 0xFFFF
MIN_HOP_RANK_INCREASE = 256
RPL_CONTROL_BYTES = 24  # ICMPv6 header + DIO/DAO base + options (approx.)


@dataclass
class _RplDio:
    """DODAG Information Object (the advertised fields we need)."""

    dodag_id: int
    rank: int
    version: int = 1

    @property
    def wire_bytes(self) -> int:
        return RPL_CONTROL_BYTES


@dataclass
class _RplDao:
    """Destination Advertisement Object: 'reach ``target`` via me'."""

    target: int
    advertiser: int

    @property
    def wire_bytes(self) -> int:
        return RPL_CONTROL_BYTES


class _RplNode:
    """One node's RPL state machine."""

    def __init__(
        self,
        node,
        is_root: bool = False,
        dio_imin: float = 0.5,
        dio_imax: float = 16.0,
        parent_lifetime: float = 60.0,
        dao_interval: float = 15.0,
    ):
        self.node = node
        self.sim = node.sim
        self.is_root = is_root
        self.trace: TraceRecorder = node.trace
        self.rank = 0 if is_root else INFINITE_RANK
        self.preferred_parent: Optional[int] = None
        self.parent_lifetime = parent_lifetime
        #: downward routes: target -> next hop (a child of ours)
        self.downward: Dict[int, int] = {}
        self._last_parent_dio = 0.0
        self._dio_trickle = TrickleTimer(
            self.sim, imin=dio_imin, imax=dio_imax, k=3,
            on_transmit=self._send_dio, rng=node.rng,
        )
        self._dao_timer = Timer(self.sim, self._send_dao, "rpl-dao")
        self._parent_timer = Timer(self.sim, self._check_parent, "rpl-parent")
        node.ipv6.register(PROTO_ICMPV6, self._on_control)
        self._dio_trickle.start()
        if not is_root:
            self._parent_timer.start(parent_lifetime)
            self._dao_timer.start(dao_interval)
        self._dao_interval = dao_interval

    # ------------------------------------------------------------------
    # control-message TX
    # ------------------------------------------------------------------
    def _send_dio(self) -> None:
        if self.rank == INFINITE_RANK:
            return  # not joined yet: nothing useful to advertise
        dio = _RplDio(dodag_id=0, rank=self.rank)
        packet = Ipv6Packet(
            src=self.node.node_id, dst=0xFFFF, next_header=PROTO_ICMPV6,
            payload=dio, payload_bytes=dio.wire_bytes, hop_limit=1,
        )
        self.trace.counters.incr("rpl.dios_sent")
        self.node.adaptation.send_multicast(packet, packet.datagram_bytes())

    def _send_dao(self) -> None:
        self._dao_timer.start(self._dao_interval)
        if self.is_root or self.preferred_parent is None:
            return
        dao = _RplDao(target=self.node.node_id, advertiser=self.node.node_id)
        self.trace.counters.incr("rpl.daos_sent")
        self._unicast_dao(dao, self.preferred_parent)

    def _unicast_dao(self, dao: _RplDao, next_hop: int) -> None:
        packet = Ipv6Packet(
            src=self.node.node_id, dst=next_hop,
            next_header=PROTO_ICMPV6, payload=dao,
            payload_bytes=dao.wire_bytes,
        )
        self.node.adaptation.send_packet(
            packet, packet.datagram_bytes(), next_hop, next_hop
        )

    # ------------------------------------------------------------------
    # control-message RX
    # ------------------------------------------------------------------
    def _on_control(self, packet: Ipv6Packet) -> None:
        payload = packet.payload
        if isinstance(payload, _RplDio):
            self._on_dio(payload, packet.src)
        elif isinstance(payload, _RplDao):
            self._on_dao(payload, packet.src)

    def _on_dio(self, dio: _RplDio, sender: int) -> None:
        if self.is_root:
            return
        candidate_rank = dio.rank + MIN_HOP_RANK_INCREASE
        if sender == self.preferred_parent:
            self._last_parent_dio = self.sim.now
            if candidate_rank != self.rank:
                self.rank = candidate_rank
                self._dio_trickle.hear_inconsistent()
            else:
                self._dio_trickle.hear_consistent()
            return
        if candidate_rank < self.rank:
            self.trace.counters.incr("rpl.parent_switches")
            self.preferred_parent = sender
            self.rank = candidate_rank
            self._last_parent_dio = self.sim.now
            self._dio_trickle.hear_inconsistent()
            self._send_dao()  # announce ourselves through the new parent

    def _on_dao(self, dao: _RplDao, sender: int) -> None:
        self.trace.counters.incr("rpl.daos_received")
        self.downward[dao.target] = sender
        if not self.is_root and self.preferred_parent is not None:
            # storing mode: propagate the target up the DODAG
            self._unicast_dao(
                _RplDao(target=dao.target, advertiser=self.node.node_id),
                self.preferred_parent,
            )

    def _check_parent(self) -> None:
        self._parent_timer.start(self.parent_lifetime)
        if self.is_root or self.preferred_parent is None:
            return
        if self.sim.now - self._last_parent_dio > self.parent_lifetime:
            self.trace.counters.incr("rpl.parent_timeouts")
            self.preferred_parent = None
            self.rank = INFINITE_RANK
            self._dio_trickle.hear_inconsistent()

    @property
    def _joined(self) -> bool:
        """True once the node has a finite rank in the DODAG."""
        return self.is_root or (
            self.preferred_parent is not None and self.rank < INFINITE_RANK
        )


class RplRouting:
    """A routing table driven by the RPL nodes' live state.

    Drop-in for ``StaticRouting``/``MeshRouting``: upward via preferred
    parents, downward via stored DAO routes, off-mesh via the root.
    """

    def __init__(self, root_id: int):
        self.root_id = root_id
        self._nodes: Dict[int, _RplNode] = {}

    def attach(self, rpl_node: _RplNode) -> None:
        self._nodes[rpl_node.node.node_id] = rpl_node

    def next_hop(self, node: int, dst: int) -> Optional[int]:
        if node == dst:
            return None
        state = self._nodes.get(node)
        if state is None:
            return None
        if dst in state.downward:
            return state.downward[dst]
        if node == self.root_id:
            if dst in self._nodes:
                return None  # in-DODAG but no DAO yet: unreachable
            return dst  # off-mesh: resolved by the root's wired links
        return state.preferred_parent  # default route: up

    def converged(self) -> bool:
        """True when every node has joined and the root can reach all."""
        if any(not n._joined for n in self._nodes.values()):
            return False
        root = self._nodes[self.root_id]
        others = set(self._nodes) - {self.root_id}
        return others <= set(root.downward)


def enable_rpl(net, root_id: Optional[int] = None, **rpl_kwargs) -> RplRouting:
    """Run RPL over an existing Network and swap its routing for the
    live DODAG.  Returns the RplRouting (also installed on the nodes).
    """
    root = net.border_id if root_id is None else root_id
    routing = RplRouting(root)
    for node_id, node in net.nodes.items():
        rpl = _RplNode(node, is_root=(node_id == root), **rpl_kwargs)
        routing.attach(rpl)
        node.routing = routing
        node.ipv6.routing = routing
    net.routing = routing
    return routing
