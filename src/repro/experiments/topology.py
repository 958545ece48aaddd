"""Network builders for the paper's experimental setups.

* :func:`build_pair` — two embedded nodes over one 802.15.4 hop
  (§6.3's node-to-node experiments).
* :func:`build_single_hop` — Figure 2: an embedded endpoint one hop
  from a border router, which bridges over a ~12 ms wired link to a
  Linux-class endpoint.
* :func:`build_chain` — §7's multihop line: node 0 is the border
  router, nodes 1..n form a chain where only adjacent nodes are in
  radio range (hidden terminals between non-adjacent senders).
* :func:`build_testbed` — a §9-style office mesh: a border router, a
  backbone of always-on routers placed so leaf traffic crosses 3-5
  hops, and sleepy leaf nodes at the far end.
* :func:`build_grid_mesh` / :func:`build_random_mesh` — hundred-node
  scale meshes of always-on routers (regular grid, or seeded uniform
  random placement re-drawn until connected), for the many-flow
  workloads in :mod:`repro.experiments.workload`.  Both builders
  verify full connectivity at build time and are deterministic in
  ``seed`` alone.
"""

from __future__ import annotations

import copy
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import faults as _faults
from repro import verify as _verify
from repro.core.params import TcpParams
from repro.core.socket_api import TcpStack
from repro.net.node import Node, NodeConfig
from repro.net.routing import MeshRouting, StaticRouting
from repro.net.udp import UdpStack
from repro.net.wired import CloudHost, WiredLink
from repro.phy.medium import Medium
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

#: node id used for the cloud server in builders that include one
CLOUD_ID = 1000


@dataclass
class Network:
    """Everything an experiment needs to drive a simulation."""

    sim: Simulator
    rng: RngStreams
    medium: Medium
    nodes: Dict[int, Node]
    routing: object
    cloud: Optional[CloudHost] = None
    wired: Optional[WiredLink] = None
    border_id: int = 0
    leaf_ids: List[int] = field(default_factory=list)
    #: FaultInjector armed via repro.faults.auto_inject (None otherwise)
    faults: Optional[object] = None
    #: InvariantEngine attached via repro.verify.auto_verify (None otherwise)
    verify: Optional[object] = None
    #: the wired hosts behind the border router (the cloud among them)
    hosts: Dict[int, CloudHost] = field(default_factory=dict)
    _tcp_stacks: Dict[int, TcpStack] = field(default_factory=dict, repr=False)
    _udp_stacks: Dict[int, UdpStack] = field(default_factory=dict, repr=False)

    def node(self, node_id: int) -> Node:
        """Convenience accessor."""
        return self.nodes[node_id]

    def endpoint(self, node_id: int):
        """The ``register``/``send`` surface of ``node_id``: a mote's
        IPv6 layer or a wired host."""
        node = self.nodes.get(node_id)
        if node is not None:
            return node.ipv6
        host = self.hosts.get(node_id)
        if host is None:
            raise ValueError(f"unknown node {node_id}")
        return host

    def tcp_stack(self, node_id: int,
                  default_params: Optional[TcpParams] = None) -> TcpStack:
        """The endpoint's one TCP stack, built on first use.

        A mote's stack records into the node's recorder, charges its
        CPU and couples §9.2 fast polling when the node is sleepy.
        ``default_params`` applies when the stack is built; asking for
        the built stack with different ones raises.
        """
        stack = self._tcp_stacks.get(node_id)
        if stack is None:
            netif = self.endpoint(node_id)
            node = self.nodes.get(node_id)
            stack = TcpStack(self.sim, netif, node_id, default_params,
                             trace=netif.trace,
                             cpu=node.radio.cpu if node else None,
                             sleepy=node.sleepy if node else None)
            self._tcp_stacks[node_id] = stack
        elif (default_params is not None
              and default_params != stack.default_params):
            raise ValueError(f"node {node_id}'s TCP stack was built with "
                             f"other default_params")
        return stack

    def udp_stack(self, node_id: int) -> UdpStack:
        """The endpoint's one UDP stack: a mote's own, or a host's,
        built on first use."""
        node = self.nodes.get(node_id)
        if node is not None:
            return node.udp
        stack = self._udp_stacks.get(node_id)
        if stack is None:
            stack = UdpStack(self.endpoint(node_id))
            self._udp_stacks[node_id] = stack
        return stack

    def total_frames_sent(self) -> int:
        """Frames transmitted by all radios (incl. ACKs) — Fig. 6d."""
        return sum(n.radio.frames_sent for n in self.nodes.values())

    def reset_meters(self) -> None:
        """Restart all duty-cycle meters (exclude warm-up)."""
        for n in self.nodes.values():
            n.reset_meters()

    def attach_metrics(self, metrics) -> None:
        """Attach ``metrics`` to a network built without one: every node
        registers as at construction, and every TCP stack at its next
        connection, so their counters cover the whole run."""
        self.sim.metrics = metrics
        for node in self.nodes.values():
            node.export_metrics(metrics)


def _clone_config(config: Optional[NodeConfig]) -> NodeConfig:
    return copy.deepcopy(config) if config is not None else NodeConfig()


def build_pair(
    seed: int = 0,
    node_config: Optional[NodeConfig] = None,
    spacing: float = 5.5,
) -> Network:
    """Two embedded nodes in direct radio range (node ids 0 and 1)."""
    sim = Simulator()
    rng = RngStreams(seed)
    medium = Medium(sim, rng=rng, comm_range=10.0)
    routing = StaticRouting()
    routing.add_path([0, 1])
    nodes = {
        i: Node(sim, medium, rng, i, (i * spacing, 0.0), routing,
                _clone_config(node_config))
        for i in (0, 1)
    }
    net = Network(sim, rng, medium, nodes, routing)
    net.faults = _faults.maybe_attach(net)
    net.verify = _verify.maybe_attach(net)
    return net


def _attach_cloud(
    net: Network,
    border: Node,
    wired_delay: float = 0.006,
    wired_loss: float = 0.0,
) -> None:
    wired = WiredLink(net.sim, net.rng, one_way_delay=wired_delay, loss_rate=wired_loss)
    cloud = CloudHost(net.sim, CLOUD_ID)
    cloud.attach(wired, gateway_id=border.node_id)
    border.add_wired_link(CLOUD_ID, wired)
    net.cloud = net.hosts[CLOUD_ID] = cloud
    net.wired = wired


def build_single_hop(
    seed: int = 0,
    node_config: Optional[NodeConfig] = None,
    wired_loss: float = 0.0,
) -> Network:
    """Figure 2: embedded endpoint (1) <-> border router (0) <-> cloud."""
    net = build_chain(1, seed=seed, node_config=node_config,
                      wired_loss=wired_loss)
    return net


def build_chain(
    num_hops: int,
    seed: int = 0,
    node_config: Optional[NodeConfig] = None,
    spacing: float = 8.0,
    comm_range: float = 10.0,
    wired_loss: float = 0.0,
    with_cloud: bool = True,
) -> Network:
    """A line of ``num_hops + 1`` nodes; node 0 is the border router.

    With ``spacing=8`` and ``comm_range=10``, only adjacent nodes hear
    each other, so the hidden-terminal and B/3-scheduling phenomena of
    §7 emerge naturally.
    """
    if num_hops < 1:
        raise ValueError("need at least one hop")
    sim = Simulator()
    rng = RngStreams(seed)
    medium = Medium(sim, rng=rng, comm_range=comm_range)
    routing = StaticRouting()
    path = list(range(num_hops + 1))
    nodes = {
        i: Node(sim, medium, rng, i, (i * spacing, 0.0), routing,
                _clone_config(node_config))
        for i in path
    }
    routing.add_path(path)
    # everything off-path routes toward the border router (node 0)
    for node in path:
        if node == 0:
            routing.set_route(0, CLOUD_ID, CLOUD_ID)
        else:
            routing.set_route(node, CLOUD_ID, path[path.index(node) - 1])
    net = Network(sim, rng, medium, nodes, routing, border_id=0)
    if with_cloud:
        _attach_cloud(net, nodes[0], wired_loss=wired_loss)
    net.faults = _faults.maybe_attach(net)
    net.verify = _verify.maybe_attach(net)
    return net


#: §9 testbed geometry: a border router, a 4-router backbone, and four
#: leaf positions at the far end giving 3-5 hop routes at -8 dBm
#: (comm_range=10).  Loosely shaped like Figure 3's office floor plan.
TESTBED_POSITIONS = {
    1: (0.0, 0.0),    # border router
    2: (8.0, 2.0),    # backbone routers
    3: (16.0, 0.0),
    4: (24.0, 2.0),
    5: (32.0, 0.0),
    12: (30.0, 8.0),  # leaf sensors (anemometers)
    13: (38.0, 4.0),
    14: (40.0, -4.0),
    15: (26.0, -6.0),
}


def build_testbed(
    seed: int = 0,
    node_config: Optional[NodeConfig] = None,
    leaf_poll=None,
    wired_loss: float = 0.0,
    sleepy_leaves: bool = True,
    retry_delay: float = 0.04,
) -> Network:
    """The §9 office testbed: border router 1, routers 2-5, leaves 12-15.

    ``retry_delay`` defaults to the 40 ms the §7.1 study recommends —
    without it, hidden terminals on the backbone cripple the mesh.
    """
    sim = Simulator()
    rng = RngStreams(seed)
    medium = Medium(sim, rng=rng, comm_range=10.0)
    router_ids = [1, 2, 3, 4, 5]
    leaf_ids = [12, 13, 14, 15]
    routing = MeshRouting(border_id=1, router_ids=router_ids)
    nodes: Dict[int, Node] = {}
    for nid, pos in TESTBED_POSITIONS.items():
        config = _clone_config(node_config)
        config.mac.retry_delay = retry_delay
        nodes[nid] = Node(sim, medium, rng, nid, pos, routing, config)
    # leaf parent selection + mesh routes need the radios registered
    for leaf in leaf_ids:
        candidates = [r for r in router_ids if medium.in_range(leaf, r)]
        if not candidates:
            raise RuntimeError(f"testbed geometry broken: leaf {leaf} isolated")
        parent = min(candidates, key=lambda r: (medium.distance(leaf, r), r))
        routing.leaf_parents[leaf] = parent
    routing.rebuild(medium)
    net = Network(
        sim, rng, medium, nodes, routing, border_id=1, leaf_ids=leaf_ids
    )
    if sleepy_leaves:
        for leaf in leaf_ids:
            parent = routing.parent_of(leaf)
            nodes[leaf].make_sleepy(nodes[parent], poll=leaf_poll)
    _attach_cloud(net, nodes[1], wired_loss=wired_loss)
    net.faults = _faults.maybe_attach(net)
    net.verify = _verify.maybe_attach(net)
    return net


# ----------------------------------------------------------------------
# hundred-node meshes
# ----------------------------------------------------------------------
def _positions_connected(
    positions: Dict[int, Tuple[float, float]], comm_range: float
) -> bool:
    """True if range-``comm_range`` connectivity over ``positions`` is a
    single component.

    Pure geometry (no Medium), so random placements can be rejected
    before any radios are built.  Uses the same uniform-grid bucketing
    as :class:`repro.phy.medium.Medium` so the check stays O(n · degree).
    """
    if not positions:
        return True
    buckets: Dict[Tuple[int, int], List[int]] = {}
    for nid, (x, y) in positions.items():
        buckets.setdefault((int(x // comm_range), int(y // comm_range)),
                           []).append(nid)
    start = next(iter(positions))
    seen = {start}
    frontier = deque([start])
    while frontier:
        a = frontier.popleft()
        ax, ay = positions[a]
        cx, cy = int(ax // comm_range), int(ay // comm_range)
        for mx in (cx - 1, cx, cx + 1):
            for my in (cy - 1, cy, cy + 1):
                for b in buckets.get((mx, my), ()):
                    if b in seen:
                        continue
                    bx, by = positions[b]
                    if math.hypot(ax - bx, ay - by) <= comm_range:
                        seen.add(b)
                        frontier.append(b)
    return len(seen) == len(positions)


def _draw_random_positions(
    rng: RngStreams,
    num_nodes: int,
    side: float,
    comm_range: float,
    max_tries: int,
    context: str,
) -> Dict[int, Tuple[float, float]]:
    """The random mesh's placement draw: whole placements from the
    ``"topology-placement"`` stream until one is connected."""
    for attempt in range(max_tries):
        positions = {
            nid: (rng.uniform("topology-placement", 0.0, side),
                  rng.uniform("topology-placement", 0.0, side))
            for nid in range(num_nodes)
        }
        if _positions_connected(positions, comm_range):
            return positions
    raise RuntimeError(
        f"{context}: no connected placement in {max_tries} tries; "
        f"grow `area` or the range"
    )


def _assert_connected(net: Network, context: str) -> None:
    """Builder invariant: every node reaches the border over the radio."""
    sets = net.medium.neighbor_sets
    seen = {net.border_id}
    frontier = deque([net.border_id])
    while frontier:
        a = frontier.popleft()
        for b in sets.get(a, ()):
            if b not in seen and b in net.nodes:
                seen.add(b)
                frontier.append(b)
    missing = sorted(set(net.nodes) - seen)
    if missing:
        raise RuntimeError(
            f"{context}: nodes {missing} unreachable from border "
            f"{net.border_id}"
        )


def _finish_mesh(
    sim: Simulator,
    rng: RngStreams,
    medium: Medium,
    nodes: Dict[int, Node],
    context: str,
    with_cloud: bool,
    wired_loss: float,
) -> Network:
    """Shared tail of the mesh builders: routing, checks, cloud, faults."""
    routing = MeshRouting(border_id=0, router_ids=list(nodes))
    for node in nodes.values():
        node.routing = routing
        node.ipv6.routing = routing
    routing.rebuild(medium)
    net = Network(sim, rng, medium, nodes, routing, border_id=0)
    _assert_connected(net, context)
    if with_cloud:
        _attach_cloud(net, nodes[0], wired_loss=wired_loss)
    net.faults = _faults.maybe_attach(net)
    net.verify = _verify.maybe_attach(net)
    return net


def build_grid_mesh(
    rows: int,
    cols: int,
    seed: int = 0,
    node_config: Optional[NodeConfig] = None,
    spacing: float = 8.0,
    comm_range: float = 10.0,
    retry_delay: float = 0.04,
    with_cloud: bool = False,
    wired_loss: float = 0.0,
) -> Network:
    """A ``rows x cols`` lattice of always-on routers.

    Node ``r * cols + c`` sits at ``(c * spacing, r * spacing)``; node 0
    (the corner) is the border router.  With the default
    ``spacing=8``/``comm_range=10`` only the 4-neighborhood is in radio
    range (diagonals are ~11.3 apart), so routes follow Manhattan paths
    and parallel transfers contend exactly like the §7 chains do.
    ``retry_delay`` defaults to the §7.1-recommended 40 ms — without it
    a dense mesh collapses under hidden-terminal collisions.
    """
    if rows < 1 or cols < 1:
        raise ValueError("need at least a 1x1 grid")
    if rows * cols > CLOUD_ID:
        raise ValueError(f"grid of {rows * cols} nodes collides with "
                         f"CLOUD_ID {CLOUD_ID}")
    sim = Simulator()
    rng = RngStreams(seed)
    medium = Medium(sim, rng=rng, comm_range=comm_range)
    placeholder = StaticRouting()  # replaced once radios are registered
    nodes: Dict[int, Node] = {}
    for r in range(rows):
        for c in range(cols):
            nid = r * cols + c
            config = _clone_config(node_config)
            config.mac.retry_delay = retry_delay
            nodes[nid] = Node(sim, medium, rng, nid,
                              (c * spacing, r * spacing), placeholder, config)
    return _finish_mesh(sim, rng, medium, nodes,
                        f"grid_mesh({rows}x{cols})", with_cloud, wired_loss)


def build_random_mesh(
    num_nodes: int,
    seed: int = 0,
    node_config: Optional[NodeConfig] = None,
    area: Optional[float] = None,
    comm_range: float = 10.0,
    retry_delay: float = 0.04,
    with_cloud: bool = False,
    wired_loss: float = 0.0,
    max_tries: int = 64,
) -> Network:
    """``num_nodes`` always-on routers placed uniformly at random.

    Placement draws from the seeded ``"topology-placement"`` RNG stream
    and is re-drawn wholesale until the geometry is a single connected
    component (checked before any radios are built), so the builder is
    deterministic in ``seed`` alone and never returns a partitioned
    mesh.  ``area`` is the square side length; the default sizes the
    area so the expected radio degree is ~10, which connects a
    100-node draw almost surely within a few tries.  Node 0 is the
    border router (wherever it landed).
    """
    if num_nodes < 1:
        raise ValueError("need at least one node")
    if num_nodes > CLOUD_ID:
        raise ValueError(f"{num_nodes} nodes collide with CLOUD_ID "
                         f"{CLOUD_ID}")
    side = area if area is not None else (
        comm_range * 0.55 * math.sqrt(num_nodes)
    )
    sim = Simulator()
    rng = RngStreams(seed)
    positions = _draw_random_positions(
        rng, num_nodes, side, comm_range, max_tries,
        f"random_mesh(n={num_nodes}, seed={seed})",
    )
    medium = Medium(sim, rng=rng, comm_range=comm_range)
    placeholder = StaticRouting()
    nodes: Dict[int, Node] = {}
    for nid, pos in positions.items():
        config = _clone_config(node_config)
        config.mac.retry_delay = retry_delay
        nodes[nid] = Node(sim, medium, rng, nid, pos, placeholder, config)
    return _finish_mesh(sim, rng, medium, nodes,
                        f"random_mesh(n={num_nodes})", with_cloud,
                        wired_loss)
