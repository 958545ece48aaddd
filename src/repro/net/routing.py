"""Routing: static tables and a Thread-like mesh.

Thread (§3.2) builds a full mesh among powered, always-on routers and
attaches battery-powered sleepy leaves to a single parent router.  We
reproduce that structure: :class:`MeshRouting` computes shortest paths
over the router connectivity graph (BFS on the medium's geometry),
attaches each leaf to its best (nearest) router, and sends all
off-mesh traffic toward the border router.  Experiments that need an
exact path (the chain topologies of §7) use :class:`StaticRouting`.

A Thread router holds a next hop per *router*, not per pair, and a
workload only ever asks about the destinations its flows use, so
:class:`MeshRouting` keeps one BFS tree per destination asked about and
grows it only as far as the farthest node that has asked: what routing
costs follows the traffic, not the size of the mesh.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class StaticRouting:
    """An explicit (node, dst) -> next-hop table."""

    def __init__(self) -> None:
        self._table: Dict[Tuple[int, int], int] = {}

    def set_route(self, node: int, dst: int, next_hop: int) -> None:
        """Install one entry."""
        self._table[(node, dst)] = next_hop

    def add_path(self, path: Sequence[int]) -> None:
        """Install forward and reverse routes along ``path`` for its endpoints
        and for every intermediate destination."""
        for i, node in enumerate(path):
            for j, dst in enumerate(path):
                if i == j:
                    continue
                step = path[i + 1] if j > i else path[i - 1]
                self._table[(node, dst)] = step

    def next_hop(self, node: int, dst: int) -> Optional[int]:
        """Next hop from ``node`` toward ``dst`` (None if no route)."""
        if node == dst:
            return None
        return self._table.get((node, dst))


class _RouteTree:
    """A BFS tree rooted at one destination, grown on demand.

    ``parent[v]`` is v's next hop toward the root.  A paused search
    visits nodes in the same order as a finished one (same root, same
    sorted adjacency, the queue saved in ``frontier``), so every parent
    pointer is the one the full BFS assigns; an empty ``frontier``
    means the tree is complete.
    """

    __slots__ = ("parent", "frontier")

    def __init__(self, root: int):
        self.parent: Dict[int, Optional[int]] = {root: None}
        self.frontier = deque([root])


class MeshRouting:
    """Thread-like routing over a medium's connectivity graph.

    * Routers (and the border router) form the BFS mesh.
    * Each leaf routes everything through its parent; the parent knows
      its attached leaves.
    * Destinations not in the mesh (cloud hosts) route to the border
      router, which owns the wired uplink.
    """

    def __init__(
        self,
        border_id: int,
        router_ids: Iterable[int],
        leaf_parents: Optional[Dict[int, int]] = None,
    ):
        self.border_id = border_id
        self.router_ids = sorted(set(router_ids) | {border_id})
        self.leaf_parents = dict(leaf_parents or {})
        #: frozen copy for the per-packet membership test; next_hop is
        #: called once per fragment per hop, so on hundred-node meshes
        #: rebuilding set(router_ids) there dominated forwarding cost
        self._router_set = frozenset(self.router_ids)
        #: router -> sorted in-range routers, as of the last rebuild();
        #: None until then
        self._adj: Optional[Dict[int, List[int]]] = None
        #: destination -> its BFS tree, created on first ask
        self._trees: Dict[int, _RouteTree] = {}

    @classmethod
    def build(
        cls,
        medium,
        border_id: int,
        router_ids: Iterable[int],
        leaf_ids: Iterable[int] = (),
    ) -> "MeshRouting":
        """Construct routes from the medium's geometry.

        Each leaf attaches to the nearest in-range router (its Thread
        parent).
        """
        routing = cls(border_id, router_ids)
        for leaf in leaf_ids:
            candidates = [
                r for r in routing.router_ids if medium.in_range(leaf, r)
            ]
            if not candidates:
                raise ValueError(f"leaf {leaf} has no router in range")
            parent = min(candidates, key=lambda r: (medium.distance(leaf, r), r))
            routing.leaf_parents[leaf] = parent
        routing.rebuild(medium)
        return routing

    def rebuild(self, medium) -> None:
        """Take the router mesh from current geometry; forget old routes.

        Routes are static until the next call: lookups grow shortest-path
        trees over the adjacency captured here, not over the live medium.
        """
        routers = self._router_set = frozenset(self.router_ids)
        self._adj = {
            r: sorted(n for n in medium.neighbors(r) if n in routers)
            for r in self.router_ids
        }
        self._trees = {}

    def parent_of(self, leaf: int) -> int:
        """The Thread parent router of a leaf."""
        return self.leaf_parents[leaf]

    def next_hop(self, node: int, dst: int) -> Optional[int]:
        """Next hop from ``node`` toward ``dst``."""
        if self._adj is None:
            raise RuntimeError("call rebuild()/build() before routing")
        if node == dst:
            return None
        # Leaves send everything to their parent.
        if node in self.leaf_parents:
            return self.leaf_parents[node]
        # Routing toward a leaf: deliver to its parent first.
        if dst in self.leaf_parents:
            parent = self.leaf_parents[dst]
            if node == parent:
                return dst
            return self._mesh_hop(node, parent)
        # Off-mesh destinations go via the border router.
        if dst not in self._router_set:
            if node == self.border_id:
                return dst  # resolved by the border router's wired links
            return self._mesh_hop(node, self.border_id)
        return self._mesh_hop(node, dst)

    def _mesh_hop(self, node: int, dst: int) -> Optional[int]:
        """Next hop on a shortest router path (None if unreachable).

        Two dict lookups once ``dst``'s tree has reached ``node``;
        otherwise the tree's BFS resumes until it does or runs out.
        """
        if node == dst:
            return None
        tree = self._trees.get(dst)
        if tree is None:
            tree = self._trees[dst] = _RouteTree(dst)
        parent = tree.parent
        hop = parent.get(node)
        if hop is not None:
            return hop
        frontier = tree.frontier
        adj = self._adj
        while frontier and node not in parent:
            u = frontier.popleft()
            for v in adj.get(u, ()):  # sorted: ties break by id
                if v not in parent:
                    parent[v] = u
                    frontier.append(v)
        return parent.get(node)

    def hops_between(self, a: int, b: int) -> int:
        """Hop count of the current route from a to b (for experiments)."""
        hops = 0
        node = a
        seen = set()
        while node != b:
            if node in seen or hops > 64:
                raise RuntimeError("routing loop")
            seen.add(node)
            nxt = self.next_hop(node, b)
            if nxt is None:
                raise RuntimeError(f"no route {a}->{b} at {node}")
            node = nxt
            hops += 1
        return hops
