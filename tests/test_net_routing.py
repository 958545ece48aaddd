"""Routing: static tables and the Thread-like mesh."""

import random
from collections import deque

import pytest

from repro.experiments.topology import build_grid_mesh, build_random_mesh
from repro.net.routing import MeshRouting, StaticRouting
from repro.phy.medium import Medium
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


class TestStaticRouting:
    def test_path_installs_bidirectional_routes(self):
        r = StaticRouting()
        r.add_path([0, 1, 2, 3])
        assert r.next_hop(3, 0) == 2
        assert r.next_hop(0, 3) == 1
        assert r.next_hop(1, 3) == 2
        assert r.next_hop(2, 0) == 1

    def test_self_route_is_none(self):
        r = StaticRouting()
        r.add_path([0, 1])
        assert r.next_hop(0, 0) is None

    def test_unknown_destination_is_none(self):
        r = StaticRouting()
        r.add_path([0, 1])
        assert r.next_hop(0, 99) is None

    def test_set_route_overrides(self):
        r = StaticRouting()
        r.set_route(5, 9, 7)
        assert r.next_hop(5, 9) == 7


def make_medium(positions, comm_range=10.0):
    sim = Simulator()
    medium = Medium(sim, rng=RngStreams(0), comm_range=comm_range)
    for nid, pos in positions.items():
        Radio(sim, medium, nid, pos)
    return medium


class TestMeshRouting:
    def test_line_of_routers(self):
        medium = make_medium({0: (0, 0), 1: (8, 0), 2: (16, 0)})
        routing = MeshRouting(border_id=0, router_ids=[0, 1, 2])
        routing.rebuild(medium)
        assert routing.next_hop(2, 0) == 1
        assert routing.next_hop(0, 2) == 1
        assert routing.hops_between(2, 0) == 2

    def test_leaf_routes_through_parent(self):
        medium = make_medium({0: (0, 0), 1: (8, 0), 10: (14, 0)})
        routing = MeshRouting.build(medium, border_id=0, router_ids=[0, 1],
                                    leaf_ids=[10])
        assert routing.parent_of(10) == 1
        assert routing.next_hop(10, 0) == 1
        # toward the leaf: hop to the parent first, then the leaf
        assert routing.next_hop(0, 10) == 1
        assert routing.next_hop(1, 10) == 10

    def test_off_mesh_destination_goes_to_border(self):
        medium = make_medium({0: (0, 0), 1: (8, 0)})
        routing = MeshRouting(border_id=0, router_ids=[0, 1])
        routing.rebuild(medium)
        assert routing.next_hop(1, 1000) == 0
        # the border resolves it itself (wired link)
        assert routing.next_hop(0, 1000) == 1000

    def test_leaf_picks_nearest_router(self):
        medium = make_medium({0: (0, 0), 1: (8, 0), 10: (9, 0)})
        routing = MeshRouting.build(medium, border_id=0, router_ids=[0, 1],
                                    leaf_ids=[10])
        assert routing.parent_of(10) == 1

    def test_isolated_leaf_rejected(self):
        medium = make_medium({0: (0, 0), 10: (50, 0)})
        with pytest.raises(ValueError):
            MeshRouting.build(medium, border_id=0, router_ids=[0],
                              leaf_ids=[10])

    def test_route_before_rebuild_raises(self):
        routing = MeshRouting(border_id=0, router_ids=[0, 1])
        with pytest.raises(RuntimeError):
            routing.next_hop(0, 1)

    def test_rebuild_after_topology_change(self):
        medium = make_medium({0: (0, 0), 1: (8, 0), 2: (16, 0)})
        routing = MeshRouting(border_id=0, router_ids=[0, 1, 2])
        routing.rebuild(medium)
        assert routing.next_hop(2, 0) == 1
        medium.force_link(0, 2)
        routing.rebuild(medium)
        assert routing.next_hop(2, 0) == 0  # direct now


# ----------------------------------------------------------------------
# demand-grown trees == the all-pairs table they replaced
# ----------------------------------------------------------------------
def _bfs_next_hops(adj, source):
    """For each reachable node, its next hop on a shortest path *toward*
    ``source`` (i.e. parent pointers of a BFS tree rooted at source)."""
    parent = {}
    visited = {source}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        for v in adj.get(u, ()):  # deterministic: adjacency lists are sorted
            if v not in visited:
                visited.add(v)
                parent[v] = u
                frontier.append(v)
    return parent


class AllPairsRouting(MeshRouting):
    """Reference: the eager ``(node, dst) -> hop`` table ``rebuild`` used
    to fill, from one ``in_range`` call per router pair and one full BFS
    per destination."""

    def rebuild(self, medium):
        super().rebuild(medium)
        adj = {
            r: sorted(n for n in self.router_ids
                      if n != r and medium.in_range(r, n))
            for r in self.router_ids
        }
        self._next = {
            (node, dst): hop
            for dst in self.router_ids
            for node, hop in _bfs_next_hops(adj, dst).items()
        }

    def _mesh_hop(self, node, dst):
        return None if node == dst else self._next.get((node, dst))


def _reference_for(routing, medium):
    ref = AllPairsRouting(routing.border_id, routing.router_ids,
                          routing.leaf_parents)
    ref.rebuild(medium)
    return ref


def _assert_same_routes(routing, ref, ids, seed):
    """Every (node, dst) pair, asked in a shuffled order so trees are
    paused near the root and resumed by a farther node later."""
    pairs = [(a, b) for a in ids for b in ids]
    random.Random(seed).shuffle(pairs)
    for node, dst in pairs:
        assert routing.next_hop(node, dst) == ref.next_hop(node, dst), \
            (node, dst)


class _NoWalk(dict):
    """An adjacency that refuses to be searched."""

    def get(self, *args):
        raise AssertionError("a finished tree was walked again")


class TestLazyTreesMatchAllPairs:
    def test_every_pair_on_a_grid(self):
        net = build_grid_mesh(6, 7)
        ref = _reference_for(net.routing, net.medium)
        _assert_same_routes(net.routing, ref, sorted(net.nodes), seed=0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_pair_on_random_meshes(self, seed):
        net = build_random_mesh(40, seed=seed)
        ref = _reference_for(net.routing, net.medium)
        _assert_same_routes(net.routing, ref, sorted(net.nodes), seed=seed)

    def test_routes_are_static_until_rebuild_then_fresh(self):
        net = build_grid_mesh(6, 7)
        routing, medium = net.routing, net.medium
        before = _reference_for(routing, medium)
        ids = sorted(net.nodes)
        assert routing.next_hop(1, 0) == 0
        medium.block_link(0, 1)
        # grown and not-yet-grown trees alike still answer from the
        # adjacency rebuild() captured
        _assert_same_routes(routing, before, ids, seed=4)
        routing.rebuild(medium)
        assert routing._trees == {}
        after = _reference_for(routing, medium)
        assert after.next_hop(1, 0) != 0
        _assert_same_routes(routing, after, ids, seed=5)

    def test_unreachable_destination_walks_its_island_once(self):
        medium = make_medium({0: (0, 0), 1: (8, 0), 5: (100, 0), 6: (108, 0)})
        routing = MeshRouting(border_id=0, router_ids=[0, 1, 5, 6])
        routing.rebuild(medium)
        ref = _reference_for(routing, medium)
        assert routing.next_hop(0, 5) is None
        assert not routing._trees[5].frontier
        routing._adj = _NoWalk(routing._adj)
        assert routing.next_hop(0, 5) is None
        assert routing.next_hop(1, 5) is None
        assert routing.next_hop(6, 5) == 5
        routing._adj = dict(routing._adj)
        _assert_same_routes(routing, ref, [0, 1, 5, 6], seed=6)

    def test_leaf_off_mesh_and_border_branches(self):
        medium = make_medium({
            0: (0, 0), 1: (8, 0), 2: (16, 0), 3: (24, 0),
            10: (30, 0), 11: (2, 3),
        })
        routing = MeshRouting.build(medium, border_id=0,
                                    router_ids=[0, 1, 2, 3],
                                    leaf_ids=[10, 11])
        ref = _reference_for(routing, medium)
        assert routing.leaf_parents == {10: 3, 11: 0}
        assert routing.next_hop(11, 10) == 0  # leaf -> its parent
        assert routing.next_hop(0, 10) == 1  # toward the leaf's parent
        assert routing.next_hop(3, 10) == 10  # parent -> leaf
        assert routing.next_hop(3, 1000) == 2  # off-mesh: toward border
        assert routing.next_hop(0, 1000) == 1000  # border's wired side
        _assert_same_routes(routing, ref, [0, 1, 2, 3, 10, 11, 1000], seed=7)

    def test_cost_follows_the_question_not_the_mesh(self):
        net = build_grid_mesh(25, 40)
        routing = net.routing
        assert routing._trees == {}
        src, dst = 12 * 40 + 20, 12 * 40 + 23
        assert routing.hops_between(src, dst) == 3
        assert list(routing._trees) == [dst]
        assert len(routing._trees[dst].parent) < 64
