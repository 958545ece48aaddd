"""Memory-layout guard for the per-node and per-connection objects.

CPython 3.11 shares one key table among the instance dicts of a class
only while an instance has fewer than 30 attributes: at 29 a dict costs
about 300 B, at 30 it holds its own keys and costs about 1.6 kB.  On a
1,000-node mesh that difference is megabytes, so the classes that
outgrow the limit declare ``__slots__`` instead.  A node that never
transmits also never pays for its MAC's random streams: they are
created on the first draw.
"""

import gc
import types

from repro.core.connection import TcpConnection
from repro.experiments.topology import build_grid_mesh
from repro.experiments.workload import FlowSet, FlowSpec
from repro.mac.link import MacLayer

#: the number of instance-dict keys at which CPython 3.11 stops sharing
SHARED_KEYS_LIMIT = 30

_OPAQUE = (type, types.ModuleType, types.FunctionType, types.CodeType)


def _reachable(*roots):
    """Every object reachable from ``roots`` through ``gc`` referents,
    not descending into classes, modules or functions (whose globals
    reach the whole process)."""
    seen = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen.values()


def _mesh_after_run():
    net = build_grid_mesh(4, 4, seed=3)
    flows = FlowSet(net, [FlowSpec(src=15, dst=0), FlowSpec(src=3, dst=0)])
    net.sim.run(until=3.0)
    return net, flows


def test_no_repro_instance_outgrows_shared_dict_keys():
    net, flows = _mesh_after_run()
    widest = {}
    for obj in _reachable(net, flows):
        cls = type(obj)
        if not cls.__module__.startswith("repro."):
            continue
        attrs = getattr(obj, "__dict__", None)
        if attrs is not None:
            name = f"{cls.__module__}.{cls.__qualname__}"
            widest[name] = max(widest.get(name, 0), len(attrs))
    assert "repro.phy.radio.Radio" in widest  # the walk reached the nodes
    over = {name: n for name, n in widest.items() if n >= SHARED_KEYS_LIMIT}
    assert not over, (
        f"instance dicts with >= {SHARED_KEYS_LIMIT} attributes (declare "
        f"__slots__ or split the class): {over}")


def test_mac_and_connection_carry_no_instance_dict():
    net, flows = _mesh_after_run()
    macs = [node.mac for node in net.nodes.values()]
    conns = [obj for obj in _reachable(net, flows)
             if isinstance(obj, TcpConnection)]
    assert conns  # both flows opened their endpoints
    for obj in macs + conns:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    assert isinstance(macs[0], MacLayer)


def test_node_that_never_sent_owns_no_mac_stream():
    net, _ = _mesh_after_run()
    streams = net.rng._streams
    silent = [nid for nid, node in net.nodes.items()
              if node.radio.frames_sent == 0]
    talkers = [nid for nid in net.nodes if nid not in silent]
    assert silent and talkers
    for nid in silent:
        assert f"csma:{nid}" not in streams, nid
        assert f"retry:{nid}" not in streams, nid
    assert all(f"csma:{nid}" in streams for nid in talkers)
