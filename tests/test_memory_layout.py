"""Memory-layout guard for the per-node and per-connection objects.

CPython 3.11 shares one key table among the instance dicts of a class
only while an instance has fewer than 30 attributes: at 29 a dict costs
about 300 B, at 30 it holds its own keys and costs about 1.6 kB.  On a
1,000-node mesh that difference is megabytes, so the classes that
outgrow the limit declare ``__slots__`` instead.  A node that never
transmits also never pays for its MAC's random streams: they are
created on the first draw.  Nor does it pay for containers it leaves
empty: the MAC's transmit queue is a list, its sleepy children are the
keys of its indirect-queue table, a connection's receive ring appears
with its first data byte, and every bulk flow refills from one shared
chunk.

A campaign holds a report of every cell in memory, and a cached re-run
builds one from the store.  Each cell's aggregate records share one
key table, a run keeps only ``ok`` and ``result`` of its stored record,
and the report's document is its own lists and dicts, not copies.
"""

import gc
import sys
import tracemalloc
import types
from collections import deque

import repro.core.buffers
import repro.experiments.workload
import repro.mac.link
from repro.campaign import ResultStore, run_campaign
from repro.campaign.stats import _aggregate
from repro.campaign.stats import aggregate_cell
from repro.core.connection import TcpConnection
from repro.core.seqnum import seq_sub
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


def test_mac_holds_no_set_or_deque_of_its_own():
    net, _ = _mesh_after_run()
    parent = net.nodes[0].mac
    parent.mark_sleepy_child(5)
    for node in net.nodes.values():
        held = gc.get_referents(node.mac)
        assert not [o for o in held if isinstance(o, (set, deque))], node
    assert set(parent._indirect) == {5}


def test_bulk_sender_that_only_sent_holds_no_receive_ring():
    net, flows = _mesh_after_run()
    senders = [driver.connection for driver in flows.drivers]
    receivers = [obj for obj in _reachable(net, flows)
                 if isinstance(obj, TcpConnection) and obj not in senders]
    assert len(receivers) == len(senders)
    for conn in receivers:  # each has had its first byte
        ring = conn.recv_buf
        assert len(ring._buf) == len(ring._present) == ring.capacity
    for conn in senders:
        assert seq_sub(conn.snd_una, conn.iss) > 1  # data, not only SYN
        assert not conn.recv_buf._buf and not conn.recv_buf._present


def test_bulk_flows_share_one_payload_chunk():
    _, flows = _mesh_after_run()
    assert len(flows.drivers) == 2
    assert len({id(driver._payload) for driver in flows.drivers}) == 1


#: ``_mesh_after_run()``'s retained bytes after one warm-up call:
#: 208.6 kB (CPython 3.11, x86-64); with a deque and a set per MAC,
#: receive rings for the senders and a chunk per flow it held 226.8 kB
MESH_RETAINED_BUDGETS = {(3, 11): 220_000}
#: the share of those bytes allocated in the MAC, the receive buffer and
#: the flow drivers, against the rest of the mesh: 0.20 on 3.11, 0.35
#: with the containers above.  A ratio of like objects, so it holds on
#: the versions without a measured budget too
MESH_OWN_SHARE_BUDGET = 0.25
_MESH_OWN_FILES = {module.__file__ for module in (
    repro.mac.link, repro.core.buffers, repro.experiments.workload)}


def test_mesh_after_run_fits_its_budget():
    _mesh_after_run()  # warm: first-call caches are not the mesh's
    gc.collect()
    tracemalloc.start()
    try:
        mesh = _mesh_after_run()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert mesh[1].drivers[0].connected
    own = sum(stat.size for stat in snapshot.statistics("filename")
              if stat.traceback[0].filename in _MESH_OWN_FILES)
    assert own / (held - own) < MESH_OWN_SHARE_BUDGET, (own, held)
    budget = MESH_RETAINED_BUDGETS.get(sys.version_info[:2])
    if budget is not None:
        assert held < budget, held


# ----------------------------------------------------------------------
# a campaign report
# ----------------------------------------------------------------------

#: 300 cells of the analytic energy model, seven metrics each
_GRID = {"name": "memory", "experiments": ["ayadi_energy"],
         "grid": {"frames": list(range(1, 11)),
                  "frame_loss": [0.01, 0.03, 0.05, 0.08, 0.12],
                  "rtt": [0.05, 0.1, 0.2], "window": [2, 4]}}

#: budgets for the grid above, in bytes: a cached re-run's report held
#: 0.96 MB and ``to_json`` peaked at 3.94 MB (CPython 3.11, x86-64); a
#: report of 464-B records and copied containers took 1.60 and 5.23 MB
RETAINED_BUDGET = 1_250_000
TO_JSON_PEAK_BUDGET = 4_600_000


def _literal_record():
    return {"n": 1, "confidence": 0.95, "mean": 1.0, "median": 1.0,
            "stdev": 0.0, "min": 1.0, "max": 1.0, "ci_low": 1.0,
            "ci_high": 1.0}


def test_aggregate_records_share_their_keys():
    records = [_aggregate([1.0, 2.0, 4.0]),
               *aggregate_cell([{"a": 1.0, "b": 2}]).values(),
               *aggregate_cell([[{"a": 1.0}], [{"a": 3.0}]]).values()]
    for record in records:
        assert type(record) is dict
        assert list(record) == list(_literal_record())
    # at nine keys ``sys.getsizeof`` reports a shared-key dict (288 B)
    # above a literal (272 B), yet the allocator holds about 170 B
    # against 280 B a record: compare what the allocator holds
    shared = _traced(lambda: [_aggregate([1.0]) for _ in range(500)])[1]
    literal = _traced(lambda: [_literal_record() for _ in range(500)])[1]
    assert shared < 0.75 * literal, (shared, literal)


def _traced(fn):
    """``(value, bytes still held, peak bytes)`` of ``fn()``."""
    gc.collect()
    tracemalloc.start()
    try:
        value = fn()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, held, peak


def test_cached_rerun_report_and_its_document_fit_their_budgets(tmp_path):
    def rerun():
        return run_campaign(dict(_GRID), progress=lambda *_: None,
                            store=ResultStore(tmp_path, salt="pinned"))

    canonical = rerun().to_json()
    report, held, _ = _traced(rerun)
    assert report.execution["cache_hits"] == len(report.cells) == 300
    document, _, peak = _traced(report.to_json)
    assert document == canonical
    assert held < RETAINED_BUDGET, held
    assert peak < TO_JSON_PEAK_BUDGET, peak
