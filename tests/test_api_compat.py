"""Compatibility acceptance tests for the ``repro.api`` facade.

Three promises are pinned here:

1. every pre-existing deep import path keeps working (the facade adds a
   front door, it does not move the furniture);
2. ``repro.api`` re-exports exactly what its ``__all__`` advertises,
   and each name is the *same object* as the implementation's;
3. the BSD-flavoured socket surface (``listen``/``connect``/
   ``set_option``/``get_option``) behaves per the docstrings:
   copy-on-write params, alias resolution, ``TCP_NODELAY`` inversion.
"""

import importlib

import pytest

import repro.api as api


# ----------------------------------------------------------------------
# 1. old deep import paths keep working
# ----------------------------------------------------------------------

#: (module path, names that existing code imports from it)
LEGACY_IMPORTS = [
    ("repro", ["Simulator", "TcpParams", "TcpStack", "TcpSocket",
               "build_chain", "build_pair", "build_testbed",
               "build_grid_mesh", "build_random_mesh",
               "tcplp_params", "uip_params", "CLOUD_ID"]),
    ("repro.sim.engine", ["Simulator"]),
    ("repro.sim.rng", ["RngStreams"]),
    ("repro.sim.metrics", ["MetricsRegistry"]),
    ("repro.core.params", ["TcpParams", "linux_like_params",
                           "mss_for_frames"]),
    ("repro.core.simplified", ["tcplp_params", "uip_params",
                               "blip_params", "gnrc_params",
                               "arch_rock_params"]),
    ("repro.core.socket_api", ["TcpStack", "TcpSocket", "TcpListener"]),
    ("repro.core.connection", ["TcpConnection", "TcpState"]),
    ("repro.experiments.topology", ["Network", "CLOUD_ID", "build_pair",
                                    "build_single_hop", "build_chain",
                                    "build_testbed", "build_grid_mesh",
                                    "build_random_mesh"]),
    ("repro.experiments.workload", ["BulkTransfer", "BulkResult",
                                    "GoodputMeter",
                                    "FlowSet", "FlowSpec", "FlowResult",
                                    "FlowSetResult", "jain_fairness"]),
    ("repro.experiments", ["build_chain", "build_testbed",
                           "build_grid_mesh", "BulkTransfer",
                           "FlowSet"]),
    ("repro.faults", ["FaultSchedule", "FaultInjector"]),
]


@pytest.mark.parametrize("module_path,names", LEGACY_IMPORTS,
                         ids=[m for m, _ in LEGACY_IMPORTS])
def test_legacy_import_path_still_works(module_path, names):
    module = importlib.import_module(module_path)
    for name in names:
        assert hasattr(module, name), f"{module_path}.{name} vanished"


# ----------------------------------------------------------------------
# 2. the facade exports what it advertises, as the same objects
# ----------------------------------------------------------------------

def test_api_all_is_complete_and_resolvable():
    for name in api.__all__:
        assert getattr(api, name, None) is not None, f"repro.api.{name}"


def test_api_names_are_the_implementation_objects():
    from repro.core.socket_api import TcpListener, TcpSocket, TcpStack
    from repro.experiments.topology import Network, build_grid_mesh
    from repro.experiments.workload import BulkTransfer, FlowSet
    from repro.sim.engine import Simulator

    assert api.TcpStack is TcpStack
    assert api.TcpSocket is TcpSocket
    assert api.TcpListener is TcpListener
    assert api.Network is Network
    assert api.build_grid_mesh is build_grid_mesh
    assert api.BulkTransfer is BulkTransfer
    assert api.FlowSet is FlowSet
    assert api.Simulator is Simulator


def test_simulator_constructor_matches_make_simulator():
    # one kernel: a removed tier switch is an error, not a silent no-op
    for factory in (api.Simulator, api.build_pair):
        for removed in ({"accel": True}, {"fidelity": "full"}, {"shards": 2}):
            with pytest.raises(TypeError):
                factory(**removed)


def test_topology_builders_thread_kernel_knobs():
    builders = (api.build_pair, api.build_single_hop,
                lambda **kw: api.build_chain(2, **kw), api.build_testbed,
                lambda **kw: api.build_grid_mesh(2, 2, **kw),
                lambda **kw: api.build_random_mesh(4, **kw))
    for build in builders:
        assert type(build(seed=0).sim) is api.Simulator
        with pytest.raises(TypeError):
            build(seed=0, fidelity="full")


# ----------------------------------------------------------------------
# 3. BSD socket-option surface
# ----------------------------------------------------------------------

def _pair_with_stacks():
    net = api.build_pair(seed=0)

    def stack(nid):
        node = net.nodes[nid]
        return api.TcpStack(net.sim, node.ipv6, nid,
                            cpu=node.radio.cpu, sleepy=node.sleepy)

    return net, stack(0), stack(1)


def test_setsockopt_getsockopt_are_aliases():
    from repro.core.connection import TcpConnection

    # the setsockopt/getsockopt aliases are gone (docs/api.md migration
    # table); TcpSocket is the connection class under its API name
    assert api.TcpSocket is TcpConnection


def test_bsd_alias_resolution_and_nodelay_inversion():
    net, server, client = _pair_with_stacks()
    server.listen(80, lambda c: None)
    sock = client.connect(0, 80)
    net.sim.run(until=net.sim.now + 2.0)
    assert sock.is_open

    # TCP_NODELAY is the negation of the nagle field, both directions
    sock.set_option("TCP_NODELAY", True)
    assert sock.params.nagle is False
    assert sock.get_option("TCP_NODELAY") is True
    assert sock.get_option("nagle") is False

    sock.set_option("SO_KEEPALIVE", True)
    assert sock.params.keepalive is True
    assert sock.get_option("SO_KEEPALIVE") is True

    assert sock.get_option("SO_SNDBUF") == sock.params.send_buffer
    assert sock.get_option("TCP_MAXSEG") == sock.params.mss


def test_connection_set_option_copies_shared_params():
    net, server, client = _pair_with_stacks()
    shared = api.tcplp_params()
    server.listen(80, lambda c: None, params=shared)
    sock = client.connect(0, 80, params=shared)
    net.sim.run(until=net.sim.now + 2.0)

    before = shared.rto_min
    sock.set_option("rto_min", before * 2)
    assert sock.params.rto_min == before * 2
    assert shared.rto_min == before, "shared TcpParams was mutated"
    assert sock.params is not shared


def test_stack_set_option_scopes_to_future_default_sockets():
    net, server, client = _pair_with_stacks()
    shared_default = client.default_params
    server.listen(80, lambda c: None)
    server.listen(81, lambda c: None)

    client.set_option("SO_SNDBUF", 4096)
    assert client.default_params.send_buffer == 4096
    assert shared_default.send_buffer != 4096 or \
        shared_default is not client.default_params

    # future default-params socket sees the option
    sock = client.connect(0, 80)
    assert sock.params.send_buffer == 4096
    # explicit params= wins over the stack default
    explicit = api.tcplp_params()
    sock2 = client.connect(0, 81, params=explicit)
    assert sock2.params.send_buffer == explicit.send_buffer


def test_unknown_option_raises_value_error():
    net, _server, client = _pair_with_stacks()
    with pytest.raises(ValueError, match="unknown socket option"):
        client.set_option("SO_BOGUS", 1)
    with pytest.raises(ValueError, match="unknown socket option"):
        client.get_option("_mss")  # private names are not options
