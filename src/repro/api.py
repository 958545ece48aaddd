"""The stable public API of the TCPlp reproduction.

Import from here — ``from repro.api import Network, build_chain,
TcpStack, ...`` — rather than from the implementation modules.  Deep
paths (``repro.core.socket_api``, ``repro.experiments.topology``, …)
keep working indefinitely for existing code, but only the names
re-exported below are covered by the compatibility promise: they will
not move or change signature without a deprecation cycle.  See
``docs/api.md`` for the full reference and the deep-import migration
table.

The surface, by area:

**Simulation kernel** —
:class:`~repro.sim.engine.Simulator` (the discrete-event core),
:class:`~repro.sim.rng.RngStreams` (named deterministic RNG streams),
:class:`~repro.sim.metrics.MetricsRegistry` (labelled counters /
gauges / histograms with deterministic snapshots).

**Topologies** — :class:`~repro.experiments.topology.Network` (what a
builder returns; it owns each endpoint's one transport stack per
protocol: ``net.tcp_stack(id)``, ``net.udp_stack(id)``) and the
builders: :func:`build_pair`,
:func:`build_single_hop`, :func:`build_chain`, :func:`build_testbed`,
and the hundred-node-scale :func:`build_grid_mesh` /
:func:`build_random_mesh`.  ``CLOUD_ID`` is the wired server's node id.

**TCP** — :class:`~repro.core.socket_api.TcpStack` (an endpoint's
demultiplexer with BSD-style ``listen``/``connect``/``set_option``),
:class:`TcpListener`, ``TcpSocket`` (an active connection),
:class:`~repro.core.params.TcpParams` plus the preset constructors
(:func:`tcplp_params`, :func:`uip_params`, :func:`blip_params`,
:func:`gnrc_params`, :func:`linux_like_params`) and
:func:`mss_for_frames` (§6.1 frame-aligned MSS arithmetic).

**Workloads** — :class:`~repro.experiments.workload.BulkTransfer`
(saturating single flow), :class:`SensorStream` (paced reports),
:class:`FlowSet` / :class:`FlowSpec` (N staggered concurrent flows
with per-flow and aggregate goodput and Jain fairness), and
:class:`GoodputMeter`.

**Fault injection** —
:class:`~repro.faults.schedule.FaultSchedule` (validated JSON/dict
fault specs) and :class:`~repro.faults.injector.FaultInjector` for
in-sim faults; :class:`~repro.faults.process.ProcessFaultSchedule`
for socket-level chaos against the live gateway (abusive clients — see
``tools/chaos.py``).

**Self-verification** —
:class:`~repro.verify.engine.InvariantEngine` (live cross-layer
invariant checking; see ``docs/robustness.md``).

**Gateway** — the real-socket serving tier:
:class:`~repro.gateway.server.Gateway` (asyncio border router that
bridges real TCP/UDP sockets on loopback to simulated motes),
:class:`MoteBinding` (one listening endpoint → one sim endpoint),
:func:`install_echo` / :func:`install_sink` (canned sim-side apps),
:func:`attach_wired_host` (a second wired host behind the border
router for radio-free scale tests),
:class:`~repro.sim.engine.RealtimePacer` /
:class:`~repro.gateway.runtime.PacedSimRunner` (wall-clock pacing with
slack accounting), :class:`SessionBackoff` (exponential retry with
seedable full jitter), :class:`~repro.gateway.limits.GatewayLimits`
(overload protection: admission cap, token-bucket accept rate,
establish/idle deadlines, a global splice-byte budget and per-binding
circuit breakers — refusals are *explicit*, counted in ``gw.shed``),
and the loadgen drivers :func:`run_tcp_loadgen` /
:func:`run_udp_loadgen` returning a :class:`LoadgenReport` with
p50/p95/p99 latency plus shed/corrupt counts.  See
``docs/architecture.md`` §10.

**Campaigns** — the one way to run the paper's experiments, declared
as sweeps (see docs/campaigns.md):
:class:`~repro.campaign.spec.CampaignSpec` (validated JSON/dict
declaring experiments × parameter grid × seeds × faults, and how
to run them), :func:`run_campaign` / :func:`load_campaign` (execute a spec —
or only its uncached delta, against a content-addressed
:class:`~repro.campaign.store.ResultStore` — and return a
:class:`~repro.campaign.report.CampaignReport` with per-cell
repetition statistics), :class:`~repro.campaign.catalog
.ExperimentCatalog` / :func:`default_catalog` (the experiment registry
as an object; a spec with no ``experiments`` runs all of it), and
:class:`~repro.campaign.spec.RunSpec` (the content-addressed unit of
execution).
"""

from __future__ import annotations

from repro.campaign import (
    CampaignReport,
    CampaignSpec,
    ExperimentCatalog,
    ResultStore,
    RunSpec,
    load_campaign,
    run_campaign,
)
from repro.core.params import (
    TcpParams,
    linux_like_params,
    mss_for_frames,
)
from repro.core.simplified import (
    arch_rock_params,
    blip_params,
    gnrc_params,
    tcplp_params,
    uip_params,
)
from repro.core.socket_api import TcpListener, TcpSocket, TcpStack
from repro.experiments.topology import (
    CLOUD_ID,
    Network,
    build_chain,
    build_grid_mesh,
    build_pair,
    build_random_mesh,
    build_single_hop,
    build_testbed,
)
from repro.experiments.workload import (
    BulkResult,
    BulkTransfer,
    FlowResult,
    FlowSet,
    FlowSetResult,
    FlowSpec,
    GoodputMeter,
    SensorStream,
    jain_fairness,
)
from repro.faults import FaultInjector, FaultSchedule
from repro.faults.process import ProcessFaultSchedule
from repro.gateway import (
    Gateway,
    GatewayLimits,
    LoadgenReport,
    MoteBinding,
    PacedSimRunner,
    SessionBackoff,
    attach_wired_host,
    install_echo,
    install_sink,
    run_tcp_loadgen,
    run_udp_loadgen,
)
from repro.sim.engine import RealtimePacer, Simulator
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RngStreams
from repro.verify import InvariantEngine


def default_catalog():
    """The process-wide default experiment catalog.

    A lazy wrapper over
    :func:`repro.experiments.runner.default_catalog` (the catalog
    imports every experiment module, so importing it is deferred until
    a campaign actually needs the built-in experiments).
    """
    from repro.experiments.runner import default_catalog as _dc

    return _dc()


__all__ = [
    # kernel
    "Simulator",
    "RngStreams",
    "MetricsRegistry",
    # topologies
    "Network",
    "CLOUD_ID",
    "build_pair",
    "build_single_hop",
    "build_chain",
    "build_testbed",
    "build_grid_mesh",
    "build_random_mesh",
    # TCP
    "TcpStack",
    "TcpSocket",
    "TcpListener",
    "TcpParams",
    "tcplp_params",
    "uip_params",
    "blip_params",
    "gnrc_params",
    "arch_rock_params",
    "linux_like_params",
    "mss_for_frames",
    # workloads
    "BulkTransfer",
    "BulkResult",
    "SensorStream",
    "FlowSet",
    "FlowSpec",
    "FlowResult",
    "FlowSetResult",
    "GoodputMeter",
    "jain_fairness",
    # faults
    "FaultSchedule",
    "FaultInjector",
    "ProcessFaultSchedule",
    # self-verification
    "InvariantEngine",
    # gateway
    "Gateway",
    "GatewayLimits",
    "MoteBinding",
    "RealtimePacer",
    "PacedSimRunner",
    "SessionBackoff",
    "LoadgenReport",
    "attach_wired_host",
    "install_echo",
    "install_sink",
    "run_tcp_loadgen",
    "run_udp_loadgen",
    # campaigns
    "CampaignReport",
    "CampaignSpec",
    "ExperimentCatalog",
    "ResultStore",
    "RunSpec",
    "default_catalog",
    "load_campaign",
    "run_campaign",
]
