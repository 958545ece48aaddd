"""The five workloads.  See README.md for why each is here.

Every workload is closed-loop, runs in one process, builds its inputs
from the trial's seed alone, and calls only the public API with default
kernel arguments.  A workload sets up (build, warm-up), calls
``trial.begin()``, then does a *fixed* amount of work in timed slices:
the amount of work per trial never depends on how fast the host is, so
two commits are timed on the same simulated scenario.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import shutil
import statistics
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List

import spans
from repro.api import (
    CLOUD_ID,
    BulkTransfer,
    ExperimentCatalog,
    FlowSet,
    FlowSpec,
    Gateway,
    MoteBinding,
    ResultStore,
    TcpParams,
    TcpStack,
    build_chain,
    build_grid_mesh,
    build_pair,
    build_testbed,
    default_catalog,
    install_echo,
    linux_like_params,
    mss_for_frames,
    run_campaign,
    tcplp_params,
)

ROOT = Path(__file__).resolve().parent.parent

#: the paper's numbers the two validated workloads are compared with
PAPER_THREE_HOP_KBPS = 19.5      # §7.2
PAPER_TCP_DUTY_CYCLE_PCT = 2.29  # Table 8


def _stack(net, node_id: int, **kwargs) -> TcpStack:
    node = net.nodes[node_id]
    return TcpStack(net.sim, node.ipv6, node_id, cpu=node.radio.cpu,
                    sleepy=node.sleepy, **kwargs)


def _run_slices(trial, net, count: int, sim_seconds: float) -> Dict:
    """``count`` timed slices of ``sim_seconds`` each; returns the
    simulated counters of the timed region."""
    sim, medium = net.sim, net.medium
    events0, frames0 = sim.events_processed, medium.frames_delivered
    for _ in range(count):
        trial.timed(sim_seconds, sim.run, sim.now + sim_seconds)
    return {"events": sim.events_processed - events0,
            "frames_delivered": medium.frames_delivered - frames0}


def _stack_counts(trial, counters: Dict) -> None:
    """Per-layer counts of a kernel workload's timed region.

    Events and frames come from the program's public attributes; the
    rest from its MetricsRegistry (attached in the traced trial only)
    and from the tracer's call counts.
    """
    layer = trial.layer
    layer["sim.events"] = counters["events"]
    layer["phy.frames_delivered"] = counters["frames_delivered"]
    registry = trial.registry_delta()
    for ours, theirs in (
            ("phy.tx_started", "phy.tx"),
            ("phy.collisions", "phy.collisions"),
            ("mac.frames_tx", "mac.frames_tx"),
            ("mac.link_retries", "mac.link_retries"),
            ("mac.csma_backoffs", "mac.csma_backoffs"),
            ("mac.ack_timeouts", "mac.ack_timeouts"),
            ("lowpan.fragments_sent", "lowpan.fragments_sent"),
            ("lowpan.datagrams_sent", "lowpan.datagrams_sent"),
            ("lowpan.reassembled", "lowpan.reassembled"),
            ("net.forwards", "net.forwards"),
            ("net.delivered", "net.delivered"),
            ("net.queue_drops", "net.queue_drops"),
            ("core.retransmits", "tcp.retransmits"),
            ("core.rto_events", "tcp.rto_events"),
            ("core.sack_blocks_sent", "tcp.sack_blocks_sent")):
        if theirs in registry:
            layer[ours] = registry[theirs]


# ----------------------------------------------------------------------
# chain_hidden
# ----------------------------------------------------------------------
def chain_hidden(trial) -> None:
    """§7.1: one bulk TCP flow over the 3-hop hidden-terminal chain."""
    slices = 3 if trial.quick else 32
    trial.inputs(("chain", 3, trial.seed))
    net = trial.network(build_chain(3, seed=trial.seed))
    for node in net.nodes.values():
        node.mac.params.retry_delay = 0.04
    params = tcplp_params(window_segments=4)
    xfer = BulkTransfer(net.sim, _stack(net, 3), _stack(net, 0),
                        receiver_id=0, params=params, receiver_params=params)
    net.sim.run(until=10.0)
    xfer.meter.start()
    trial.begin()
    counters = _run_slices(trial, net, slices, 20.0)
    goodput = xfer.meter.goodput_bps() / 1000.0
    counters["goodput_kbps"] = round(goodput, 3)
    trial.counters.update(counters)
    error = abs(goodput - PAPER_THREE_HOP_KBPS) / PAPER_THREE_HOP_KBPS
    trial.check("3-hop goodput within 25% of the paper's 19.5 kb/s",
                error <= 0.25, f"{goodput:.2f} kb/s")
    trial.check("transfer connected without errors",
                xfer.connected and not xfer.errors, str(xfer.errors))
    _stack_counts(trial, counters)
    trial.layer["model.err_pct"] = error * 100.0
    trial.layer["core.goodput_kbps"] = goodput


# ----------------------------------------------------------------------
# mesh_1000
# ----------------------------------------------------------------------
def mesh_flows(rows: int, cols: int, rng: random.Random) -> List[FlowSpec]:
    """The TCP flows of ``scenarios.sharded_mesh``, clipped to the grid:
    five 3-hop west-bound flows per row and three 3-hop north-bound
    flows on every other column (185 on 25 x 40), launched 10 ms apart
    plus seeded jitter."""
    pairs = []
    for r in range(rows):
        for col in range(8, cols, 7):
            pairs.append((r * cols + col, r * cols + col - 3))
    for c in range(0, cols, 2):
        for r0 in (2, 9, 16):
            if r0 + 3 < rows:
                pairs.append(((r0 + 3) * cols + c, r0 * cols + c))
    return [FlowSpec(src=src, dst=dst,
                     start=round(0.01 * i + rng.uniform(0.0, 0.005), 6))
            for i, (src, dst) in enumerate(pairs)]


def mesh_1000(trial) -> None:
    """185 TCP flows on a 25 x 40 router grid, plain in-process kernel."""
    rows, cols = (10, 10) if trial.quick else (25, 40)
    slices = 8 if trial.quick else 16
    specs = mesh_flows(rows, cols, random.Random(trial.seed))
    trial.inputs([(s.src, s.dst, s.start) for s in specs])
    net = trial.network(build_grid_mesh(rows, cols, seed=trial.seed))
    flows = FlowSet(net, specs, params=tcplp_params(window_segments=2))
    net.sim.run(until=1.0)
    flows.start_metering()
    trial.begin()
    counters = _run_slices(trial, net, slices, 0.125)
    result = flows.results(slices * 0.125)
    counters["goodput_kbps"] = round(result.aggregate_goodput_kbps, 3)
    counters["flows_connected"] = result.flows_connected
    trial.counters.update(counters)
    # a SYN lost twice to hidden terminals connects after the window
    # ends, so "every flow" would need twice the simulated time
    trial.check("at least 90% of the flows connected, none with an error",
                result.flows_connected >= 0.9 * len(specs)
                and not any(flow.errors for flow in result.flows),
                f"{result.flows_connected} of {len(specs)}")
    _stack_counts(trial, counters)
    trial.layer["core.goodput_kbps"] = result.aggregate_goodput_kbps
    if trial.extras and not trial.quick:
        _shard_extras(trial, rows, cols, specs)


def _shard_extras(trial, rows: int, cols: int, specs) -> None:
    """The sharded tier on the same recipe, at one and two shards.

    The tier is up for demotion (ROADMAP item 3), and a change that
    removes or reshapes it may not edit this file: whatever goes wrong
    here is reported and the shard row reads 0, the run goes on.
    """
    try:
        from repro.sim.shard import ShardRecipe, run_sharded

        recipe = ShardRecipe(
            builder="grid",
            builder_kwargs={"rows": rows, "cols": cols, "seed": trial.seed},
            flows=specs, params=tcplp_params(window_segments=2),
            tx_turnaround=1e-3)
        one = run_sharded(recipe, 1, 0.5, 1.0)
        two = run_sharded(recipe, 2, 0.5, 1.0)
    except Exception:
        traceback.print_exc()
        return
    trial.layer["shard.speedup_2"] = one["wall_s"] / two["wall_s"]
    trial.layer["shard.barriers"] = two["barriers"]
    trial.layer["shard.event_inflation"] = two["events"] / one["events"]


# ----------------------------------------------------------------------
# anemometer_tcp
# ----------------------------------------------------------------------
def anemometer_tcp(trial) -> None:
    """§9: four sleepy anemometers batching readings to a cloud server."""
    from repro.app.sensor import (AnemometerConfig, AnemometerNode,
                                  ReadingServer, TcpTransport)
    from repro.mac.poll import PollParams

    period = 64.0  # one batch of 64 readings at 1 Hz
    periods = 1 if trial.quick else 5
    rng = random.Random(trial.seed)
    # unsynchronised boot: drains spread over the batch period
    phases = [round(15.0 * i + rng.uniform(0.0, 3.0), 3) for i in range(4)]
    trial.inputs(("testbed", trial.seed, phases))
    poll = PollParams(poll_interval=240.0, fast_poll_interval=0.1,
                      listen_window=0.1)
    net = trial.network(build_testbed(seed=trial.seed, leaf_poll=poll))
    server = ReadingServer(net.sim)
    cloud = TcpStack(net.sim, net.cloud, CLOUD_ID,
                     default_params=linux_like_params())
    server.attach_tcp(cloud, port=8000)
    per_message = max(1, mss_for_frames(5, to_cloud=True) // 82)
    apps = []
    for leaf_id, phase in zip(net.leaf_ids, phases):
        leaf = net.nodes[leaf_id]
        stack = TcpStack(net.sim, leaf.ipv6, leaf_id, trace=leaf.trace,
                         cpu=leaf.radio.cpu, sleepy=leaf.sleepy)
        transport = TcpTransport(
            net.sim, stack, CLOUD_ID, server_port=8000,
            params=tcplp_params(mss_frames=5, to_cloud=True))
        app = AnemometerNode(net.sim, transport, AnemometerConfig(
            queue_capacity=64, batching=True, batch_size=64,
            sample_interval=1.0, readings_per_message=per_message))
        app.start(phase=phase)
        apps.append(app)
    # warm-up ends between two drains: the last leaf finished its batch
    # and the first has not started its next one
    net.sim.run(until=2 * period - 4.0)
    net.reset_meters()
    generated0 = sum(a.generated for a in apps)
    delivered0 = server.total_readings()
    trial.begin()
    counters = _run_slices(trial, net, 4 * periods, period / 4)
    generated = sum(a.generated for a in apps) - generated0
    delivered = server.total_readings() - delivered0
    leaves = [net.nodes[leaf] for leaf in net.leaf_ids]
    duty_pct = 100.0 * sum(n.radio_duty_cycle() for n in leaves) / len(leaves)
    overflowed = sum(a.overflowed for a in apps)
    counters.update(generated=generated, delivered=delivered,
                    overflowed=overflowed, duty_cycle_pct=round(duty_pct, 4))
    _stack_counts(trial, counters)
    trial.end()
    # cool-down: a batch that straddles the end of the timed region is
    # neither lost nor delivered yet (up to 64 readings, 5% of a trial),
    # so sampling stops and the drains under way finish before
    # reliability is read, over the whole simulation: readings that
    # left a leaf's queue against readings the server got
    for app in apps:
        app.stop()
    for _ in range(16):
        sent = sum(a.generated - a.overflowed - len(a.queue) for a in apps)
        if server.total_readings() >= sent:
            break
        net.sim.run(net.sim.now + 4.0)
    reliability = server.total_readings() / sent
    counters["reliability"] = round(reliability, 4)
    trial.counters.update(counters)
    trial.check("reliability at least 0.98", reliability >= 0.98,
                f"{server.total_readings()} of {sent}")
    trial.check("no reading overflowed its queue", overflowed == 0,
                str(overflowed))
    error = abs(duty_pct - PAPER_TCP_DUTY_CYCLE_PCT) / PAPER_TCP_DUTY_CYCLE_PCT
    trial.layer["model.err_pct"] = error * 100.0
    trial.layer["app.duty_cycle_pct"] = duty_pct
    trial.layer["app.readings_generated"] = generated
    trial.layer["app.readings_delivered"] = delivered


# ----------------------------------------------------------------------
# campaign_sweep
# ----------------------------------------------------------------------
#: host seconds spent inside :func:`bulk_cell` in this process
_cell_seconds = [0.0]


def bulk_cell(quick: bool, frames: int = 3, window: int = 4, seed: int = 1,
              duration: float = 10.0) -> Dict:
    """One campaign cell: a one-hop bulk transfer.  Module-level, as the
    catalog contract asks, so pooled runs can dispatch it."""
    start = time.perf_counter()
    net = build_pair(seed=seed)
    if spans.ACTIVE is not None:
        spans.ACTIVE.instrument_network(net)
    mss = mss_for_frames(frames)
    params = TcpParams(mss=mss, send_buffer=window * mss,
                       recv_buffer=window * mss)
    xfer = BulkTransfer(net.sim, _stack(net, 1), _stack(net, 0),
                        receiver_id=0, params=params, receiver_params=params)
    result = xfer.measure(2.0, duration)
    _cell_seconds[0] += time.perf_counter() - start
    return {"events": net.sim.events_processed,
            "goodput_kbps": round(result.goodput_kbps, 2),
            "frames_delivered": net.medium.frames_delivered}


def _quiet(*_args) -> None:
    pass


def campaign_sweep(trial) -> None:
    """Cold campaigns of bulk cells (store writes) next to fully cached
    re-runs of an analytic grid (store reads)."""
    rng = random.Random(trial.seed)
    size = 2 if trial.quick else 10
    # drawn without replacement: a grid axis with a repeated value is
    # refused by the spec validator
    analytic = {
        "name": "bench-analytic", "experiments": ["ayadi_energy"],
        "grid": {
            "frames": list(range(1, size + 1)),
            "frame_loss": sorted(n / 100000 for n in
                                 rng.sample(range(1000, 15001), size)),
            "rtt": sorted(n / 10000 for n in
                          rng.sample(range(500, 8001), 5)),
            "window": [2, 4],
        },
    }
    seeds = [trial.seed * 1000 + k for k in range(1 if trial.quick else 2)]
    bulk = [{"name": f"bench-bulk-w{window}-s{seed}",
             "experiments": ["bulk_cell"],
             "grid": {"frames": [1, 2, 3, 4, 5], "window": [window],
                      "duration": [10.0]},
             "seeds": [seed]}
            for seed in seeds for window in (2, 4)]
    reruns_per_cold = 1 if trial.quick else 3
    trial.inputs((analytic, bulk))

    catalog = ExperimentCatalog({
        "bulk_cell": bulk_cell,
        "ayadi_energy": default_catalog().get("ayadi_energy"),
    })
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        _campaign_phases(trial, catalog, tmp, analytic, bulk,
                         reruns_per_cold)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _campaign_phases(trial, catalog, tmp: Path, analytic: Dict,
                     bulk: List[Dict], reruns_per_cold: int) -> None:
    tracer = trial.tracer
    layer = trial.layer

    def cold(spec: Dict, store_dir: str):
        report = run_campaign(spec, store=ResultStore(tmp / store_dir),
                              catalog=catalog, progress=_quiet)
        execution = report.execution
        failed = len(execution["errors"]) + execution["cache_hits"]
        trial.operations(execution["runs"], min(failed, execution["runs"]))
        trial.check(f"{spec['name']}: cold, no errors",
                    execution["errors"] == {} and execution["cache_hits"] == 0,
                    f"errors={execution['errors']} "
                    f"hits={execution['cache_hits']}")
        return report

    # set-up: fill the analytic store, warm the bulk path
    start = time.perf_counter()
    first = cold(analytic, "analytic")
    analytic_wall = time.perf_counter() - start
    canonical = first.to_json()
    cold(dict(bulk[0], name="bench-bulk-warmup",
              grid=dict(bulk[0]["grid"], frames=[3])), "warmup")
    if tracer is not None:
        layer["campaign.code_salt_ms"] = 1000 * tracer.total_s(
            "campaign.code_salt")
    _cell_seconds[0] = 0.0
    cache_hits = 0
    trial.begin()
    for index, spec in enumerate(bulk):
        report = trial.timed(len(spec["grid"]["frames"]), cold, spec,
                             f"bulk{index}")
        for cell in report.cells:
            for result in cell.results:
                for name, value in (result or {}).items():
                    key = f"bulk.{name}"
                    trial.counters[key] = round(
                        trial.counters.get(key, 0) + value, 2)
        for _ in range(reruns_per_cold):
            start = time.perf_counter()
            again = run_campaign(analytic,
                                 store=ResultStore(tmp / "analytic"),
                                 catalog=catalog, progress=_quiet)
            trial.latency(1000 * (time.perf_counter() - start))
            execution = again.execution
            cache_hits += execution["cache_hits"]
            ok = trial.check(
                "cached re-run: no miss, byte-identical report",
                execution["cache_misses"] == 0
                and again.to_json() == canonical,
                f"misses={execution['cache_misses']}")
            trial.operations(1, 0 if ok else 1)
    cold_wall = sum(s[1] for s in trial.slices)
    trial.counters["analytic.report_sha"] = hashlib.sha256(
        canonical.encode()).hexdigest()
    layer["sim.events"] = trial.counters["bulk.events"]
    layer["phy.frames_delivered"] = trial.counters["bulk.frames_delivered"]
    layer["campaign.engine_overhead_share"] = 1 - _cell_seconds[0] / cold_wall
    layer["campaign.analytic_runs_per_s"] = (
        first.execution["runs"] / analytic_wall)
    layer["campaign.cache_hits"] = cache_hits
    layer["campaign.errors"] = trial.failed
    if tracer is not None:
        for ours, name, scale in (
                ("campaign.expand_ms", "campaign.CampaignSpec.expand", 1e3),
                ("campaign.store_save_us", "campaign.ResultStore.save", 1e6),
                ("campaign.store_load_us", "campaign.ResultStore.load", 1e6)):
            calls = tracer.calls(name)
            layer[ours] = scale * tracer.total_s(name) / calls if calls else 0
    if trial.extras and not trial.quick:
        _pool_extras(trial, catalog, tmp, bulk)


def _pool_extras(trial, catalog, tmp: Path, bulk: List[Dict]) -> None:
    """The same cold runs at ``jobs=1`` and through the process pool.

    A host that gives the pool no semaphores (no ``/dev/shm``) cannot
    run the pooled half: that is reported and the row reads 0, the run
    goes on, as for the shard extras.
    """
    jobs = min(os.cpu_count() or 1, 4)
    spec = dict(bulk[0], name="bench-bulk-pool",
                grid=dict(bulk[0]["grid"], window=[2, 4]),
                seeds=[trial.seed * 1000 + 500 + k for k in range(3)])
    walls = []
    for label, count in (("serial", 1), ("pooled", jobs)):
        start = time.perf_counter()
        try:
            report = run_campaign(dict(spec, runner={"jobs": count}),
                                  store=ResultStore(tmp / f"pool-{label}"),
                                  catalog=catalog, progress=_quiet)
        except OSError:
            traceback.print_exc()
            return
        walls.append(time.perf_counter() - start)
        trial.check(f"pool extras ({label}): no errors",
                    report.execution["errors"] == {},
                    str(report.execution["errors"]))
    trial.layer["campaign.pool_speedup"] = walls[0] / walls[1]


# ----------------------------------------------------------------------
# gateway_echo
# ----------------------------------------------------------------------
ECHO_PORT = 7000
PAYLOAD_BYTES = 64
CLIENTS = 2  # closed loop, one connection each at a time


async def _echo_client(endpoint, payloads: List[bytes],
                       latencies: List[float], bad: List[int]) -> None:
    """connect -> send -> read the echo -> close, once per payload."""
    host, port = endpoint
    for index, payload in enumerate(payloads):
        start = time.perf_counter()
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError:
            bad.append(index)
            continue
        try:
            writer.write(payload)
            await writer.drain()
            echoed = await asyncio.wait_for(
                reader.readexactly(len(payload)), 30.0)
            latencies.append(1000 * (time.perf_counter() - start))
            if echoed != payload:
                bad.append(index)
        except (OSError, asyncio.IncompleteReadError,
                asyncio.TimeoutError):
            bad.append(index)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def _exchange(trial, endpoint, rng: random.Random, per_client: int,
                    latencies: List[float]) -> int:
    """``per_client`` exchanges on each client; returns how many failed."""
    payloads = [[rng.randbytes(PAYLOAD_BYTES) for _ in range(per_client)]
                for _ in range(CLIENTS)]
    bad: List[int] = []
    await asyncio.gather(*(_echo_client(endpoint, p, latencies, bad)
                           for p in payloads))
    trial.operations(CLIENTS * per_client, len(bad))
    return len(bad)


async def _open_gateway(trial, speed: float):
    """A gateway over a fresh one-hop network with an echoing mote."""
    net = trial.network(build_chain(1, seed=trial.seed))
    install_echo(net, 1, ECHO_PORT)
    gateway = Gateway(net, [MoteBinding(node_id=1, sim_port=ECHO_PORT)],
                      speed=speed)
    await gateway.start()
    return net, gateway


async def _gateway_phases(trial) -> None:
    rng = random.Random(trial.seed)
    trial.inputs(("echo", trial.seed, rng.getstate()[1][:4]))
    paced_each = 25 if trial.quick else 250
    segments = 3 if trial.quick else 15
    segment_each = 20 if trial.quick else 50
    layer = trial.layer
    tracer = trial.tracer

    # paced phase: speed 25, latency is simulated RTT / 25 plus whatever
    # pacing and the bridge add
    net, gateway = await _open_gateway(trial, 25.0)
    slacks: List[float] = []
    connects: List[float] = []
    pacer = gateway.runner.pacer
    observe = pacer.observe

    def observe_and_keep(sim_time: float, wall: float) -> float:
        slack = observe(sim_time, wall)
        slacks.append(slack)
        return slack

    pacer.observe = observe_and_keep
    gateway.observe_connect_latency = connects.append
    await _exchange(trial, gateway.endpoint(), rng, 10, [])
    del slacks[:], connects[:]
    trial.begin()
    paced: List[float] = []
    bad = await _exchange(trial, gateway.endpoint(), rng, paced_each, paced)
    trial.latencies.extend([ms, 0.0, 0.0] for ms in paced)
    stats = gateway.slack_stats()
    trial.check("paced phase: every payload echoed intact", bad == 0,
                f"{bad} bad")
    trial.check("paced phase: no slack violation", stats["violations"] == 0,
                str(stats["violations"]))
    layer["gateway.slack_violations"] = stats["violations"]
    layer["gateway.slack_ms_max"] = 1000 * max(slacks)
    layer["gateway.slack_ms_p50"] = 1000 * statistics.median(slacks)
    layer["gateway.connect_ms_p50"] = 1000 * statistics.median(connects)
    shed = _shed(net)
    await gateway.aclose()

    # saturation phase: speed 1000, the pacer never waits, CPU-bound
    net, gateway = await _open_gateway(trial, 1000.0)
    await _exchange(trial, gateway.endpoint(), rng, 10, [])
    trial.rebase()
    events0 = net.sim.events_processed
    frames0 = net.medium.frames_delivered
    busy0 = tracer.total_s("sim.Simulator.run") if tracer else 0.0
    bad = 0
    for _ in range(segments):
        start = time.perf_counter()
        bad += await _exchange(trial, gateway.endpoint(), rng,
                               segment_each, [])
        trial.slice(CLIENTS * segment_each, time.perf_counter() - start)
    exchanges = segments * CLIENTS * segment_each
    saturated_wall = sum(s[1] for s in trial.slices)
    trial.check("saturation phase: every payload echoed intact", bad == 0,
                f"{bad} bad")
    events = net.sim.events_processed - events0
    layer["gateway.sim_events_per_exchange"] = events / exchanges
    _stack_counts(trial, {
        "events": events,
        "frames_delivered": net.medium.frames_delivered - frames0})
    if tracer is not None:
        layer["gateway.sim_busy_share"] = (
            tracer.total_s("sim.Simulator.run") - busy0) / saturated_wall
    layer["gateway.shed"] = shed + _shed(net)
    if trial.extras and not trial.quick:
        await _idle_connection_extras(trial, gateway)
    await gateway.aclose()
    # wall-paced, so simulated counters differ from trial to trial; the
    # fingerprint covers what must repeat: the bytes exchanged
    trial.counters["exchanges"] = trial.attempted
    trial.counters["echo_failures"] = trial.failed


async def _idle_connection_extras(trial, gateway) -> None:
    """Python heap per established, idle bridged connection.

    Resident-set growth would read near zero here: the exchanges before
    left the allocator plenty of freed memory to hand out again.
    """
    import tracemalloc

    count = 200
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    writers = []
    for _ in range(count):
        _reader, writer = await asyncio.open_connection(*gateway.endpoint())
        writers.append(writer)
    for _ in range(200):  # wait until every client has been accepted
        if gateway.active_bridges() >= count:
            break
        await asyncio.sleep(0.01)
    await asyncio.sleep(0.3)  # 300 simulated seconds: handshakes are done
    trial.layer["gateway.heap_kb_per_conn"] = (
        tracemalloc.get_traced_memory()[0] - before) / 1024 / count
    tracemalloc.stop()
    for writer in writers:
        writer.close()
    await asyncio.gather(*(w.wait_closed() for w in writers),
                         return_exceptions=True)


def _shed(net) -> float:
    counters = net.sim.metrics.snapshot()["counters"]
    return sum(v for k, v in counters.items() if k.startswith("gw.shed"))


def gateway_echo(trial) -> None:
    """Real loopback sockets bridged onto a simulated mote: a paced
    phase for latency, a saturated phase for throughput."""
    asyncio.run(_gateway_phases(trial))


WORKLOADS = {
    "chain_hidden": chain_hidden,
    "mesh_1000": mesh_1000,
    "anemometer_tcp": anemometer_tcp,
    "campaign_sweep": campaign_sweep,
    "gateway_echo": gateway_echo,
}
