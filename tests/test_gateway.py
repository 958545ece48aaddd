"""Gateway-tier tests: pacing math, session backoff, live export, and
real OS-socket loopback bridging end to end.

The end-to-end tests open genuine TCP/UDP sockets on 127.0.0.1 and
drive them against a gateway fronting an accelerated-kernel mesh, so
they exercise the whole stack the CI smoke job gates — just smaller.
"""

import asyncio
import socket
import statistics
import struct
import time

import pytest

from repro.core.connection import TcpState
from repro.experiments.topology import CLOUD_ID, build_chain
from repro.gateway import (
    Gateway,
    GatewayLimits,
    LoadgenReport,
    MoteBinding,
    SessionBackoff,
    attach_wired_host,
    install_echo,
    install_sink,
    run_tcp_loadgen,
    run_udp_loadgen,
)
from repro.core.socket_api import TcpStack
from repro.gateway.runtime import PacedSimRunner
from repro.net.udp import UdpStack
from repro.sim.engine import RealtimePacer, SimulationError, Simulator
from repro.sim.metrics import MetricsRegistry


class FakeClock:
    """A manually advanced wall clock for deterministic pacer tests."""

    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt
        return self.t


class TestRealtimePacer:
    def test_mapping_roundtrip(self):
        clock = FakeClock(100.0)
        pacer = RealtimePacer(speed=10.0, clock=clock)
        pacer.resync(5.0)
        clock.advance(2.0)
        # 2 wall seconds at 10x => 20 simulated seconds past the anchor
        assert pacer.sim_due(clock()) == pytest.approx(25.0)
        assert pacer.wall_for(25.0) == pytest.approx(102.0)
        # wall_for is the inverse of sim_due
        assert pacer.sim_due(pacer.wall_for(17.3)) == pytest.approx(17.3)

    def test_on_time_dispatch_is_not_a_violation(self):
        clock = FakeClock()
        pacer = RealtimePacer(speed=1.0, slack_budget=0.25, clock=clock)
        pacer.resync(0.0)
        clock.advance(1.0)
        slack = pacer.observe(1.0, clock())  # due exactly now
        assert slack == pytest.approx(0.0)
        assert pacer.violations == 0
        assert pacer.observations == 1

    def test_late_dispatch_counts_and_exports(self):
        sim = Simulator()
        sim.metrics = MetricsRegistry()
        from repro.sim.trace import TraceBus

        sim.trace_bus = TraceBus(sim)
        clock = FakeClock()
        pacer = RealtimePacer(
            speed=1.0, slack_budget=0.1, clock=clock,
            metrics=sim.metrics, trace_bus=sim.trace_bus,
        )
        pacer.resync(0.0)
        clock.advance(1.0)
        slack = pacer.observe(0.5, clock())  # due 0.5s ago
        assert slack == pytest.approx(0.5)
        assert pacer.violations == 1
        assert pacer.max_slack == pytest.approx(0.5)
        snap = sim.metrics.snapshot()
        assert snap["counters"]["rt.slack_violations"] == 1
        assert snap["gauges"]["rt.slack_last_seconds"] == pytest.approx(0.5)
        assert snap["gauges"]["rt.slack_max_seconds"] == pytest.approx(0.5)
        assert snap["histograms"]["rt.slack_seconds"]["count"] == 1
        kinds = [ev.kind for ev in sim.trace_bus.events]
        assert "slack_violation" in kinds

    def test_resync_forgives_accumulated_lateness(self):
        clock = FakeClock()
        pacer = RealtimePacer(speed=2.0, slack_budget=0.1, clock=clock)
        pacer.resync(0.0)
        clock.advance(10.0)  # hopelessly behind
        pacer.resync(3.0)
        assert pacer.sim_due(clock()) == pytest.approx(3.0)

    def test_stats_shape(self):
        stats = RealtimePacer(speed=4.0, clock=FakeClock()).stats()
        assert set(stats) == {
            "speed", "slack_budget", "last_slack", "max_slack",
            "violations", "observations", "max_input_lag",
        }
        assert stats["speed"] == 4.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            RealtimePacer(speed=0.0)
        with pytest.raises(SimulationError):
            RealtimePacer(speed=-1.0)
        with pytest.raises(SimulationError):
            RealtimePacer(slack_budget=-0.5)
        for speed in (float("nan"), float("inf"), True):
            with pytest.raises(SimulationError):
                RealtimePacer(speed=speed)
        for budget in (float("nan"), float("inf"), False):
            with pytest.raises(SimulationError):
                RealtimePacer(slack_budget=budget)


class TestSessionBackoff:
    def test_exponential_growth_clipped_at_ceiling(self):
        b = SessionBackoff(base=0.5, factor=2.0, ceiling=3.0, max_attempts=5)
        assert [b._next_delay() for _ in range(5)] == [0.5, 1.0, 2.0, 3.0, 3.0]
        assert b._exhausted

    def test_exhausted_refuses_further_delays(self):
        b = SessionBackoff(base=0.1, max_attempts=1)
        b._next_delay()
        assert b._exhausted
        with pytest.raises(RuntimeError):
            b._next_delay()

    def test_reset_restarts_the_schedule(self):
        b = SessionBackoff(base=0.25, factor=2.0, max_attempts=2)
        b._next_delay()
        b._next_delay()
        assert b._exhausted
        b.reset()
        assert not b._exhausted
        assert b._next_delay() == 0.25

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SessionBackoff(base=0.0)
        with pytest.raises(ValueError):
            SessionBackoff(factor=0.5)
        with pytest.raises(ValueError):
            SessionBackoff(max_attempts=0)


class TestLoadgenReport:
    def test_percentile_math(self):
        lat = [i / 100.0 for i in range(1, 101)]  # 0.01 .. 1.00
        report = LoadgenReport._from_latencies(
            "tcp-echo", lat, [], requests=100, concurrency=10,
            wall_seconds=2.0,
        )
        assert report.completed == 100
        assert report.errors == 0
        assert report.p50 <= report.p95 <= report.p99 <= report.max
        assert report.min == pytest.approx(0.01)
        assert report.max == pytest.approx(1.0)
        assert report.mean == pytest.approx(0.505)
        d = report.as_dict()
        assert d["latency"]["p50"] == pytest.approx(report.p50)
        assert "100/100 ok" in report.summary()

    def test_empty_run_reports_zeroes(self):
        report = LoadgenReport._from_latencies(
            "udp-echo", [], ["TimeoutError: x"] * 3,
            requests=3, concurrency=3, wall_seconds=1.0,
        )
        assert report.completed == 0
        assert report.errors == 3
        assert report.p99 == 0.0
        assert report.error_detail == ["TimeoutError: x"]


# ----------------------------------------------------------------------
# end-to-end over real loopback sockets
# ----------------------------------------------------------------------
def _gateway_net(seed=1):
    """One-hop mesh with a cloud uplink; mote 1 runs TCP+UDP echo."""
    net = build_chain(1, seed=seed)
    tcp_echo = install_echo(net, 1, 7)
    udp_echo = install_echo(net, 1, 7, kind="udp")
    return net, tcp_echo, udp_echo


class TestGatewayEndToEnd:
    def test_tcp_echo_roundtrip_through_mesh(self):
        async def scenario():
            net, tcp_echo, _ = _gateway_net()
            gw = Gateway(net, [MoteBinding(node_id=1, sim_port=7)],
                         speed=50.0, slack_budget=5.0)
            await gw.start()
            try:
                host, port = gw.endpoint(0)
                payload = b"through-the-mesh-" * 40
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(payload)
                writer.write_eof()
                await writer.drain()
                echoed = await asyncio.wait_for(reader.read(-1), 60)
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                await asyncio.sleep(0)
                snap = gw.sim.metrics.snapshot()
                return payload, echoed, tcp_echo, snap, gw.slack_stats()
            finally:
                await gw.aclose()

        payload, echoed, tcp_echo, snap, slack = asyncio.run(scenario())
        assert echoed == payload
        assert tcp_echo.accepted == 1
        assert tcp_echo.bytes_echoed == len(payload)
        assert snap["counters"]["gw.accepted"] == 1
        assert snap["counters"]["gw.bytes_in"] == len(payload)
        assert snap["counters"]["gw.bytes_out"] == len(payload)
        assert snap["histograms"]["gw.connect_seconds"]["count"] == 1
        assert slack["violations"] == 0

    def test_udp_exchange_roundtrip(self):
        async def scenario():
            net, _, udp_echo = _gateway_net()
            gw = Gateway(
                net,
                [MoteBinding(node_id=1, sim_port=7, kind="udp")],
                speed=50.0, slack_budget=5.0,
            )
            await gw.start()
            try:
                host, port = gw.endpoint(0)
                report = await run_udp_loadgen(
                    host, port, connections=5, timeout=60.0,
                )
                return report, udp_echo, gw.sim.metrics.snapshot()
            finally:
                await gw.aclose()

        report, udp_echo, snap = asyncio.run(scenario())
        assert report.completed == 5
        assert report.errors == 0
        assert udp_echo.datagrams == 5
        assert snap["histograms"]["gw.udp_rtt_seconds"]["count"] == 5

    def test_loadgen_percentiles_against_wired_host(self):
        async def scenario():
            net, _, _ = _gateway_net()
            attach_wired_host(net, 1001)
            install_echo(net, 1001, 7)
            gw = Gateway(net, [MoteBinding(node_id=1001, sim_port=7)],
                         speed=50.0, slack_budget=5.0)
            await gw.start()
            try:
                host, port = gw.endpoint(0)
                return await run_tcp_loadgen(
                    host, port, connections=25, timeout=60.0,
                )
            finally:
                await gw.aclose()

        report = asyncio.run(scenario())
        assert report.completed == 25
        assert report.errors == 0
        assert 0.0 < report.p50 <= report.p95 <= report.p99 <= report.max
        assert "25/25 ok" in report.summary()

    def test_refused_sim_port_retries_then_resets_client(self):
        async def scenario():
            net, _, _ = _gateway_net()  # echo listens on 7, not 9
            gw = Gateway(
                net,
                [MoteBinding(node_id=1, sim_port=9)],
                speed=200.0, slack_budget=10.0,
                backoff={"base": 0.02, "factor": 1.0, "max_attempts": 2},
            )
            await gw.start()
            try:
                host, port = gw.endpoint(0)
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    data = await asyncio.wait_for(reader.read(-1), 30)
                    assert data == b""  # reset may surface as bare EOF
                except ConnectionError:
                    pass
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                await asyncio.sleep(0)
                return gw.sim.metrics.snapshot()
            finally:
                await gw.aclose()

        snap = asyncio.run(scenario())
        assert snap["counters"]["gw.session_retries"] == 2
        assert snap["counters"]["gw.errors"] >= 1
        assert snap["gauges"]["gw.active"] == 0

    def test_aclose_tears_down_live_clients(self):
        async def scenario():
            net, _, _ = _gateway_net()
            gw = Gateway(net, [MoteBinding(node_id=1, sim_port=7)],
                         speed=50.0, slack_budget=5.0)
            await gw.start()
            host, port = gw.endpoint(0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"still talking")
            await writer.drain()
            await asyncio.sleep(0.05)
            await gw.aclose()  # client never closed first
            assert not gw.runner.running
            try:
                data = await asyncio.wait_for(reader.read(-1), 10)
                assert data in (b"", b"still talking")
            except ConnectionError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return gw

        gw = asyncio.run(scenario())
        assert len(gw._bridges) == 0
        assert gw.sim.metrics.snapshot()["gauges"]["gw.active"] == 0
        # the aborts the teardown injected ran before pacing stopped
        assert gw.tcp_stack.active_connections() == 0

    def test_mid_splice_client_disconnect_releases_everything(self):
        """A client that resets mid-upload must leave no state behind:
        no bridge, no pinned splice bytes, sim-side teardown done."""
        async def scenario():
            net = build_chain(1, seed=1)
            sink = install_sink(net, 1, 7)
            sink.pause()  # keep bytes in flight inside the bridge
            gw = Gateway(net, [MoteBinding(node_id=1, sim_port=7)],
                         speed=50.0, slack_budget=5.0,
                         limits=GatewayLimits(splice_budget=1 << 20))
            await gw.start()
            try:
                host, port = gw.endpoint(0)
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(bytes(range(256)) * 128)  # 32 KiB
                await writer.drain()
                for _ in range(100):  # some of it must be mid-splice
                    if gw.splice_used() > 0:
                        break
                    await asyncio.sleep(0.05)
                assert gw.splice_used() > 0
                # a genuine RST (linger 0), not a polite FIN — the
                # half-open path is a different, intentional behaviour
                sock = writer.get_extra_info("socket")
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                writer.transport.abort()
                for _ in range(100):
                    if gw.active_bridges() == 0 and gw.splice_used() == 0:
                        break
                    await asyncio.sleep(0.05)
                return (gw.active_bridges(), gw.splice_used(),
                        gw.sim.metrics.snapshot())
            finally:
                await gw.aclose()

        bridges, pinned, snap = asyncio.run(scenario())
        assert bridges == 0
        assert pinned == 0
        assert snap["gauges"]["gw.active"] == 0
        assert snap["gauges"]["gw.splice_buffered"] == 0

    def test_zero_window_mote_stalls_then_completes_upload(self):
        """A paused sink closes its receive window; the upload must
        stall losslessly and finish once the mote drains."""
        async def scenario():
            net = build_chain(1, seed=1)
            sink = install_sink(net, 1, 7)
            sink.pause()  # mote advertises zero window once buffers fill
            gw = Gateway(net, [MoteBinding(node_id=1, sim_port=7)],
                         speed=50.0, slack_budget=5.0)
            await gw.start()
            try:
                host, port = gw.endpoint(0)
                payload = bytes(range(256)) * 64  # 16 KiB
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(payload)
                writer.write_eof()
                await writer.drain()
                await asyncio.sleep(0.5)
                stalled = sink.bytes  # nothing consumed while paused
                gw.runner.inject(sink.resume)
                # sink drains, sees the FIN, closes: client gets EOF
                eof = await asyncio.wait_for(reader.read(-1), 60)
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                return sink, len(payload), stalled, eof
            finally:
                await gw.aclose()

        sink, nbytes, stalled, eof = asyncio.run(scenario())
        assert stalled == 0
        assert sink.bytes == nbytes
        assert eof == b""

    def test_slow_client_pauses_the_mote_then_receives_everything(self):
        """While the client's socket is full (``pause_writing``) the
        bridge stops consuming from the simulated connection; once it
        drains, every echoed byte arrives."""
        async def scenario():
            net, _, _ = _gateway_net()
            gw = Gateway(net, [MoteBinding(node_id=1, sim_port=7)],
                         speed=50.0, slack_budget=5.0)
            await gw.start()
            try:
                host, port = gw.endpoint(0)
                reader, writer = await asyncio.open_connection(host, port)
                for _ in range(100):
                    if gw.active_bridges():
                        break
                    await asyncio.sleep(0.01)
                bridge, = gw._bridges
                bridge.pause_writing()
                payload = bytes(range(256)) * 8  # 2 KiB
                writer.write(payload)
                writer.write_eof()
                await writer.drain()
                await asyncio.sleep(0.5)  # 25 simulated seconds
                counters = gw.sim.metrics.snapshot()["counters"]
                held = counters["gw.bytes_out"]
                bridge.resume_writing()
                echoed = await asyncio.wait_for(reader.read(-1), 60)
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                return payload, held, echoed
            finally:
                await gw.aclose()

        payload, held, echoed = asyncio.run(scenario())
        assert held == 0
        assert echoed == payload

    def test_sink_receives_bulk_upload(self):
        async def scenario():
            net = build_chain(1, seed=1)
            sink = install_sink(net, 1, 7)
            gw = Gateway(net, [MoteBinding(node_id=1, sim_port=7)],
                         speed=50.0, slack_budget=5.0)
            await gw.start()
            try:
                host, port = gw.endpoint(0)
                payload = bytes(range(256)) * 32  # 8 KiB
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(payload)
                writer.write_eof()
                await writer.drain()
                # sink closes once the upload (and FIN) land
                await asyncio.wait_for(reader.read(-1), 60)
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                return sink, len(payload)
            finally:
                await gw.aclose()

        sink, nbytes = asyncio.run(scenario())
        assert sink.accepted == 1
        assert sink.bytes == nbytes


# ----------------------------------------------------------------------
# the pacing contract: in at the wall instant, out at the deadline
# ----------------------------------------------------------------------
def _sim_tcp_echo_seconds(nbytes=64):
    """Simulated SYN -> echo time of the gateway's path, no wall clock."""
    net, _, _ = _gateway_net()
    stack = TcpStack(net.sim, net.cloud, net.cloud.node_id)
    done = []
    conn = stack.connect(1, 7)
    conn.on_connect = lambda: conn.send(bytes(nbytes))
    conn.on_data = lambda data: done.append(net.sim.now)
    net.sim.run(until=5.0)
    return done[0]


def _sim_udp_echo_seconds(nbytes=64):
    net, _, _ = _gateway_net()
    stack = UdpStack(net.cloud)
    done = []
    stack.bind(40000, lambda dgram, packet: done.append(net.sim.now))
    stack.send(1, 40000, 7, bytes(nbytes), nbytes)
    net.sim.run(until=5.0)
    return done[0]


class TestPacingContract:
    """Both crossings between the wall and the simulated clock: an
    outside input enters at the simulated instant of its arrival, and
    a due event leaves at its wall deadline (docs/architecture.md §10).
    """

    SPEED = 25.0

    def test_idle_gateway_answers_no_faster_than_the_model(self):
        floor = 0.9 * _sim_tcp_echo_seconds() / self.SPEED

        async def scenario():
            net, _, _ = _gateway_net()
            gw = Gateway(net, [MoteBinding(node_id=1, sim_port=7)],
                         speed=self.SPEED)
            await gw.start()
            pacer = gw.runner.pacer
            try:
                latencies, slacks = [], []
                for _ in range(8):
                    # idle, and out of step with any 50 ms polling tick
                    await asyncio.sleep(0.225)
                    # slack while serving the exchange: a busy host
                    # waking an idle timer late is not what is pinned
                    pacer.max_slack = 0.0
                    report = await run_tcp_loadgen(
                        *gw.endpoint(0), connections=1, payload=bytes(64))
                    assert report.completed == 1
                    latencies.append(report.max)
                    slacks.append(pacer.max_slack)
                return latencies, slacks, gw.slack_stats()
            finally:
                await gw.aclose()

        latencies, slacks, stats = asyncio.run(scenario())
        assert min(latencies) >= floor
        assert max(slacks) < 0.010
        # the idle gaps are not lag: nothing was overdue during them
        assert 0.0 <= stats["max_input_lag"] < 0.010
        assert stats["violations"] == 0

    def test_idle_gateway_udp_obeys_the_same_floor(self):
        floor = 0.9 * _sim_udp_echo_seconds() / self.SPEED

        async def scenario():
            net, _, _ = _gateway_net()
            gw = Gateway(
                net, [MoteBinding(node_id=1, sim_port=7, kind="udp")],
                speed=self.SPEED,
            )
            await gw.start()
            try:
                latencies = []
                for _ in range(8):
                    await asyncio.sleep(0.125)
                    report = await run_udp_loadgen(
                        *gw.endpoint(0), connections=1, payload=bytes(64))
                    assert report.completed == 1
                    latencies.append(report.max)
                return latencies
            finally:
                await gw.aclose()

        assert min(asyncio.run(scenario())) >= floor

    def test_input_during_a_lag_lands_after_the_backlog(self):
        async def scenario():
            sim = Simulator()
            runner = PacedSimRunner(sim, speed=self.SPEED).start()
            pacer = runner.pacer
            loop = asyncio.get_running_loop()
            order, arrival = [], []

            def outside_input():
                # a socket callback: runs when the task next yields
                arrival.append(pacer.sim_due(pacer.clock()))
                runner.inject(lambda: order.append(("first", sim.now)))
                runner.inject(lambda: order.append(("second", sim.now)))

            def burn():
                loop.call_soon(outside_input)
                time.sleep(0.020)  # the simulation falls 0.5 s behind

            sim.schedule(0.05, burn)
            for i in range(1, 5):  # comes due while the burn runs
                sim.schedule(0.05 + 0.1 * i, order.append, ("backlog", i))
            await asyncio.sleep(0.1)
            await runner.stop()
            return order, arrival[0], pacer.stats()

        order, arrival, stats = asyncio.run(scenario())
        assert [tag for tag, _ in order] == ["backlog"] * 4 + ["first", "second"]
        assert order[4][1] >= arrival
        assert order[5][1] >= order[4][1]
        # the input found the clock about one burn behind the wall
        assert 0.010 < stats["max_input_lag"] < 0.100

    def test_slow_dispatch_is_loud(self):
        clock = FakeClock()

        async def scenario():
            sim = Simulator()
            runner = PacedSimRunner(sim, speed=1.0, slack_budget=0.25)
            runner.pacer.clock = clock
            sim.schedule(0.0, clock.advance, 1.0)  # a wall second's work
            sim.schedule(0.5, lambda: None)  # comes due during it
            runner.start()
            await asyncio.sleep(0.01)
            await runner.stop()
            return runner.pacer

        pacer = asyncio.run(scenario())
        assert pacer.violations == 1
        assert pacer.max_slack == pytest.approx(0.5)

    def test_near_deadline_is_not_rounded_up_to_a_millisecond(self):
        async def scenario():
            sim = Simulator()
            runner = PacedSimRunner(sim, speed=1.0).start()
            pacer = runner.pacer
            late = []

            def arm():
                sim.schedule(300e-6, fired, pacer.wall_for(sim.now + 300e-6))

            def fired(deadline):
                late.append(pacer.clock() - deadline)

            for _ in range(20):
                runner.inject(arm)
                await asyncio.sleep(0.005)
            await runner.stop()
            return late

        late = asyncio.run(scenario())
        assert len(late) == 20
        assert min(late) >= 0.0
        assert statistics.median(late) < 0.0005

    def test_idle_gateway_blocks_instead_of_spinning(self):
        async def scenario():
            net, _, _ = _gateway_net()
            gw = Gateway(net, [MoteBinding(node_id=1, sim_port=7)],
                         speed=self.SPEED)
            await gw.start()
            try:
                await asyncio.sleep(0.05)
                cpu0 = time.process_time()
                await asyncio.sleep(0.3)
                return time.process_time() - cpu0
            finally:
                await gw.aclose()

        assert asyncio.run(scenario()) < 0.1 * 0.3

    def test_stop_and_aclose_return_promptly_from_a_fine_wait(self):
        async def scenario():
            net, _, _ = _gateway_net()
            # a deadline always nearer than the selector's resolution:
            # the dispatch task never blocks, it yields
            net.sim.schedule_periodic(0.0005, lambda: None)
            gw = Gateway(net, [MoteBinding(node_id=1, sim_port=7)], speed=1.0)
            await gw.start()
            await asyncio.sleep(0.02)
            t0 = time.perf_counter()
            await gw.runner.stop()
            stopped = time.perf_counter() - t0
            gw.runner.start()
            await asyncio.sleep(0.02)
            t0 = time.perf_counter()
            await gw.aclose()
            return stopped, time.perf_counter() - t0, gw.runner.running

        stopped, closed, running = asyncio.run(scenario())
        assert stopped < 0.05
        assert closed < 0.05
        assert not running


class TestCommandLine:
    def test_bad_numbers_exit_2_before_serving(self, monkeypatch, capsys):
        from repro.gateway import __main__ as cli

        def no_serving(coro):
            coro.close()
            raise AssertionError("a socket would be bound")

        monkeypatch.setattr(cli.asyncio, "run", no_serving)
        for flags in (["--speed", "0"], ["--speed", "nan"],
                      ["--slack-budget", "-1"],
                      ["--low-water", "100", "--high-water", "10"],
                      ["--accept-rate", "nan"], ["--hops", "0"],
                      ["--tcp-port", "99999"], ["--udp-port", "-1"],
                      ["--sim-port", "65536"], ["--stats-interval", "nan"],
                      ["--stats-interval", "0"], ["--stats-interval", "-1"],
                      ["--stats-interval", "inf"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(flags)
            assert exc.value.code == 2, flags
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "error:" in err, (flags, err)


class TestAttachWiredHost:
    def test_duplicate_and_wireless_topologies_rejected(self):
        net = build_chain(1, seed=1)
        attach_wired_host(net, 1001)
        with pytest.raises(ValueError):
            attach_wired_host(net, 1001)  # id already in use
        with pytest.raises(ValueError):
            attach_wired_host(net, 1000)  # the cloud host's own id
        bare = build_chain(1, seed=1, with_cloud=False)
        with pytest.raises(ValueError):
            attach_wired_host(bare, 1001)

    def test_binding_kind_validated(self):
        with pytest.raises(ValueError):
            MoteBinding(node_id=1, sim_port=7, kind="sctp")
        with pytest.raises(ValueError, match="unknown echo kind"):
            install_echo(build_chain(1, seed=1), 1, 7, kind="sctp")


class TestOneStackPerEndpoint:
    """The gateway's simulated endpoint uses the network's stacks, so
    it shares them with any app on the same node."""

    def test_gateway_on_a_bare_border_leaves_its_apps_reachable(self):
        net = build_chain(1, seed=1, with_cloud=False)
        sink = install_sink(net, 0, 9000)
        gw = Gateway(net, [])
        assert gw.tcp_stack is net.tcp_stack(0)
        assert gw.udp_stack is net.nodes[0].udp
        conn = net.tcp_stack(1).connect(0, 9000)
        errors = []
        conn.on_error = errors.append
        conn.on_connect = lambda: conn.send(b"u" * 300)
        net.sim.run(until=10.0)
        assert errors == []
        assert conn.state is TcpState.ESTABLISHED
        assert sink.bytes == 300

    def test_second_cloud_stack_beside_the_gateway_raises(self):
        net, _, _ = _gateway_net()
        gw = Gateway(net, [MoteBinding(node_id=1, sim_port=7)])
        with pytest.raises(ValueError, match=f"node {CLOUD_ID}"):
            TcpStack(net.sim, net.cloud, CLOUD_ID)
        conn = gw.sim_connect(gw.bindings[0])
        net.sim.run(until=10.0)
        assert conn.state is TcpState.ESTABLISHED
        assert conn.params is gw.params
