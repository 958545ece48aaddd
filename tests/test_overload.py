"""Overload-protection tests: the admission-control primitives on fake
clocks, seeded backoff jitter, and the shedding paths end to end over
real loopback sockets (capacity, rate, breaker, deadlines, splice
budget) — every refusal must be explicit in ``gw.shed``.
"""

import asyncio
import random

import pytest

from repro.experiments.topology import build_chain
from repro.gateway import (
    CircuitBreaker,
    Gateway,
    GatewayLimits,
    MoteBinding,
    SessionBackoff,
    SpliceBudget,
    TokenBucket,
    install_echo,
    install_sink,
)


class FakeClock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt
        return self.t


class TestTokenBucket:
    def test_burst_spends_then_rate_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == [True] * 3 + [False]
        clock.advance(0.5)
        assert not bucket.try_take()  # half a token is not a token
        clock.advance(0.5)
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_clips_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        bucket.try_take(2)
        clock.advance(60.0)  # an hour of tokens does not accumulate
        assert bucket.try_take(2)
        assert not bucket.try_take()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestCircuitBreaker:
    def test_opens_at_threshold_and_cools_down(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=3, cooldown=10.0, clock=clock)
        for _ in range(2):
            b.record_failure()
        assert b.state == "closed" and b.allow()
        b.record_failure()
        assert b.state == "open" and not b.allow()
        clock.advance(9.0)
        assert not b.allow()
        clock.advance(1.0)
        assert b.state == "half_open"

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        b.record_failure()
        clock.advance(5.0)
        assert b.allow()       # the probe
        assert not b.allow()   # everyone else still refused
        b.record_success()
        assert b.state == "closed" and b.allow()

    def test_failed_probe_reopens_for_a_fresh_cooldown(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=2, cooldown=5.0, clock=clock)
        b.record_failure()
        b.record_failure()
        clock.advance(5.0)
        assert b.allow()
        b.record_failure()     # one probe failure, not `threshold`
        assert b.state == "open" and not b.allow()
        clock.advance(5.0)
        assert b.allow()

    def test_success_resets_the_failure_streak(self):
        b = CircuitBreaker(threshold=2, clock=FakeClock())
        b.record_failure()
        b.record_success()
        b.record_failure()     # streak broken: still closed
        assert b.state == "closed"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1.0)


class TestSpliceBudget:
    def test_acquire_counts_even_past_the_cap(self):
        budget = SpliceBudget(100)
        assert budget.acquire(100)
        assert not budget.acquire(1)  # over — but the byte is counted
        assert budget.used == 101 > budget.total

    def test_resume_threshold(self):
        budget = SpliceBudget(100, resume_ratio=0.75)
        budget.acquire(101)
        assert not budget.should_resume
        budget.release(26)
        assert budget.should_resume
        budget.release(1000)    # release clamps at zero
        assert budget.used == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SpliceBudget(0)
        with pytest.raises(ValueError):
            SpliceBudget(100, resume_ratio=1.0)


class TestGatewayLimits:
    def test_defaults_disable_everything(self):
        limits = GatewayLimits()
        assert limits.max_connections is None
        assert limits.accept_rate is None
        assert limits.splice_budget is None
        assert limits.breaker_threshold is None
        assert not limits.needs_reaper

    def test_deadlines_demand_a_reaper(self):
        assert GatewayLimits(idle_timeout=5.0).needs_reaper
        assert GatewayLimits(establish_timeout=5.0).needs_reaper

    @pytest.mark.parametrize("kwargs", [
        {"max_connections": 0},
        {"accept_rate": 0.0},
        {"accept_burst": 0},
        {"establish_timeout": 0.0},
        {"idle_timeout": -1.0},
        {"splice_budget": 0},
        {"breaker_threshold": 0},
        {"breaker_cooldown": -1.0},
        {"backlog": 0},
        {"high_water": 100, "low_water": 100},
        {"reap_interval": 0.0},
        {"accept_rate": float("nan")},
        {"idle_timeout": float("nan")},
        {"establish_timeout": float("inf")},
        {"breaker_cooldown": float("nan")},
        {"reap_interval": float("nan")},
        {"max_connections": True},
        {"max_connections": "x"},
        {"max_connections": []},
        {"max_connections": {}},
        {"backlog": 10 ** 400},
        {"accept_burst": None},
        {"high_water": None},
        {"max_connections": 1.5},
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GatewayLimits(**kwargs)


class TestSeededBackoffJitter:
    def test_same_seed_same_delays(self):
        a = SessionBackoff(base=1.0, factor=2.0, ceiling=64.0,
                           max_attempts=6, jitter=1.0, seed=42)
        b = SessionBackoff(base=1.0, factor=2.0, ceiling=64.0,
                           max_attempts=6, jitter=1.0, seed=42)
        assert [a._next_delay() for _ in range(6)] == \
               [b._next_delay() for _ in range(6)]
        # ...and that sequence is the seed's own: one uniform draw per
        # attempt over [0, envelope], from a stream seeded with 42
        rng = random.Random(42)
        expected = [rng.uniform(0.0, min(64.0, 2.0 ** n)) for n in range(6)]
        c = SessionBackoff(base=1.0, factor=2.0, ceiling=64.0,
                           max_attempts=6, jitter=1.0, seed=42)
        assert [c._next_delay() for _ in range(6)] == expected

    def test_zero_jitter_never_builds_a_random(self, monkeypatch):
        built = []

        class CountingRandom(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", CountingRandom)
        b = SessionBackoff(base=0.5, factor=2.0, max_attempts=3, seed=9)
        assert [b._next_delay() for _ in range(3)] == [0.5, 1.0, 2.0]
        b.reset()
        b._next_delay()
        assert built == []
        jittered = SessionBackoff(jitter=0.5, seed=9)
        assert built == []  # built on the first jittered draw...
        jittered._next_delay()
        jittered._next_delay()
        assert built == [(9,)]  # ...and only once

    def test_different_seeds_decorrelate(self):
        a = SessionBackoff(base=1.0, max_attempts=5, jitter=1.0, seed=1)
        b = SessionBackoff(base=1.0, max_attempts=5, jitter=1.0, seed=2)
        assert [a._next_delay() for _ in range(5)] != \
               [b._next_delay() for _ in range(5)]

    def test_full_jitter_stays_under_the_exponential_envelope(self):
        b = SessionBackoff(base=0.5, factor=2.0, ceiling=4.0,
                           max_attempts=4, jitter=1.0, seed=7)
        for envelope in (0.5, 1.0, 2.0, 4.0):
            delay = b._next_delay()
            assert 0.0 <= delay <= envelope

    def test_partial_jitter_keeps_a_floor(self):
        b = SessionBackoff(base=1.0, factor=1.0, max_attempts=20,
                           jitter=0.25, seed=3)
        for _ in range(20):
            assert 0.75 <= b._next_delay() <= 1.0

    def test_zero_jitter_is_exact(self):
        b = SessionBackoff(base=0.5, factor=2.0, max_attempts=3, seed=9)
        assert [b._next_delay() for _ in range(3)] == [0.5, 1.0, 2.0]

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            SessionBackoff(jitter=1.5)
        with pytest.raises(ValueError):
            SessionBackoff(jitter=-0.1)


# ----------------------------------------------------------------------
# shedding end to end, over real loopback sockets
# ----------------------------------------------------------------------
async def _hold_client(host, port):
    """Open a connection and keep it alive (send one byte so the sim
    leg establishes and the bridge counts as active)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"x")
    await writer.drain()
    return reader, writer


async def _close_quietly(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def _expect_reset(reader):
    """A shed client sees a bare EOF or an outright reset."""
    try:
        data = await asyncio.wait_for(reader.read(-1), 30)
        assert data == b""
    except (ConnectionError, OSError):
        pass


def _shed_total(snap, reason):
    return snap["counters"].get("gw.shed{reason=%s}" % reason, 0)


class TestSheddingEndToEnd:
    def _gateway(self, limits, **kwargs):
        net = build_chain(1, seed=1)
        install_echo(net, 1, 7)
        return Gateway(net, [MoteBinding(node_id=1, sim_port=7)],
                       speed=50.0, slack_budget=10.0, limits=limits,
                       **kwargs)

    def test_capacity_cap_sheds_the_excess(self):
        async def scenario():
            gw = self._gateway(GatewayLimits(max_connections=2))
            await gw.start()
            try:
                host, port = gw.endpoint(0)
                keep = [await _hold_client(host, port) for _ in range(2)]
                await asyncio.sleep(0.05)
                reader, writer = await asyncio.open_connection(host, port)
                await _expect_reset(reader)
                await _close_quietly(writer)
                for r, w in keep:
                    await _close_quietly(w)
                await asyncio.sleep(0)
                return gw.sim.metrics.snapshot()
            finally:
                await gw.aclose()

        snap = asyncio.run(scenario())
        assert _shed_total(snap, "capacity") == 1
        assert snap["counters"]["gw.accepted"] == 2

    def test_accept_rate_sheds_the_burst_overflow(self):
        async def scenario():
            gw = self._gateway(
                GatewayLimits(accept_rate=0.01, accept_burst=1))
            await gw.start()
            try:
                host, port = gw.endpoint(0)
                r1, w1 = await _hold_client(host, port)
                reader, writer = await asyncio.open_connection(host, port)
                await _expect_reset(reader)
                await _close_quietly(writer)
                await _close_quietly(w1)
                await asyncio.sleep(0)
                return gw.sim.metrics.snapshot()
            finally:
                await gw.aclose()

        snap = asyncio.run(scenario())
        assert _shed_total(snap, "rate") == 1
        assert snap["counters"]["gw.accepted"] == 1

    def test_open_breaker_sheds_instantly_after_sim_failures(self):
        async def scenario():
            net = build_chain(1, seed=1)  # nothing on port 9
            gw = Gateway(
                net, [MoteBinding(node_id=1, sim_port=9)],
                speed=200.0, slack_budget=10.0,
                backoff={"base": 0.02, "factor": 1.0, "max_attempts": 1,
                         "jitter": 0.0},
                limits=GatewayLimits(breaker_threshold=1,
                                     breaker_cooldown=60.0),
            )
            await gw.start()
            try:
                host, port = gw.endpoint(0)
                # first client exhausts its retries -> terminal failure
                reader, writer = await asyncio.open_connection(host, port)
                await _expect_reset(reader)
                await _close_quietly(writer)
                for _ in range(100):
                    snap = gw.sim.metrics.snapshot()
                    if snap["counters"].get("gw.errors"):
                        break
                    await asyncio.sleep(0.05)
                # breaker now open: the next client never reaches the sim
                reader, writer = await asyncio.open_connection(host, port)
                await _expect_reset(reader)
                await _close_quietly(writer)
                await asyncio.sleep(0)
                return gw.sim.metrics.snapshot()
            finally:
                await gw.aclose()

        snap = asyncio.run(scenario())
        assert snap["counters"]["gw.errors"] >= 1
        assert _shed_total(snap, "breaker") >= 1

    def test_establish_timeout_reaps_stuck_session(self):
        async def scenario():
            net = build_chain(1, seed=1)  # nothing on port 9
            gw = Gateway(
                net, [MoteBinding(node_id=1, sim_port=9)],
                speed=50.0, slack_budget=10.0,
                # long retry ladder: the bridge sits unestablished in
                # backoff until the reaper's deadline fires
                backoff={"base": 30.0, "factor": 1.0, "max_attempts": 5,
                         "jitter": 0.0},
                limits=GatewayLimits(establish_timeout=0.2,
                                     reap_interval=0.05),
            )
            await gw.start()
            try:
                host, port = gw.endpoint(0)
                reader, writer = await asyncio.open_connection(host, port)
                await _expect_reset(reader)
                await _close_quietly(writer)
                await asyncio.sleep(0)
                return gw.sim.metrics.snapshot(), gw.active_bridges()
            finally:
                await gw.aclose()

        snap, active = asyncio.run(scenario())
        assert _shed_total(snap, "establish_timeout") == 1
        assert active == 0

    def test_idle_timeout_reaps_slow_loris(self):
        async def scenario():
            gw = self._gateway(
                GatewayLimits(idle_timeout=0.2, reap_interval=0.05))
            await gw.start()
            try:
                host, port = gw.endpoint(0)
                reader, writer = await _hold_client(host, port)
                # consume the echo, then go silent and wait to be shot
                await asyncio.wait_for(reader.readexactly(1), 30)
                await _expect_reset(reader)
                await _close_quietly(writer)
                await asyncio.sleep(0)
                return gw.sim.metrics.snapshot(), gw.active_bridges()
            finally:
                await gw.aclose()

        snap, active = asyncio.run(scenario())
        assert _shed_total(snap, "idle") == 1
        assert active == 0

    def test_splice_budget_pauses_then_drains_clean(self):
        async def scenario():
            net = build_chain(1, seed=1)
            sink = install_sink(net, 1, 7)
            sink.pause()  # zero-window mote: bytes pile up in the bridge
            gw = Gateway(
                net, [MoteBinding(node_id=1, sim_port=7)],
                speed=50.0, slack_budget=10.0,
                limits=GatewayLimits(splice_budget=2048),
            )
            await gw.start()
            try:
                host, port = gw.endpoint(0)
                payload = bytes(range(256)) * 64  # 16 KiB >> budget
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(payload)
                writer.write_eof()
                await writer.drain()
                # budget must trip while the mote refuses to drain
                for _ in range(100):
                    if gw.splice_used() > 2048:
                        break
                    await asyncio.sleep(0.05)
                paused_snap = gw.sim.metrics.snapshot()
                gw.runner.inject(sink.resume)
                assert await asyncio.wait_for(reader.read(-1), 60) == b""
                await _close_quietly(writer)
                for _ in range(100):
                    if gw.splice_used() == 0 and gw.active_bridges() == 0:
                        break
                    await asyncio.sleep(0.05)
                return (sink, len(payload), paused_snap,
                        gw.splice_used(), gw.sim.metrics.snapshot())
            finally:
                await gw.aclose()

        sink, nbytes, paused_snap, pinned, snap = asyncio.run(scenario())
        assert paused_snap["counters"]["gw.splice_pauses"] >= 1
        assert paused_snap["gauges"]["gw.splice_buffered"] > 0
        assert sink.bytes == nbytes      # every byte arrived after resume
        assert pinned == 0               # and the budget drained to zero
        assert _shed_total(snap, "capacity") == 0  # nobody was shed
