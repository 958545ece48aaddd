"""Tests for repro.faults: schedules, models, injector, invariants.

Covers the PR 3 acceptance criteria: schedule validation fails fast,
the Gilbert-Elliott model at its degenerate point matches UniformLoss
goodput within 5% on the Figure 9 scenario, injections are
byte-reproducible from the seed, and the invariant checkers catch
real violations.
"""

import json

import pytest

from repro.core.simplified import tcplp_params
from repro.core.socket_api import TcpStack
from repro.experiments.topology import build_chain, build_pair
from repro.experiments.workload import BulkTransfer
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    FrameCorruption,
    GilbertElliottLoss,
    SkewedClock,
    auto_inject,
    drain_auto,
)
from repro.mac.frame import Frame, FrameKind
from repro.phy.energy import RadioState
from repro.phy.medium import UniformLoss
from repro.sim import metrics
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.timers import Timer
from repro.verify import postrun as invariants


# ======================================================================
# FaultSchedule validation
# ======================================================================
class TestScheduleValidation:
    def test_minimal_schedule_fills_defaults(self):
        sched = FaultSchedule.from_dict(
            {"faults": [{"kind": "bursty_loss",
                         "p_good_bad": 0.1, "p_bad_good": 0.5}]})
        fault = sched.faults[0]
        assert fault["loss_bad"] == 1.0
        assert fault["loss_good"] == 0.0
        assert fault["at"] == 0.0
        assert fault["until"] is None

    def test_bare_list_shorthand(self):
        sched = FaultSchedule.from_dict(
            [{"kind": "uniform_loss", "rate": 0.2}])
        assert len(sched) == 1

    def test_round_trip_through_json(self, tmp_path):
        spec = {"name": "rt", "faults": [
            {"kind": "link_flap", "a": 0, "b": 1, "at": 5.0,
             "down_for": 1.0, "repeat_every": 3.0, "count": 2},
            {"kind": "uniform_loss", "rate": 0.1, "link": [1, 0]},
        ]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        sched = FaultSchedule.from_json(path)
        again = FaultSchedule.from_dict(sched.to_dict())
        assert again.to_dict() == sched.to_dict()
        assert again.faults[1]["link"] == (1, 0)

    @pytest.mark.parametrize("bad", [
        {"kind": "martian_attack"},
        {"kind": "bursty_loss", "p_good_bad": 0.1},          # missing field
        {"kind": "bursty_loss", "p_good_bad": 1.5, "p_bad_good": 0.5},
        {"kind": "uniform_loss", "rate": -0.1},
        {"kind": "uniform_loss", "rate": True},              # bool not number
        {"kind": "uniform_loss", "rate": 0.1, "bogus": 1},   # unknown field
        {"kind": "uniform_loss", "rate": 0.1, "link": [0]},  # malformed link
        {"kind": "uniform_loss", "rate": 0.1, "at": 5.0, "until": 5.0},
        {"kind": "link_flap", "a": 0, "b": 1, "at": -1.0, "down_for": 1.0},
        {"kind": "link_flap", "a": 0, "b": 1, "at": 0.0, "down_for": 1.0,
         "count": 3},                                        # no repeat_every
        {"kind": "link_flap", "a": 0, "b": 1, "at": 0.0, "down_for": 1.0,
         "count": 0},
        {"kind": "node_reboot", "node": 1, "at": 5.0, "outage": -1.0},
        {"kind": "clock_drift", "node": 0, "skew": 0.0},
        {"kind": "link_flap", "a": 0, "b": 1, "at": float("nan"),
         "down_for": 1.0},
        {"kind": "link_flap", "a": 0, "b": 1, "at": 0.0,
         "down_for": float("inf")},
        {"kind": "node_reboot", "node": 1, "at": float("inf"), "outage": 1.0},
        {"kind": "clock_drift", "node": 0, "skew": float("nan")},
        {"kind": "link_flap", "a": 0, "b": 1, "at": 0.0, "down_for": 1.0,
         "repeat_every": 1.0, "count": 10**9},              # arm() never returns
        "not a dict",
        # declared errors where a TypeError or OverflowError escaped
        {"kind": []},                                        # unhashable kind
        {"kind": {}},
        {"kind": "uniform_loss", "rate": 10**400},           # beyond a double
        {"kind": "bursty_loss", "p_good_bad": 10**400, "p_bad_good": 0.5},
        {"kind": "link_flap", "a": 0, "b": 1, "at": 10**400,
         "down_for": 1.0},
        {"kind": "uniform_loss", "rate": 0.1, "at": None},
        {"kind": "link_flap", "a": 0, "b": 1, "at": 0.0, "down_for": 1.0,
         "count": None},
        {"kind": "bursty_loss", "p_good_bad": 0.1, "p_bad_good": 0.5,
         "loss_good": None},
        {"kind": "frame_corruption", "rate": 0.1, "truncate_rate": "x"},
        {"kind": "clock_drift", "node": 0, "offset_ms": None},
        # accepted before, and wrong
        {"kind": "uniform_loss", "rate": 0.1, "link": [True, False]},
        {"kind": "clock_drift", "node": 0, "skew": 1e308},   # overflows mid-run
        {"kind": "uniform_loss", "rate": 0.1, 1: 0, "x": 0},  # mixed keys
    ])
    def test_invalid_entries_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultSchedule.from_dict({"faults": [bad]})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule.from_dict({"faults": [], "typo": 1})

    def test_by_kind(self):
        sched = FaultSchedule.from_dict({"faults": [
            {"kind": "uniform_loss", "rate": 0.1},
            {"kind": "node_reboot", "node": 1, "at": 1.0, "outage": 1.0},
            {"kind": "uniform_loss", "rate": 0.2},
        ]})
        rates = [f["rate"] for f in sched.faults
                 if f["kind"] == "uniform_loss"]
        assert rates == [0.1, 0.2]


# ======================================================================
# Fault models
# ======================================================================
class TestGilbertElliott:
    def test_stationary_loss_rate(self):
        rng = RngStreams(1)
        ge = GilbertElliottLoss(0.03, 0.3, rng)
        assert ge.stationary_loss_rate() == pytest.approx(0.03 / 0.33)
        frozen = GilbertElliottLoss(0.0, 0.0, rng, loss_good=0.05)
        assert frozen.stationary_loss_rate() == 0.05

    def test_empirical_rate_tracks_stationary(self):
        rng = RngStreams(42)
        ge = GilbertElliottLoss(0.05, 0.45, rng)
        n = 20_000
        drops = sum(ge(0, 1, t * 0.01) for t in range(n))
        assert drops / n == pytest.approx(ge.stationary_loss_rate(),
                                          abs=0.01)

    def test_losses_are_bursty(self):
        """Mean burst length must approach 1/p_bad_good, not 1."""
        rng = RngStreams(7)
        ge = GilbertElliottLoss(0.02, 0.2, rng)  # expect ~5-frame bursts
        outcomes = [ge(0, 1, t * 0.01) for t in range(50_000)]
        bursts, run = [], 0
        for dropped in outcomes:
            if dropped:
                run += 1
            elif run:
                bursts.append(run)
                run = 0
        mean_burst = sum(bursts) / len(bursts)
        assert mean_burst == pytest.approx(1 / 0.2, rel=0.2)

    def test_per_link_state_is_independent(self):
        rng = RngStreams(3)
        ge = GilbertElliottLoss(0.5, 0.5, rng)
        ge(0, 1, 0.0)
        ge(2, 3, 0.0)
        assert set(ge._bad) == {(0, 1), (2, 3)}

    def test_window_gating_consumes_no_rng(self):
        rng = RngStreams(9)
        ge = GilbertElliottLoss(0.5, 0.5, rng, at=10.0, until=20.0)
        before = rng.random("probe")
        assert ge(0, 1, 5.0) is False     # before window
        assert ge(0, 1, 25.0) is False    # after window
        rng2 = RngStreams(9)
        rng2.random("probe")
        assert rng.random("fault-ge") == rng2.random("fault-ge")
        assert before is not None

    def test_bad_state_drops_a_share_of_frames(self):
        """Elliott's variant: a state with a loss rate between 0 and 1
        drops that share of its frames, each drop counted."""
        ge = GilbertElliottLoss(1.0, 0.0, RngStreams(11), loss_bad=0.2)
        n = 5_000
        drops = sum(ge(0, 1, t * 0.01) for t in range(n))
        assert drops / n == pytest.approx(0.2, abs=0.02)
        assert ge.drops == drops

    def test_link_filter(self):
        rng = RngStreams(5)
        ge = GilbertElliottLoss(1.0, 0.0, rng, link=(0, 1))
        assert ge(1, 0, 0.0) is False  # reverse direction untouched
        assert ge(0, 1, 0.0) is True   # p_good_bad=1, loss_bad=1


class TestFrameCorruption:
    def test_validates_rates(self):
        rng = RngStreams(1)
        with pytest.raises(ValueError):
            FrameCorruption(1.5, rng)
        with pytest.raises(ValueError):
            FrameCorruption(0.5, rng, truncate_rate=-0.1)

    def test_corruption_rate_and_classification(self):
        rng = RngStreams(11)
        seen = []
        fc = FrameCorruption(0.2, rng, truncate_rate=0.5,
                             on_corrupt=lambda s, r, k: seen.append(k))
        n = 10_000
        dropped = sum(fc(None, 0, 1) for _ in range(n))
        assert dropped / n == pytest.approx(0.2, abs=0.02)
        assert dropped == fc.corrupted == len(seen)
        truncs = seen.count("truncate")
        assert truncs / len(seen) == pytest.approx(0.5, abs=0.05)
        assert set(seen) == {"truncate", "bit_error"}


class TestSkewedClock:
    def test_skew_and_offset(self):
        clock = SkewedClock(skew=2.0, offset_ms=100)
        assert clock(1.0) == 2100

    def test_wraps_at_32_bits(self):
        clock = SkewedClock(offset_ms=(1 << 32) - 500)
        assert clock(1.0) == 500  # 1000 ms - 500 ms past the wrap

    def test_rejects_non_positive_skew(self):
        with pytest.raises(ValueError):
            SkewedClock(skew=0.0)


# ======================================================================
# Acceptance: degenerate GE == UniformLoss (Fig. 9 scenario, 5%)
# ======================================================================
def _fig9_goodput(loss_model_factory, seed=1, rate=0.09):
    net = build_pair(seed=seed)
    net.medium.loss_models.append(loss_model_factory(rate, net.rng))
    params = tcplp_params()
    node1, node0 = net.nodes[1], net.nodes[0]
    src = TcpStack(net.sim, node1.ipv6, 1, cpu=node1.radio.cpu)
    dst = TcpStack(net.sim, node0.ipv6, 0, cpu=node0.radio.cpu)
    xfer = BulkTransfer(net.sim, src, dst, receiver_id=0, params=params,
                        receiver_params=params)
    return xfer.measure(10.0, 40.0).goodput_kbps


def test_degenerate_ge_matches_uniform_loss_goodput():
    """GE at (p_gb=rate, p_bg=1-rate) is i.i.d. Bernoulli(rate), so the
    Fig. 9 one-hop goodput must land within 5% of UniformLoss."""
    rate = 0.09
    uniform = _fig9_goodput(lambda r, rng: UniformLoss(r, rng))
    degenerate = _fig9_goodput(
        lambda r, rng: GilbertElliottLoss(r, 1.0 - r, rng))
    assert degenerate == pytest.approx(uniform, rel=0.05)
    ge = GilbertElliottLoss(rate, 1.0 - rate, RngStreams(0))
    assert ge.stationary_loss_rate() == pytest.approx(rate)


# ======================================================================
# FaultInjector
# ======================================================================
def _flap_schedule():
    return FaultSchedule.from_dict({"faults": [
        {"kind": "link_flap", "a": 0, "b": 1, "at": 1.0, "down_for": 0.5,
         "repeat_every": 2.0, "count": 2},
    ]})


class TestInjector:
    def test_link_flap_blocks_and_unblocks(self):
        net = build_pair(seed=1)
        inj = FaultInjector(net, _flap_schedule()).arm()
        states = []
        for t in (0.9, 1.1, 1.6, 3.1, 3.6):
            net.sim.run(until=t)
            states.append((0, 1) in net.medium._blocked_links)
        assert states == [False, True, False, True, False]
        kinds = [(e.kind, e.time) for e in inj.events]
        assert kinds == [("link_down", 1.0), ("link_up", 1.5),
                         ("link_down", 3.0), ("link_up", 3.5)]

    def test_arm_is_idempotent(self):
        net = build_pair(seed=1)
        inj = FaultInjector(net, _flap_schedule())
        inj.arm().arm()
        net.sim.run(until=5.0)
        assert inj.counts["link_down"] == 2

    def test_node_reboot_cold_restarts(self):
        net = build_pair(seed=2)
        sched = FaultSchedule.from_dict({"faults": [
            {"kind": "node_reboot", "node": 1, "at": 1.0, "outage": 2.0},
        ]})
        inj = FaultInjector(net, sched).arm()
        net.sim.run(until=1.5)
        assert net.nodes[1].radio.powered is False
        with pytest.raises(RuntimeError):
            net.nodes[1].radio.transmit(object(), 32, lambda ok: None)
        net.sim.run(until=3.5)
        assert net.nodes[1].radio.powered is True
        assert [e.kind for e in inj.events] == ["node_crash", "node_reboot"]

    def test_node_reboot_unknown_node_rejected(self):
        net = build_pair(seed=2)
        sched = FaultSchedule.from_dict({"faults": [
            {"kind": "node_reboot", "node": 99, "at": 1.0, "outage": 2.0},
        ]})
        with pytest.raises(ValueError):
            FaultInjector(net, sched).arm()

    def test_crash_loses_tcp_state_and_reboot_accepts_again(self):
        """The crashed node's connections vanish without FIN/RST; after
        reboot a fresh connection to the same port succeeds."""
        net = build_pair(seed=3)
        sched = FaultSchedule.from_dict({"faults": [
            {"kind": "node_reboot", "node": 1, "at": 2.0, "outage": 1.0},
        ]})
        FaultInjector(net, sched).arm()
        stack0 = TcpStack(net.sim, net.nodes[0].ipv6, 0)
        stack1 = TcpStack(net.sim, net.nodes[1].ipv6, 1)
        stack1.listen(8000, lambda c: None, params=tcplp_params())
        conn = stack0.connect(1, 8000, params=tcplp_params())
        errors = []
        conn.on_error = errors.append
        net.sim.run(until=1.9)
        assert stack1.active_connections() == 1
        net.sim.run(until=2.1)
        assert stack1.active_connections() == 0  # state gone, silently
        # the survivor only notices when it next sends: the rebooted
        # stack has no matching socket and answers with a RST
        errors_before = list(errors)
        conn.send(b"hello, are you there?")
        net.sim.run(until=120.0)
        assert conn.state.value == "closed"
        assert len(errors) > len(errors_before)
        # after reboot the node accepts again (the listener survives the
        # crash, modelling an application that re-registers on boot)
        conn2 = stack0.connect(1, 8000, params=tcplp_params())
        connected = []
        conn2.on_connect = lambda: connected.append(net.sim.now)
        net.sim.run(until=125.0)
        assert connected

    def test_clock_drift_reaches_connection(self):
        net = build_pair(seed=4)
        sched = FaultSchedule.from_dict({"faults": [
            {"kind": "clock_drift", "node": 0, "skew": 2.0,
             "offset_ms": 100},
        ]})
        inj = FaultInjector(net, sched).arm()
        stack = TcpStack(net.sim, net.nodes[0].ipv6, 0)
        peer = TcpStack(net.sim, net.nodes[1].ipv6, 1)
        peer.listen(8000, lambda c: None, params=tcplp_params())
        conn = stack.connect(1, 8000, params=tcplp_params())
        assert conn.ts_clock is inj.clocks[0]
        net.sim.run(until=1.0)
        assert conn._now_ts() == inj.clocks[0](net.sim.now)

    def test_injector_log_is_deterministic(self):
        def run():
            net = build_chain(2, seed=5, with_cloud=False)
            sched = FaultSchedule.from_dict({"faults": [
                {"kind": "bursty_loss", "p_good_bad": 0.05,
                 "p_bad_good": 0.4},
                {"kind": "frame_corruption", "rate": 0.05},
                {"kind": "link_flap", "a": 0, "b": 1, "at": 3.0,
                 "down_for": 1.0},
            ]})
            inj = FaultInjector(net, sched).arm()
            params = tcplp_params()
            src = TcpStack(net.sim, net.nodes[2].ipv6, 2)
            dst = TcpStack(net.sim, net.nodes[0].ipv6, 0)
            xfer = BulkTransfer(net.sim, src, dst, receiver_id=0,
                                params=params, receiver_params=params)
            xfer.measure(2.0, 10.0)
            return [e.as_dict() for e in inj.events]

        log1, log2 = run(), run()
        assert log1 == log2
        assert any(e["kind"] == "frame_corrupted" for e in log1)

    def test_to_jsonl_exports_log(self, tmp_path):
        net = build_pair(seed=1)
        inj = FaultInjector(net, _flap_schedule()).arm()
        net.sim.run(until=5.0)
        path = tmp_path / "faults.jsonl"
        count = inj.to_jsonl(path)
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(inj.events)
        assert json.loads(lines[0])["layer"] == "fault"

    def test_uniform_loss_drops_every_frame_inside_its_window(self):
        net = build_pair(seed=1)
        FaultInjector(net, FaultSchedule.from_dict({"faults": [
            {"kind": "uniform_loss", "rate": 1.0, "at": 3.0, "until": 6.0},
        ]})).arm()
        params = tcplp_params()
        BulkTransfer(net.sim, TcpStack(net.sim, net.nodes[1].ipv6, 1),
                     TcpStack(net.sim, net.nodes[0].ipv6, 0), receiver_id=0,
                     params=params, receiver_params=params)
        delivered = []
        for t in (3.0, 5.999, 9.0):
            net.sim.run(until=t)
            delivered.append(net.medium.frames_delivered)
        before, inside, after = delivered
        assert before > 0  # the transfer runs before the window ...
        assert inside == before  # ... no frame crosses inside it ...
        assert after > inside  # ... and frames cross again after it

    def test_injections_reach_an_attached_trace_bus(self):
        metrics.auto_attach(True, capture_trace=True, trace_capacity=None)
        try:
            net = build_pair(seed=1)
        finally:
            metrics.auto_attach(False)
        inj = FaultInjector(net, _flap_schedule()).arm()
        net.sim.run(until=5.0)
        bus_faults = [e for e in net.sim.trace_bus.events
                      if e.layer == "fault"]
        assert bus_faults == inj.events and len(bus_faults) == 4

    def test_summary_counts_by_kind(self):
        net = build_pair(seed=1)
        inj = FaultInjector(net, _flap_schedule()).arm()
        net.sim.run(until=5.0)
        assert inj.summary() == {"link_down": 2, "link_up": 2}


# ======================================================================
# an outage shorter than the work it interrupts
# ======================================================================
class TestShortOutage:
    """``FaultSchedule`` accepts any ``outage >= 0``, so a radio can be
    back up before the SPI load or the frame it was cut off in would
    have ended; none of that pre-crash work may complete afterwards."""

    @staticmethod
    def _frame(seq):
        return Frame(kind=FrameKind.DATA, src=0, dst=1, seq=seq,
                     payload=seq, payload_bytes=80)

    def test_load_cut_off_by_a_crash_never_completes(self):
        # a 100 B load takes 3.392 ms; the radio is off from 1 to 2 ms
        net = build_pair(seed=1)
        sim, radio = net.sim, net.nodes[0].radio
        done = []
        radio.load(100, done.append, "pre-crash")
        sim.schedule_at(0.001, radio.power_off)
        sim.schedule_at(0.002, radio.power_on)
        sim.schedule_at(0.0025, radio.load, 100, done.append, "post-reboot")
        sim.run(until=0.0045)  # the first load would have ended at 3.392 ms
        assert done == []
        assert radio._load_busy
        with pytest.raises(RuntimeError):
            radio.load(100, done.append, "while loading")
        sim.run(until=0.01)
        assert done == ["post-reboot"] and not radio._load_busy

    def test_transmit_cut_off_in_its_spi_phase_never_reaches_the_air(self):
        # the same outage over a load that hands its frame to transmit
        net = build_pair(seed=1)
        sim, radio, medium = net.sim, net.nodes[0].radio, net.medium
        heard, done = [], []
        net.nodes[1].radio.on_frame = lambda frame, src: heard.append(frame.seq)
        radio.load(103, radio.transmit, self._frame(1), 103, done.append, 1)
        sim.schedule_at(0.001, radio.power_off)
        sim.schedule_at(0.002, radio.power_on)
        sim.schedule_at(0.0025, radio.load, 103, radio.transmit,
                        self._frame(2), 103, done.append, 2)
        sim.run(until=0.0065)  # frame 2 is on the air from 5.988 to 9.476 ms
        assert [tx.frame.seq for tx in medium._active] == [2]
        sim.run(until=0.0075)  # frame 1 would have left the air at 6.976 ms
        assert radio._tx_busy and radio.energy.state is RadioState.TX
        sim.run(until=0.01)
        assert heard == [2] and done == [2] and radio.frames_sent == 1

    def test_reboot_mid_air_does_not_release_the_rebooted_radio(self):
        # 103 B are on the air for 3.488 ms; the crash cuts frame 1 short
        net = build_pair(seed=1)
        sim, radio = net.sim, net.nodes[0].radio
        heard, done = [], []
        net.nodes[1].radio.on_frame = lambda frame, src: heard.append(frame.seq)
        radio.transmit(self._frame(1), 103, done.append, 1)
        sim.schedule_at(0.001, radio.power_off)
        sim.schedule_at(0.0015, radio.power_on)
        sim.schedule_at(0.002, lambda: radio.transmit(
            self._frame(2), 103, done.append, 2))
        sim.run(until=0.004)  # frame 1's end of air was due at 3.488 ms
        assert radio._tx_busy and radio.energy.state is RadioState.TX
        assert done == [] and radio.frames_sent == 0
        sim.run(until=0.01)
        # frame 2 overlapped the truncated frame 1 at the receiver
        assert heard == [] and net.medium.frames_collided == 2
        assert done == [2] and radio.frames_sent == 1

    def test_power_cycle_mid_ack_wait_closes_the_ack_window(self):
        # the link ACK starts one 192 us turnaround into the ack-wait;
        # the radio loses power, and with it the wait, before that
        net = build_pair(seed=1)
        sim, sender, radio = net.sim, net.nodes[0].mac, net.nodes[0].radio
        got = []
        net.nodes[1].mac.on_receive = (
            lambda payload, src, frame: got.append(payload))
        sender.send("x", 20, 1)
        while radio.ack_seq is None:
            sim.run(until=sim.now + 1e-5)
        radio.power_off()
        assert radio.ack_seq is None
        radio.power_on()  # listening again before the ACK's first bit
        sim.run(until=sim.now + sender.params.ack_wait)
        # the ACK arrived cleanly at a radio that no longer waited for it
        assert net.medium.frames_delivered == 2
        assert radio.frames_received == 0
        assert sender.trace.counters.get("mac.ack_timeouts") == 1
        sim.run()
        # the MAC, which did not crash, retried and was acknowledged
        assert sender.trace.counters.get("mac.tx_success") == 1
        assert net.nodes[1].mac.trace.counters.get("mac.duplicates") == 1
        assert got == ["x"] and radio.ack_seq is None

    def test_half_millisecond_reboot_of_a_relay_mid_load(self):
        net = build_chain(2, seed=1, with_cloud=False)
        sim, relay = net.sim, net.nodes[1]
        got = []
        net.nodes[0].mac.on_receive = (
            lambda payload, src, frame: got.append(payload))
        FaultInjector(net, FaultSchedule.from_dict({"faults": [
            {"kind": "node_reboot", "node": 1, "at": 1.001,
             "outage": 0.0005},
        ]})).arm()
        # 77 B of payload make a 100 B frame: loading until 1.003392
        sim.schedule_at(1.0, relay.mac.send, "pre-crash", 77, 0)
        sim.schedule_at(1.002, relay.mac.send, "post-reboot", 77, 0)
        sim.run(until=1.0045)  # the second load ends at 1.005392
        assert relay.radio.powered and relay.radio._load_busy
        sim.run(until=2.0)
        assert got == ["post-reboot"]
        assert not relay.radio._load_busy and not relay.radio._tx_busy


# ======================================================================
# auto-injection (runner integration)
# ======================================================================
def test_auto_inject_attaches_to_built_networks():
    spec = {"faults": [{"kind": "uniform_loss", "rate": 0.1}]}
    auto_inject(spec)
    try:
        net = build_pair(seed=1)
        assert net.faults is not None
        assert net.faults.summary() == {"uniform_loss": 1}
        assert drain_auto() == [net.faults]
        assert drain_auto() == []
    finally:
        auto_inject(None)
    assert build_pair(seed=1).faults is None


# ======================================================================
# invariants
# ======================================================================
class TestInvariants:
    def test_stream_integrity_pass_and_fail(self):
        sent = b"abcdef"
        assert invariants._check_stream_integrity(sent, sent) == []
        assert invariants._check_stream_integrity(sent, b"abc", errors=["x"]) == []
        [short] = invariants._check_stream_integrity(sent, b"abc")  # no error
        assert "prefix is corrupted" not in short
        [bad] = invariants._check_stream_integrity(sent, b"abX")
        assert bad.endswith("without a declared error and the prefix is "
                            "corrupted")
        assert invariants._check_stream_integrity(sent, b"abX", errors=["x"])

    def test_recovery_bound(self):
        check = invariants._check_recovery_bound
        assert check(10.0, 5.0, 60.0) == []
        assert check(None, 5.0, 60.0, errors=["failed"]) == []
        assert check(None, 5.0, 60.0)           # limbo
        assert check(100.0, 5.0, 60.0)          # too late

    def test_armed_timer_detected_and_cleared(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None, "tcp-rexmt")
        timer.start(5.0)
        assert invariants._check_no_armed_tcp_timers(sim)
        timer.stop()
        assert invariants._check_no_armed_tcp_timers(sim) == []

    def test_non_tcp_timers_ignored(self):
        sim = Simulator()
        Timer(sim, lambda: None, "mac-ack").start(5.0)
        assert invariants._check_no_armed_tcp_timers(sim) == []

    def test_check_quiescent_flags_live_connection(self):
        net = build_pair(seed=6)
        stack0 = TcpStack(net.sim, net.nodes[0].ipv6, 0)
        stack1 = TcpStack(net.sim, net.nodes[1].ipv6, 1)
        stack1.listen(8000, lambda c: None, params=tcplp_params())
        stack0.connect(1, 8000, params=tcplp_params())
        net.sim.run(until=1.0)
        assert invariants._check_quiescent(net.sim, (stack0, stack1))


# ======================================================================
# CI smoke harness
# ======================================================================
def test_smoke_run_passes_all_invariants():
    from repro.faults import smoke

    result = smoke._run_transfer()
    assert result["violations"] == []
    assert result["done_at"] is not None
    # the transfer must actually straddle the scheduled chaos
    assert result["done_at"] > smoke.LAST_FAULT_AT
    kinds = {e.kind for e in result["injector"].events}
    assert {"node_crash", "node_reboot", "link_down"} <= kinds
