"""Experiment-harness integration tests (short runs, shape assertions).

The benchmarks run the full-length versions; these verify the harness
plumbing and the qualitative trends on abbreviated runs.
"""

import pytest

from repro.experiments.exp_app import (
    run_app_study,
    run_fig10_daylong,
    table8_row,
)
from repro.experiments.exp_cells import single_hop_cell
from repro.experiments.exp_duty import (
    run_adaptive_duty_cycle,
    run_duty_cycle_point,
)
from repro.experiments.exp_fairness import _run_two_flows
from repro.experiments.exp_retry_delay import (
    run_fig7a_cwnd_trace,
    _run_retry_delay_point,
)
from repro.experiments.exp_table7 import TABLE7_ROWS, _run_stack_context
from repro.experiments.exp_throughput import run_node_to_node


class TestThroughputExperiments:
    def test_node_to_node_in_paper_band(self):
        result = run_node_to_node(duration=30.0)
        # §6.3: 63-75 kb/s across stacks; allow simulation tolerance
        assert 55 <= result.goodput_kbps <= 85

    def test_mss_sweep_rises_then_flattens(self):
        up = {frames: single_hop_cell(frames=frames)["goodput_kbps"]
              for frames in (2, 5)}
        assert up[5] > 1.3 * up[2]

    def test_buffer_sweep_saturates(self):
        w1, w4 = (single_hop_cell(window=window, uplink=False)
                  for window in (1, 4))
        assert w4["goodput_kbps"] > 1.5 * w1["goodput_kbps"]
        assert w4["rtt_mean"] > w1["rtt_mean"]

    def test_hops_follow_one_half_third_law(self):
        g = {hops: _run_retry_delay_point(hops, 0.04,
                                          duration=40.0)["goodput_kbps"]
             for hops in (1, 2, 3)}
        assert g[2] == pytest.approx(g[1] / 2, rel=0.25)
        assert g[3] == pytest.approx(g[1] / 3, rel=0.30)


class TestRetryDelayExperiments:
    def test_d0_vs_d40_at_three_hops(self):
        d0 = _run_retry_delay_point(3, 0.0, duration=40.0)
        d40 = _run_retry_delay_point(3, 0.04, duration=40.0)
        # hidden terminals: segment loss falls sharply with d (Fig. 6b)
        assert d0["segment_loss"] > 0.03
        assert d40["segment_loss"] < 0.5 * d0["segment_loss"]
        # more frames are needed per delivered byte at d=0 (Fig. 6d)
        assert d0["frames_sent"] / max(d0["goodput_kbps"], 1) > (
            d40["frames_sent"] / max(d40["goodput_kbps"], 1)
        )
        # RTT grows with d (Fig. 6c)
        assert d40["rtt_mean"] > d0["rtt_mean"]

    def test_eq2_tracks_and_eq1_overshoots(self):
        row = _run_retry_delay_point(3, 0.04, duration=40.0)
        measured = row["goodput_kbps"]
        assert row["predicted_kbps"] == pytest.approx(measured, rel=0.45)
        assert row["mathis_kbps"] > 2 * measured

    def test_cwnd_pinned_at_max_despite_loss(self):
        row = run_fig7a_cwnd_trace(duration=60.0)
        # §7.3: cwnd sits at/near its maximum almost always
        assert row["fraction_near_max"] > 0.6
        assert row["segment_loss"] > 0.02


class TestTable7:
    def test_tcplp_beats_every_baseline(self):
        tcplp = _run_stack_context(TABLE7_ROWS[-1], 1, duration=25.0)
        for ctx in TABLE7_ROWS[:-1]:
            base = _run_stack_context(ctx, 1, duration=25.0)
            assert tcplp > 2 * base, ctx.name

    def test_single_frame_uip_is_slowest(self):
        uip = _run_stack_context(TABLE7_ROWS[0], 1, duration=25.0)
        assert uip < 8.0


class TestAppStudy:
    def test_batching_cuts_duty_cycle(self):
        nobatch = run_app_study("tcp", batching=False, duration=400.0,
                                warmup=60.0)
        batch = run_app_study("tcp", batching=True, duration=400.0,
                              warmup=60.0)
        assert batch.radio_duty_cycle < 0.7 * nobatch.radio_duty_cycle
        assert batch.cpu_duty_cycle < nobatch.cpu_duty_cycle

    def test_all_protocols_reliable_in_clean_conditions(self):
        for proto in ("tcp", "coap"):
            r = run_app_study(proto, batching=True, duration=400.0,
                              warmup=60.0)
            assert r.reliability > 0.97, proto
            # a batched drain leaves as near-full messages (5 readings
            # fit one) and the leaf's MAC queue absorbs it
            assert r.generated / r.data_segments > 4, proto
            assert r.mac_tail_drops == 0, proto

    def test_cocoa_collapses_at_15_percent_but_not_tcp_coap(self):
        results = {
            proto: run_app_study(proto, batching=True, injected_loss=0.15,
                                 duration=500.0, warmup=60.0)
            for proto in ("tcp", "coap", "cocoa")
        }
        assert results["coap"].reliability > 0.9
        assert results["tcp"].reliability > 0.85
        assert results["cocoa"].reliability < 0.75

    def test_unreliable_coap_loses_more_but_costs_less(self):
        rel = run_app_study("coap", batching=True, duration=400.0,
                            warmup=60.0, injected_loss=0.05)
        unrel = run_app_study("coap", batching=True, duration=400.0,
                              warmup=60.0, injected_loss=0.05,
                              confirmable=False)
        assert unrel.reliability < rel.reliability
        assert unrel.radio_duty_cycle < rel.radio_duty_cycle

    @pytest.mark.parametrize("protocol", ["tcp", "coap"])
    def test_a_days_first_hours_are_a_shorter_day(self, protocol):
        """Table 8 reads its reliable rows off Fig. 10's days: a day's
        first k hourly rows, run totals included, are a k-hour day's,
        so nothing done at a day's end may touch an hourly row."""
        day = run_fig10_daylong(protocol, hours=5, seconds_per_hour=40.0)
        short = run_fig10_daylong(protocol, hours=3, seconds_per_hour=40.0)
        assert day[:3] == short
        assert 0 < short[-1]["run_reliability"] <= 1.0
        assert table8_row(protocol, day[:3]) == table8_row(protocol, short)


class TestFairness:
    def test_four_segment_windows_share_fairly(self):
        r = _run_two_flows(1, window_segments=4, duration=40.0)
        assert r.jain_index > 0.95
        assert r.aggregate_kbps > 40

    def test_red_ecn_restores_three_hop_fairness(self):
        worst_plain = min(
            _run_two_flows(3, window_segments=7, duration=40.0,
                          seed=s).jain_index
            for s in (0, 2)
        )
        worst_red = min(
            _run_two_flows(3, window_segments=7, red=True, duration=40.0,
                          seed=s).jain_index
            for s in (0, 2)
        )
        assert worst_red > worst_plain


class TestDutyCycleAppendix:
    def test_rtt_tracks_sleep_interval_uplink(self):
        row = run_duty_cycle_point(1.0, uplink=True, duration=30.0)
        # §C.1: TCP self-clocking makes RTT ≈ the sleep interval
        assert row["rtt_mean"] == pytest.approx(1.0, rel=0.25)

    def test_goodput_collapses_with_long_intervals(self):
        fast = run_duty_cycle_point(0.02, uplink=True, duration=30.0)
        slow = run_duty_cycle_point(2.0, uplink=True, duration=30.0)
        assert slow["goodput_kbps"] < 0.25 * fast["goodput_kbps"]

    def test_adaptive_keeps_throughput_and_low_idle_duty(self):
        r = run_adaptive_duty_cycle(uplink=True, duration=30.0)
        assert r["goodput_kbps"] > 40
        assert r["idle_duty_cycle"] < 0.005  # ~0.1% in the paper
        assert r["sleep_interval_after_idle"] == 5.0
