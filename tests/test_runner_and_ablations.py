"""The experiment catalog through campaigns, and ablation-harness
smoke tests."""

import pytest

from repro.campaign import run_campaign
from repro.experiments.exp_ablations import ABLATIONS, _run_ablation
from repro.experiments.runner import DEFAULT_CATALOG


class TestAblationHarness:
    def test_all_named_ablations_runnable(self):
        row = _run_ablation("full TCPlp", scenario="clean-1hop",
                           duration=10.0)
        assert row["goodput_kbps"] > 0
        assert row["scenario"] == "clean-1hop"

    def test_window_ablation_shrinks_buffers(self):
        from repro.core.simplified import tcplp_params

        mutate = ABLATIONS["1-segment window"]
        p = mutate(tcplp_params())
        assert p.send_buffer == p.mss
        assert p.recv_buffer == p.mss

    def test_full_profile_unmutated(self):
        from repro.core.simplified import tcplp_params

        assert ABLATIONS["full TCPlp"](tcplp_params()) == tcplp_params()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            _run_ablation("full TCPlp", scenario="marsnet")

    def test_lossy_scenario_produces_segment_loss(self):
        row = _run_ablation("full TCPlp", scenario="lossy-1hop",
                           duration=30.0, frame_loss=0.15)
        assert row["segment_loss"] > 0.03


def _boom(quick):
    raise RuntimeError("injected")


def run_quiet(experiments, catalog=None):
    return run_campaign({"experiments": experiments}, catalog=catalog,
                        progress=lambda *_: None)


class TestRunner:
    def test_registry_covers_every_table_and_figure(self):
        names = set(DEFAULT_CATALOG.names())
        for required in (
            "static_tables", "fig4_mss", "fig5_buffer", "table7_stacks",
            "fig6a_one_hop", "fig6bcd_three_hops", "fig7a_cwnd",
            "eq2_validation", "sec72_hops", "fig8_batching", "fig9_loss",
            "fig10_daylong_tcp", "table8", "table9_fairness",
            "appendixC_fig12", "appendixC_adaptive",
        ):
            assert required in names, required

    def test_run_all_subset_and_error_isolation(self):
        report = run_quiet(["static_tables"])
        [cell] = report.cells
        assert cell.experiment == "static_tables"
        assert cell.results[0]["memory_model"]["active_socket_bytes"] > 0

    def test_broken_experiment_reported_not_raised(self):
        catalog = DEFAULT_CATALOG.copy()
        catalog.register("boom", _boom)
        report = run_quiet(["boom", "static_tables"], catalog=catalog)
        boom, tables = report.cells
        assert boom.results == [None]
        assert boom.errors == ["seed=None: RuntimeError: injected"]
        assert list(report.execution["errors"].values()) == [
            "RuntimeError: injected"]
        assert "memory_model" in tables.results[0]
