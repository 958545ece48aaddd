"""The experiment catalog through campaigns, and ablation-harness
smoke tests."""

import re
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.experiments.exp_ablations import ABLATIONS, _run_ablation
from repro.experiments.runner import DEFAULT_CATALOG
from tests.test_runner_supervision import with_entries

REPO = Path(__file__).resolve().parent.parent


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
        """``campaigns/paper.json`` names exactly the entries the paper
        suite reads, each a catalog row or a grid over a catalog cell,
        at their full (asserted) settings."""
        spec = CampaignSpec.from_json(REPO / "campaigns" / "paper.json")
        assert spec.quick is False
        entries = [(entry, entry) if isinstance(entry, str)
                   else (entry["name"], entry["experiment"])
                   for entry in spec.experiments]
        assert all(experiment in DEFAULT_CATALOG
                   for _name, experiment in entries)
        read = set()
        for path in (REPO / "benchmarks").glob("test_*.py"):
            read.update(re.findall(r'\bpaper\("([^"]+)"\)',
                                   path.read_text()))
        assert sorted(name for name, _experiment in entries) == sorted(read)

    def test_run_all_subset_and_error_isolation(self):
        report = run_quiet(["static_tables"])
        [cell] = report.cells
        assert cell.experiment == "static_tables"
        assert cell.results[0]["memory_model"]["active_socket_bytes"] > 0

    def test_broken_experiment_reported_not_raised(self):
        catalog = with_entries(DEFAULT_CATALOG, boom=_boom)
        report = run_quiet(["boom", "static_tables"], catalog=catalog)
        boom, tables = report.cells
        assert boom.results == [None]
        assert boom.errors == ["seed=None: RuntimeError: injected"]
        assert list(report.execution["errors"].values()) == [
            "RuntimeError: injected"]
        assert "memory_model" in tables.results[0]

    def test_fig7a_samples_the_same_instants_in_every_seed(
            self, monkeypatch):
        """Fig. 7a's 24 points are cwnd at fixed instants of the run,
        read off the step function, whatever each seed's change times."""
        from repro.experiments import runner

        def trace(seed, duration):
            # cwnd changes at seed-dependent times; quick runs last 25 s
            return {"cwnd_series": [(0.3 + 0.01 * seed, 1344),
                                    (5.0 + seed, 1792), (20.0, 896)],
                    "ssthresh_series": []}

        monkeypatch.setattr(runner, "run_fig7a_cwnd_trace", trace)
        rows = [runner._exp_fig7a_cwnd(True, seed=seed) for seed in (0, 1)]
        end = runner.WARMUP_S + 25.0
        instants = [[t for t, _cwnd in row["cwnd_series"]] for row in rows]
        assert instants[0] == instants[1]
        assert len(instants[0]) == 24 and instants[0][-1] == end
        assert [dict(row["cwnd_series"])[end * 4 / 24] for row in rows] \
            == [1792, 1344]  # 5.83 s: after seed 0's change, before seed 1's
        assert "ssthresh_series" not in rows[0]
