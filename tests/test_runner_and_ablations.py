"""Batch runner plumbing and ablation-harness smoke tests."""

import json

import pytest

from repro.experiments.exp_ablations import ABLATIONS, _run_ablation
from repro.experiments.runner import DEFAULT_CATALOG, main, run_all_detailed


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


@pytest.fixture
def boom():
    """A ``boom`` experiment that raises, registered on the catalog."""
    DEFAULT_CATALOG.register("boom", _boom)
    yield
    DEFAULT_CATALOG.unregister("boom")


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
        results, _ = run_all_detailed(quick=True, only=["static_tables"],
                                      progress=lambda *_: None)
        assert set(results) == {"static_tables"}
        assert results["static_tables"]["memory_model"][
            "active_socket_bytes"] > 0

    def test_broken_experiment_reported_not_raised(self, boom):
        results, _ = run_all_detailed(quick=True,
                                      only=["boom", "static_tables"],
                                      progress=lambda *_: None)
        assert results["boom"] == {"error": "RuntimeError: injected"}
        assert "memory_model" in results["static_tables"]

    def test_cli_writes_json(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["--quick", "-o", str(out), "--only", "static_tables"])
        assert code == 0
        data = json.loads(out.read_text())
        assert "static_tables" in data
        meta = data["_meta"]
        assert meta["errors"] == []
        assert set(meta["wall_times_s"]) == {"static_tables"}

    def test_parallel_jobs_match_serial_run(self, tmp_path):
        """--jobs N must produce the same document as --jobs 1 apart
        from the recorded wall times (experiments are independent and
        internally seeded)."""
        subset = ["static_tables", "eq2_validation", "sec72_hops"]
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(["--quick", "-o", str(serial), "--only", *subset,
                     "--jobs", "1"]) == 0
        assert main(["--quick", "-o", str(parallel), "--only", *subset,
                     "--jobs", "4"]) == 0
        a = json.loads(serial.read_text())
        b = json.loads(parallel.read_text())
        meta_a, meta_b = a.pop("_meta"), b.pop("_meta")
        assert a == b
        assert list(a) == subset  # registry order, not completion order
        assert (meta_a["jobs"], meta_b["jobs"]) == (1, 4)

    def test_worker_failure_propagates_to_exit_code(self, tmp_path, boom):
        out = tmp_path / "r.json"
        code = main(["--quick", "-o", str(out),
                     "--only", "boom", "static_tables"])
        assert code == 1
        data = json.loads(out.read_text())
        assert data["boom"] == {"error": "RuntimeError: injected"}
        assert data["_meta"]["errors"] == ["boom"]
