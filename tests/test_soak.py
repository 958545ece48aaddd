"""Tests for tools/soak.py: input checks, a short clean soak, and the
``--minimize`` hand-off to the triage scenario."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import soak  # noqa: E402


def _outputs(tmp_path):
    return ["-o", str(tmp_path / "soak_report.json"),
            "--violations-out", str(tmp_path / "violations.json"),
            "--minimized-out", str(tmp_path / "minimized_spec.json")]


@pytest.mark.parametrize("argv", [
    ["--duration", "nan"],
    ["--interval", "0"],
    ["--rows", "2", "--cols", "2"],
    ["--rows", "3", "--cols", "4"],
    ["--rows", "4", "--cols", "3"],
])
def test_cli_rejects_bad_numbers_before_running(argv, tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setattr(soak, "build_grid_mesh", None)  # must not be reached
    with pytest.raises(SystemExit) as exc:
        soak.main(argv + _outputs(tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error:" in err
    assert not (tmp_path / "soak_report.json").exists()


def test_smallest_grid_soaks_clean(tmp_path):
    rc = soak.main(["--rows", "4", "--cols", "4", "--duration", "1"]
                   + _outputs(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "soak_report.json").read_text())
    assert (report["rows"], report["cols"]) == (4, 4)
    assert report["events"] > 0
    assert report["verify"]["violations"] == []
    assert not (tmp_path / "violations.json").exists()


def test_minimize_writes_the_reduced_schedule(tmp_path, monkeypatch):
    fault = {"kind": "frame_corruption", "rate": 0.005}
    mesh_only = {"kind": "node_reboot", "node": 65, "at": 45.0,
                 "outage": 4.0}
    violation = {"time": 9.5, "layer": "tcp", "node": 5,
                 "probe": "probe_tcp_stack", "detail": "stub"}

    def fake_run_soak(*args, **kwargs):
        return {"schedule": {"name": "stub", "faults": [fault, mesh_only]},
                "verify": {"violations": [violation]}}

    monkeypatch.setattr(soak, "run_soak", fake_run_soak)
    rc = soak.main(["--minimize"] + _outputs(tmp_path))
    assert rc == soak.EXIT_VIOLATION
    assert json.loads((tmp_path / "violations.json").read_text()) == \
        [violation]
    # node 65 is not on the triage chain; the chain is clean without
    # the other fault, so ddmin keeps it
    minimized = json.loads((tmp_path / "minimized_spec.json").read_text())
    assert minimized == {"name": "stub-minimized", "faults": [fault]}
