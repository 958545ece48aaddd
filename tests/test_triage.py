"""Tests for tools/triage.py: ddmin, schedule minimization, and the
reproduce → minimize → replay-from-seed pipeline.

The pipeline test uses the tool's deterministic ``--corrupt`` hook (a
schedule-independent ``snd_nxt`` smash), so ddmin must reduce the
fault list to empty and the from-seed replay of the minimized schedule
must reproduce the identical first violation.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import triage  # noqa: E402


# ======================================================================
# ddmin
# ======================================================================
class TestDdmin:
    def test_finds_minimal_pair(self):
        calls = []

        def fails(subset):
            calls.append(list(subset))
            return {3, 7} <= set(subset)

        assert triage.ddmin(list(range(10)), fails) == [3, 7]

    def test_finds_single_culprit(self):
        assert triage.ddmin(list(range(8)),
                            lambda s: 5 in s) == [5]

    def test_empty_input_and_empty_failure(self):
        assert triage.ddmin([], lambda s: True) == []
        # failure independent of the items -> minimized to nothing
        assert triage.ddmin([1, 2, 3], lambda s: True) == []

    def test_result_is_one_minimal(self):
        def fails(subset):
            return {1, 4, 6} <= set(subset)

        result = triage.ddmin(list(range(8)), fails)
        assert result == [1, 4, 6]
        for i in range(len(result)):
            assert not fails(result[:i] + result[i + 1:])


class TestMinimizeSchedule:
    def test_reduces_to_the_culpable_fault(self):
        spec = {"name": "trio", "faults": [
            {"kind": "bursty_loss", "p_good_bad": 0.1, "p_bad_good": 0.5},
            {"kind": "frame_corruption", "rate": 0.01},
            {"kind": "node_reboot", "node": 1, "at": 5.0, "outage": 1.0},
        ]}

        def fails_with(candidate):
            return any(f["kind"] == "frame_corruption"
                       for f in candidate["faults"])

        minimized = triage.minimize_schedule(spec, fails_with)
        assert [f["kind"] for f in minimized["faults"]] == \
            ["frame_corruption"]
        assert minimized["name"] == "trio-minimized"
        assert len(spec["faults"]) == 3  # input spec untouched


# ======================================================================
# Full pipeline (CLI) with the deterministic corruption hook
# ======================================================================
def test_cli_triages_seeded_corruption_end_to_end(tmp_path):
    report_path = tmp_path / "report.json"
    spec_path = tmp_path / "minimized.json"
    rc = triage.main([
        "--corrupt", "6.0", "--duration", "12",
        "-o", str(report_path), "--minimized-out", str(spec_path),
    ])
    assert rc == triage.EXIT_VIOLATION
    report = json.loads(report_path.read_text())
    assert report["clean"] is False
    first = report["violations"][0]
    assert first["time"] >= 6.0 and "snd_una" in first["detail"]
    # the corruption is schedule-independent -> minimized to no faults
    assert report["minimized_schedule"]["faults"] == []
    assert json.loads(spec_path.read_text())["faults"] == []
    # replaying the minimized schedule from the seed reproduces it
    replay = report["replay"]
    assert replay["reproduced_first"]["time"] == first["time"]
    assert replay["replay_horizon"] == first["time"] + triage.REPLAY_SLACK
    assert replay["violations_reproduced"] >= 1
    assert replay["matches_original"] is True


def test_cli_clean_run_exits_zero(tmp_path):
    report_path = tmp_path / "clean.json"
    rc = triage.main(["--duration", "6", "-o", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["clean"] is True and report["violations"] == []


@pytest.mark.parametrize("argv", [
    ["--duration", "nan"],
    ["--duration", "-5"],
    ["--hops", "0"],
    ["--corrupt", "nan"],
])
def test_cli_rejects_bad_numbers_before_running(argv, tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setattr(triage, "build_chain", None)  # must not be reached
    report_path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        triage.main(argv + ["-o", str(report_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error:" in err
    assert not report_path.exists()
