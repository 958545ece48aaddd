"""Checks on the benchmark harness itself (not part of tier-1).

    python -m pytest bench/test_harness.py

Runs ``run.py --quick`` for two seeds (about 25 s each) and checks what
``BENCHMARK.json`` promises: every workload and metric is printed with
a unit, names and counts are within the driver's limits, two seeds
generate different inputs and both pass the correctness checks, and an
unknown workload is refused.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_quick(seed, out_dir):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--seed",
         str(seed), "--out", str(out_dir / f"quick{seed}.json")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench")
    return {seed: run_quick(seed, out_dir) for seed in (1, 2)}


def printed_metrics(lines):
    """(workload, metric) -> unit, from the human-readable lines."""
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and not line.startswith(("#", "{")):
            found[(parts[0], parts[1])] = parts[3]
    return found


def test_spec_is_within_the_drivers_limits():
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in SPEC[section]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_every_workload_and_metric_is_printed_with_its_unit(quick_runs):
    found = printed_metrics(quick_runs[1])
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            key = (workload["name"], metric["name"])
            assert found.get(key) == metric["unit"], key


def test_result_objects_have_exactly_the_contract_keys(quick_runs):
    results = [json.loads(line) for line in quick_runs[1]
               if line.startswith("{")]
    assert len(results) == 2 * len(SPEC["workloads"])
    expected = [{m["name"] for m in SPEC["end_to_end"]},
                {m["name"] for m in SPEC["per_layer"]}]
    for index, result in enumerate(results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == expected[index % 2]
        assert result["attempted"] >= 1
    for result in results[0::2]:  # end to end: never zero
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_two_seeds_differ_in_inputs_and_both_pass(quick_runs):
    digests = {}
    for seed, lines in quick_runs.items():
        results = [json.loads(line) for line in lines
                   if line.startswith("{")]
        assert all(r["correct"] and r["failed"] == 0 for r in results)
        digests[seed] = [line.split("inputs_digest=")[1]
                         for line in lines if "inputs_digest=" in line]
    assert len(digests[1]) == len(digests[2]) == 2 * len(SPEC["workloads"])
    assert all(a != b for a, b in zip(digests[1], digests[2]))


def test_layer_shares_sum_to_one(quick_runs):
    found = {}
    for line in quick_runs[1]:
        parts = line.split()
        if len(parts) >= 4 and parts[1].endswith(".self_share"):
            found.setdefault(parts[0], []).append(float(parts[2]))
    for workload in SPEC["workloads"]:
        assert abs(sum(found[workload["name"]]) - 1.0) <= 0.02, workload


def test_unknown_workload_exits_2_with_the_valid_names():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "nope"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    for workload in SPEC["workloads"]:
        assert workload["name"] in done.stderr
