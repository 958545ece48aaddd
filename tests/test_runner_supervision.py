"""Fanned-out and watched campaign runs: dead workers, watchdog, crash
retry, interrupt, verify.

The acceptance contract: a run that kills its worker fails alone,
watched or not, and the campaign returns; a hung run becomes a
*recorded failure* at the ``runner.timeout_s`` deadline without
disturbing the rest of the campaign; a crashed worker is retried with
backoff and then recorded; an interrupt still yields a valid partial
report with ``execution.interrupted``; and ``runner.verify``
violations survive the worker process boundary.

The hostile experiments are module-level functions added to a new
catalog built from the default's entries (the workers fork, but
keeping them importable matches the catalog contract).
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import ExperimentCatalog, engine, run_campaign
from repro.experiments.runner import default_catalog
from repro.experiments.topology import build_pair


def _hang(quick):
    time.sleep(60)
    return {}


def _crash(quick):
    os._exit(17)


def _exit_3(quick):
    os._exit(3)


def _ok(quick):
    return {"ok": True, "quick": quick}


def _slow_ok(quick):
    time.sleep(0.3)
    return {"ok": True, "quick": quick}


def _interrupt(quick):
    raise KeyboardInterrupt


def _kernel_corruptor(quick):
    """Trip probe_kernel under runner.verify: fake a clock rollback."""
    net = build_pair(seed=2)
    if net.verify is not None:
        net.verify._last_now = 1e9
    net.sim.run(until=1.0)
    return {"done": True}


@pytest.fixture
def catalog():
    return default_catalog()


def with_entries(catalog, **factories):
    """A new catalog: ``catalog``'s entries plus ``factories``."""
    return ExperimentCatalog({**{n: catalog.get(n) for n in catalog.names()},
                              **factories})


def campaign(catalog, experiments, quick=True, **runner):
    return run_campaign({"experiments": experiments, "quick": quick,
                         "runner": runner},
                        catalog=catalog, progress=lambda *_: None)


def results(report):
    """experiment -> its one run's result (None when it failed)."""
    return {cell.experiment: cell.results[0] for cell in report.cells
            if cell.results}


def failures(report):
    """experiment -> its one run's error line."""
    return {cell.experiment: cell.errors[0] for cell in report.cells
            if cell.errors}


# ======================================================================
# Watchdog
# ======================================================================
def test_watchdog_converts_hang_into_recorded_failure(catalog):
    catalog = with_entries(catalog, zz_ok=_ok, zz_hang=_hang)
    report = campaign(catalog, ["static_tables", "zz_ok", "zz_hang"],
                      timeout_s=2.0, jobs=3)
    # the hang is a recorded failure ...
    assert list(failures(report)) == ["zz_hang"]
    assert "watchdog timeout after 2.0s" in failures(report)["zz_hang"]
    # ... and the rest of the campaign is untouched
    assert results(report)["zz_ok"] == {"ok": True, "quick": True}
    assert "table5" in results(report)["static_tables"]
    assert report.execution["interrupted"] is False
    assert report.execution["completed"] == 3


# ======================================================================
# Crash retry with backoff
# ======================================================================
def test_crashed_worker_is_retried_then_recorded(catalog):
    catalog = with_entries(catalog, zz_crash=_crash)
    t0 = time.monotonic()
    report = campaign(catalog, ["zz_crash"], timeout_s=30.0, retries=2,
                      retry_backoff_s=0.1)
    assert ("worker crashed with exit code 17 after 3 attempt(s)"
            in failures(report)["zz_crash"])
    # exponential backoff actually waited: 0.1s + 0.2s between attempts
    assert time.monotonic() - t0 > 0.3


def test_fanned_out_run_that_kills_its_worker_fails(catalog):
    """No watchdog: the dead worker's run fails, the others land, and
    the campaign returns instead of waiting on the lost run."""
    names = ["zz_a", "zz_b", "zz_exit", "zz_d", "zz_e"]
    catalog = with_entries(catalog, zz_a=_ok, zz_b=_ok, zz_exit=_exit_3,
                           zz_d=_ok, zz_e=_ok)
    t0 = time.monotonic()
    report = campaign(catalog, names, jobs=2)
    assert time.monotonic() - t0 < 20.0
    assert report.execution["workers"] == 2
    assert list(failures(report)) == ["zz_exit"]
    assert ("worker crashed with exit code 3 after 1 attempt(s)"
            in failures(report)["zz_exit"])
    assert results(report) == {name: None if name == "zz_exit" else
                               {"ok": True, "quick": True} for name in names}
    assert report.execution["interrupted"] is False
    assert multiprocessing.active_children() == []


#: a fresh process's first campaign: two misses at ``jobs: 2``, the
#: first of which kills the process that runs it
_FIRST_RUN_KILLS_ITS_PROCESS = """
import json, multiprocessing, os
from repro.campaign import ExperimentCatalog, run_campaign

def exit_3(quick):
    os._exit(3)

def ok(quick):
    return {"ok": True}

report = run_campaign({"experiments": ["exit_3", "ok"],
                       "runner": {"jobs": 2}},
                      catalog=ExperimentCatalog({"exit_3": exit_3, "ok": ok}),
                      progress=lambda *_: None)
print(json.dumps({
    "errors": list(report.execution["errors"].values()),
    "results": {cell.experiment: cell.results for cell in report.cells},
    "children": len(multiprocessing.active_children())}))
"""


def test_first_run_that_kills_its_process_fails_alone():
    """Nothing has run before in the process: the campaign's first run
    still goes to a worker, so its ``os._exit(3)`` fails that run and
    not the campaign."""
    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.run([sys.executable, "-c",
                            _FIRST_RUN_KILLS_ITS_PROCESS],
                           env={**os.environ, "PYTHONPATH": str(src)},
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    out = json.loads(child.stdout)
    [error] = out["errors"]
    assert "worker crashed with exit code 3" in error
    assert out["results"] == {"exit_3": [None], "ok": [{"ok": True}]}
    assert out["children"] == 0


def test_idle_worker_that_dies_is_replaced(catalog):
    """The crash's retry waits out its backoff while the other worker
    idles; that idle worker is killed, and a fresh one takes the
    retry."""
    catalog = with_entries(catalog, zz_crash=_crash, zz_ok=_slow_ok)
    lines = []

    def progress(line):
        lines.append(line)
        if line.startswith("[zz_ok] done"):
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)

    report = run_campaign({"experiments": ["zz_crash", "zz_ok"],
                           "runner": {"jobs": 2, "timeout_s": 30.0,
                                      "retries": 1,
                                      "retry_backoff_s": 1.0}},
                          catalog=catalog, progress=progress)
    assert lines[4] == ("[zz_crash] worker crashed (exit 17); "
                        "retrying in 1.0s")
    assert lines[5].startswith("[zz_ok] done")  # its worker is killed
    assert lines[6:] == [
        "[zz_crash] running ...",  # on a fresh worker
        "[zz_crash] FAILED (worker crashed with exit code 17 after 2 "
        "attempt(s))"]
    assert results(report)["zz_ok"] == {"ok": True, "quick": True}
    assert ("worker crashed with exit code 17 after 2 attempt(s)"
            in failures(report)["zz_crash"])
    assert multiprocessing.active_children() == []


def test_watched_runs_need_a_worker(catalog, monkeypatch):
    """Where no worker starts, unwatched runs go in-process
    (``test_campaign.py``); watched ones cannot, and the error stands."""
    def no_processes(*args, **kwargs):
        raise OSError("fork: Resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Process",
                        no_processes)
    catalog = with_entries(catalog, zz_ok=_ok)
    with pytest.raises(OSError, match="Resource temporarily"):
        campaign(catalog, ["zz_ok"], timeout_s=30.0)


#: a campaign process that SIGKILLs itself once its first run lands,
#: after printing its two workers' pids: one idles, one naps 0.5 s
_SELF_KILLING_CAMPAIGN = """
import multiprocessing, os, signal, time
from repro.campaign import ExperimentCatalog, run_campaign

def ok(quick):
    return {}

def nap(quick):
    time.sleep(0.5)
    return {}

def progress(line):
    if line.startswith("[ok] done"):
        print(*[child.pid for child in multiprocessing.active_children()],
              flush=True)
        os.kill(os.getpid(), signal.SIGKILL)

run_campaign({"experiments": ["ok", "nap"], "runner": {"jobs": 2}},
             catalog=ExperimentCatalog({"ok": ok, "nap": nap}),
             progress=progress)
"""


def _gone(pid):
    """Whether ``pid`` has exited (a zombie counts: nothing runs)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_of_a_killed_campaign_exit():
    """Killed with SIGKILL, the campaign leaves its workers no writer on
    their job pipes: the idle one exits at once, the busy one once its
    run ends, instead of both waiting forever."""
    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.Popen([sys.executable, "-c", _SELF_KILLING_CAMPAIGN],
                             env={**os.environ, "PYTHONPATH": str(src)},
                             stdout=subprocess.PIPE, text=True)
    with child.stdout:  # a worker left behind would hold it open
        pids = [int(pid) for pid in child.stdout.readline().split()]
    assert child.wait(timeout=60) == -signal.SIGKILL
    assert len(pids) == 2
    deadline = time.monotonic() + 20
    while not all(_gone(pid) for pid in pids):
        if time.monotonic() > deadline:
            for pid in pids:  # leave nothing behind, then fail
                if not _gone(pid):
                    os.kill(pid, signal.SIGKILL)
            pytest.fail(f"workers {pids} outlived their campaign")
        time.sleep(0.05)


def test_successful_supervised_run_passes_result_through(catalog):
    catalog = with_entries(catalog, zz_ok=_ok)
    report = campaign(catalog, ["zz_ok"], quick=False, timeout_s=30.0)
    assert results(report)["zz_ok"] == {"ok": True, "quick": False}
    assert report.execution["errors"] == {}
    assert report.execution["interrupted"] is False


# ======================================================================
# Interrupt: valid partial report
# ======================================================================
def test_serial_interrupt_yields_partial_document(catalog):
    catalog = with_entries(catalog, zz_boom=_interrupt, zz_after=_ok)
    report = campaign(catalog, ["static_tables", "zz_boom", "zz_after"], jobs=1)
    assert report.execution["interrupted"] is True
    # everything that finished before the interrupt is present ...
    assert "table5" in results(report)["static_tables"]
    # ... the interrupted run and everything after are absent
    assert [cell.run_ids for cell in report.cells][1:] == [[], []]
    assert report.execution["completed"] == 1


def test_supervised_interrupt_terminates_the_workers(catalog):
    catalog = with_entries(catalog, zz_hang=_hang, zz_hang_too=_hang)
    started = []

    def progress(line):
        if line.endswith("running ..."):
            started.append(line)
            if len(started) == 2:  # Ctrl-C once both workers run
                raise KeyboardInterrupt

    t0 = time.monotonic()
    report = run_campaign({"experiments": ["zz_hang", "zz_hang_too"],
                           "runner": {"timeout_s": 30.0, "jobs": 2}},
                          catalog=catalog, progress=progress)
    assert report.execution["interrupted"] is True
    assert report.execution["completed"] == 0
    # both hung workers were terminated and reaped, not waited out
    assert multiprocessing.active_children() == []
    assert time.monotonic() - t0 < 20.0


def test_pooled_interrupt_terminates_the_pool(catalog):
    catalog = with_entries(catalog, zz_ok=_ok, zz_hang=_hang)
    lines = []

    def progress(line):
        lines.append(line)
        if line.startswith("[zz_ok] done"):  # Ctrl-C once it lands
            raise KeyboardInterrupt

    t0 = time.monotonic()
    report = run_campaign({"experiments": ["zz_ok", "zz_hang"],
                           "runner": {"jobs": 2}},
                          catalog=catalog, progress=progress)
    assert any("fanning out over 2 worker processes" in ln for ln in lines)
    assert report.execution["interrupted"] is True
    assert results(report) == {"zz_ok": {"ok": True, "quick": True}}
    assert multiprocessing.active_children() == []
    assert time.monotonic() - t0 < 20.0


def test_worker_cap_falls_back_to_the_cpu_count(monkeypatch):
    """Where ``os.sched_getaffinity`` is missing (macOS, Windows), the
    cap is the machine's CPU count."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert engine._worker_cap(None) == 7
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert engine._worker_cap(None) == 1


def test_interrupted_flag_always_present(catalog):
    report = campaign(catalog, ["static_tables"])
    assert report.execution["interrupted"] is False
    assert report.execution["completed"] == 1


# ======================================================================
# runner.verify across the worker process boundary
# ======================================================================
def test_violations_survive_supervised_worker(catalog):
    catalog = with_entries(catalog, zz_corrupt=_kernel_corruptor)
    report = campaign(catalog, ["zz_corrupt"], timeout_s=30.0, verify=True)
    error = failures(report)["zz_corrupt"]
    assert "first probe_kernel: " in error and "backwards" in error
    [viols] = [extras["violations"] for extras in report.run_extras.values()]
    assert viols and viols[0]["probe"] == "probe_kernel"
    assert "backwards" in viols[0]["detail"]


def test_verify_clean_experiment_records_no_violations(catalog):
    catalog = with_entries(catalog, zz_ok=_ok)
    report = campaign(catalog, ["zz_ok"], verify=True)
    assert report.execution["errors"] == {}
    assert list(report.run_extras.values()) == [{"violations": []}]
