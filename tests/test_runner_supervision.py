"""Supervised campaign runs: watchdog, crash retry, interrupt, verify.

The acceptance contract: a hung run becomes a *recorded failure* at
the ``runner.timeout_s`` deadline without disturbing the rest of the
campaign; a crashed worker is retried with backoff and then recorded;
an interrupt still yields a valid partial report with
``execution.interrupted``; and ``runner.verify`` violations survive
the worker process boundary.

The hostile experiments are module-level functions registered on a
copy of the default catalog (supervised workers fork, but keeping
them importable matches the catalog contract).
"""

import os
import time

import pytest

from repro.campaign import run_campaign
from repro.experiments.runner import default_catalog
from repro.experiments.topology import build_pair


def _hang(quick):
    time.sleep(60)
    return {}


def _crash(quick):
    os._exit(17)


def _ok(quick):
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
    return default_catalog().copy()


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
# Registration mechanics
# ======================================================================
def test_register_and_unregister_experiment(catalog):
    catalog.register("zz_extra", _ok)
    assert catalog.get("zz_extra")(True) == {"ok": True, "quick": True}
    assert "zz_extra" not in default_catalog()
    catalog.unregister("zz_extra")
    assert "zz_extra" not in catalog.names()
    catalog.unregister("zz_extra")  # idempotent


# ======================================================================
# Watchdog
# ======================================================================
def test_watchdog_converts_hang_into_recorded_failure(catalog):
    catalog.register("zz_ok", _ok)
    catalog.register("zz_hang", _hang)
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
    catalog.register("zz_crash", _crash)
    t0 = time.monotonic()
    report = campaign(catalog, ["zz_crash"], timeout_s=30.0, retries=2,
                      retry_backoff_s=0.1)
    assert ("worker crashed with exit code 17 after 3 attempt(s)"
            in failures(report)["zz_crash"])
    # exponential backoff actually waited: 0.1s + 0.2s between attempts
    assert time.monotonic() - t0 > 0.3


def test_successful_supervised_run_passes_result_through(catalog):
    catalog.register("zz_ok", _ok)
    report = campaign(catalog, ["zz_ok"], quick=False, timeout_s=30.0)
    assert results(report)["zz_ok"] == {"ok": True, "quick": False}
    assert report.execution["errors"] == {}
    assert report.execution["interrupted"] is False


# ======================================================================
# Interrupt: valid partial report
# ======================================================================
def test_serial_interrupt_yields_partial_document(catalog):
    catalog.register("zz_boom", _interrupt)
    catalog.register("zz_after", _ok)
    report = campaign(catalog, ["static_tables", "zz_boom", "zz_after"], jobs=1)
    assert report.execution["interrupted"] is True
    # everything that finished before the interrupt is present ...
    assert "table5" in results(report)["static_tables"]
    # ... the interrupted run and everything after are absent
    assert [cell.run_ids for cell in report.cells][1:] == [[], []]
    assert report.execution["completed"] == 1


def test_interrupted_flag_always_present(catalog):
    report = campaign(catalog, ["static_tables"])
    assert report.execution["interrupted"] is False
    assert report.execution["completed"] == 1


# ======================================================================
# runner.verify across the worker process boundary
# ======================================================================
def test_violations_survive_supervised_worker(catalog):
    catalog.register("zz_corrupt", _kernel_corruptor)
    report = campaign(catalog, ["zz_corrupt"], timeout_s=30.0, verify=True)
    error = failures(report)["zz_corrupt"]
    assert "first probe_kernel: " in error and "backwards" in error
    [viols] = [extras["violations"] for extras in report.run_extras.values()]
    assert viols and viols[0]["probe"] == "probe_kernel"
    assert "backwards" in viols[0]["detail"]


def test_verify_clean_experiment_records_no_violations(catalog):
    catalog.register("zz_ok", _ok)
    report = campaign(catalog, ["zz_ok"], verify=True)
    assert report.execution["errors"] == {}
    assert list(report.run_extras.values()) == [{"violations": []}]
