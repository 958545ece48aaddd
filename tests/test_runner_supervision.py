"""Supervised-run tests for the experiment runner.

The acceptance contract: a hung experiment becomes a *recorded
failure* at the watchdog deadline without disturbing the rest of the
batch; a crashed worker is retried with backoff and then recorded; an
interrupt still yields a valid partial document with
``_meta.interrupted``; and ``--verify`` violations survive the worker
process boundary.

The hostile experiments are registered on ``runner.DEFAULT_CATALOG`` as
module-level functions (supervised workers fork, but keeping them
importable matches the documented contract).
"""

import os
import time

import pytest

from repro.experiments import runner
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
    """Trip probe_kernel under --verify: fake a clock rollback."""
    net = build_pair(seed=2)
    if net.verify is not None:
        net.verify._last_now = 1e9
    net.sim.run(until=1.0)
    return {"done": True}


@pytest.fixture
def registered():
    names = []

    def register(name, factory):
        runner.DEFAULT_CATALOG.register(name, factory)
        names.append(name)

    yield register
    for name in names:
        runner.DEFAULT_CATALOG.unregister(name)


def quiet(_msg):
    pass


# ======================================================================
# Registration mechanics
# ======================================================================
def test_register_and_unregister_experiment(registered):
    registered("zz_extra", _ok)
    catalog = runner.DEFAULT_CATALOG
    assert catalog.get("zz_extra")(True) == {"ok": True, "quick": True}
    catalog.unregister("zz_extra")
    assert "zz_extra" not in catalog.names()
    catalog.unregister("zz_extra")  # idempotent


# ======================================================================
# Watchdog
# ======================================================================
def test_watchdog_converts_hang_into_recorded_failure(registered):
    registered("zz_ok", _ok)
    registered("zz_hang", _hang)
    results, meta = runner.run_all_detailed(
        quick=True, only=["static_tables", "zz_ok", "zz_hang"],
        timeout=2.0, jobs=3, progress=quiet)
    # the hang is a recorded failure ...
    assert meta["errors"] == ["zz_hang"]
    assert "watchdog timeout after 2.0s" in results["zz_hang"]["error"]
    # ... and the rest of the batch is untouched
    assert results["zz_ok"] == {"ok": True, "quick": True}
    assert "table5" in results["static_tables"]
    assert meta["timeout_s"] == 2.0
    assert meta["interrupted"] is False
    assert set(meta["wall_times_s"]) == {"static_tables", "zz_ok",
                                         "zz_hang"}


# ======================================================================
# Crash retry with backoff
# ======================================================================
def test_crashed_worker_is_retried_then_recorded(registered):
    registered("zz_crash", _crash)
    t0 = time.monotonic()
    results, meta = runner.run_all_detailed(
        quick=True, only=["zz_crash"], timeout=30.0, retries=2,
        retry_backoff=0.1, progress=quiet)
    assert meta["errors"] == ["zz_crash"]
    assert ("worker crashed with exit code 17 after 3 attempt(s)"
            in results["zz_crash"]["error"])
    # exponential backoff actually waited: 0.1s + 0.2s between attempts
    assert time.monotonic() - t0 > 0.3


def test_successful_supervised_run_passes_result_through(registered):
    registered("zz_ok", _ok)
    results, meta = runner.run_all_detailed(
        quick=False, only=["zz_ok"], timeout=30.0, progress=quiet)
    assert results["zz_ok"] == {"ok": True, "quick": False}
    assert meta["errors"] == [] and meta["interrupted"] is False


# ======================================================================
# Interrupt: valid partial results
# ======================================================================
def test_serial_interrupt_yields_partial_document(registered):
    registered("zz_boom", _interrupt)
    registered("zz_after", _ok)
    results, meta = runner.run_all_detailed(
        quick=True, only=["static_tables", "zz_boom", "zz_after"],
        progress=quiet)
    assert meta["interrupted"] is True
    # everything that finished before the interrupt is present ...
    assert "table5" in results["static_tables"]
    # ... the interrupted experiment and everything after are not_run
    assert meta["not_run"] == ["zz_boom", "zz_after"]
    assert "zz_after" not in results


def test_interrupted_flag_always_present():
    _results, meta = runner.run_all_detailed(
        quick=True, only=["static_tables"], progress=quiet)
    assert meta["interrupted"] is False
    assert "not_run" not in meta


# ======================================================================
# --verify across the worker process boundary
# ======================================================================
def test_violations_survive_supervised_worker(registered):
    registered("zz_corrupt", _kernel_corruptor)
    results, meta = runner.run_all_detailed(
        quick=True, only=["zz_corrupt"], timeout=30.0, verify=True,
        progress=quiet)
    assert results["zz_corrupt"] == {"done": True}
    viols = meta["invariant_violations"]["zz_corrupt"]
    assert viols and viols[0]["probe"] == "probe_kernel"
    assert "backwards" in viols[0]["detail"]


def test_verify_clean_experiment_records_no_violations(registered):
    registered("zz_ok", _ok)
    _results, meta = runner.run_all_detailed(
        quick=True, only=["zz_ok"], verify=True, progress=quiet)
    assert meta["invariant_violations"] == {}
