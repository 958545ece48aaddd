"""Campaign execution engine: the one backend every entry point uses.

:func:`execute_jobs` is the generalized run machinery that used to
live inside ``repro.experiments.runner`` — one loop that runs
in-process until the measured runs say a fork pool pays (up to
``jobs`` workers, every usable core by default), and a supervised mode
(watchdog ``timeout`` + crash ``retries``), with per-run metrics
capture, fault injection and live invariant verification.  ``runner.run_all_detailed`` now delegates
here with the legacy registry resolver; :func:`run_campaign` drives
the same machinery over a :class:`~repro.campaign.spec.CampaignSpec`
expansion with content-addressed caching and repetition statistics
on top.

A *resolver* maps ``(experiment, quick, params)`` to a zero-argument
callable; it must be a picklable module-level callable (or an
instance of a picklable class) because pool and supervised modes
dispatch it to worker processes.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.catalog import ExperimentCatalog
from repro.campaign.report import CampaignReport, CellResult
from repro.campaign.spec import CampaignSpec, RunSpec
from repro.campaign.stats import aggregate_cell
from repro.campaign.store import ResultStore, code_salt


@dataclass(frozen=True)
class Job:
    """One unit of work: run ``experiment`` with ``params``."""

    key: str            # stable identity in records (run_id / name)
    experiment: str
    quick: bool = True
    params: tuple = ()  # sorted ((name, value), ...), picklable
    label: str = ""     # progress-line display; defaults to the key

    @classmethod
    def build(cls, key: str, experiment: str, quick: bool,
              params: Optional[Dict] = None, label: str = "") -> "Job":
        return cls(key=key, experiment=experiment, quick=quick,
                   params=tuple(sorted((params or {}).items())),
                   label=label)


@dataclass
class ExecOptions:
    """Execution knobs, mirroring the legacy runner flags."""

    jobs: Optional[int] = None  # ceiling on workers; None = every core
    collect_metrics: bool = False
    fault_spec: Optional[Dict] = None
    verify: bool = False
    timeout: Optional[float] = None
    retries: int = 0
    retry_backoff: float = 2.0


#: what starting and stopping a fork pool costs: 11-25 ms for two
#: workers on a 2-core x86-64 host under Python 3.11 (``Pool(2)``, two
#: trivial tasks, close and join)
POOL_COST_S = 0.025
#: serial seconds of the runs still to go above which they fan out:
#: two workers save half of it, so at this size a pool saves twice
#: its own cost
POOL_BREAK_EVEN_S = 4 * POOL_COST_S


#: record tuple: (key, result, wall_s, ok, metrics_snapshots,
#: fault_summaries, violations) — the shape ``runner._run_one``
#: documented, keyed by job key instead of experiment name
Record = Tuple[str, object, float, bool, object, object, object]


def _run_job(job: Job, resolver: Callable, collect_metrics: bool = False,
            fault_spec=None, verify: bool = False) -> Record:
    """Run one job; never raises (broken runs become error records).

    Module-level so pools can dispatch it.  ``resolver(experiment,
    quick, params_dict)`` produces the runnable; metrics auto-attach,
    fault auto-injection and live verification wrap the call exactly
    as the legacy runner did, so every entry point gets identical
    semantics.
    """
    from repro import faults as faults_mod
    from repro import verify as verify_mod
    from repro.sim import metrics as metrics_mod

    start = time.perf_counter()
    if collect_metrics:
        metrics_mod.auto_attach(True)
    if fault_spec is not None:
        faults_mod.auto_inject(fault_spec)
    if verify:
        verify_mod.auto_verify(0.5)
    try:
        fn = resolver(job.experiment, job.quick, dict(job.params))
        result = fn()
        ok = True
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # a broken run must not eat the rest
        result = {"error": f"{type(exc).__name__}: {exc}"}
        ok = False
    snaps = None
    if collect_metrics:
        snaps = [
            registry.snapshot()
            for registry, _bus in metrics_mod.drain_attached()
        ]
        metrics_mod.auto_attach(False)
    fault_summaries = None
    if fault_spec is not None:
        fault_summaries = [
            inj.summary() for inj in faults_mod.drain_auto()
        ]
        faults_mod.auto_inject(None)
    violations = None
    if verify:
        violations = [
            v.as_dict()
            for engine in verify_mod.drain_auto()
            for v in engine.violations
        ]
        verify_mod.auto_verify(None)
    return (job.key, result, time.perf_counter() - start, ok, snaps,
            fault_summaries, violations)


def _supervised_entry(job: Job, resolver, collect_metrics, fault_spec,
                      verify, queue) -> None:
    """Worker-process entry point for supervised runs."""
    queue.put(_run_job(job, resolver, collect_metrics=collect_metrics,
                      fault_spec=fault_spec, verify=verify))


def _run_supervised(
    jobs: List[Job], cap: int, options: ExecOptions, resolver, progress,
    on_record,
) -> Tuple[List[Record], bool]:
    """Run each job in a watched process, ``cap`` at a time.

    Returns ``(records, interrupted)``.  A worker that exceeds the
    wall-clock ``timeout`` is terminated and recorded as a failure
    (timeouts are not retried — a hung run would hang again); a
    worker that *crashes* (dies without posting a result) is retried
    up to ``retries`` times with exponential backoff.  Ctrl-C
    terminates the in-flight workers and returns what completed.
    """
    import multiprocessing  # only the supervised and pool paths fork

    ctx = multiprocessing.get_context("fork")
    timeout = options.timeout
    by_key = {j.key: j for j in jobs}
    disp = {j.key: (j.label or j.key) for j in jobs}
    pending: List[Tuple[str, int, float]] = [
        (j.key, 0, 0.0) for j in reversed(jobs)
    ]  # (key, attempt, not_before_monotonic); stack, submission order
    active: Dict[str, Tuple] = {}  # key -> (proc, queue, deadline, attempt)
    done: List[Record] = []

    def _finish(record: Record) -> None:
        done.append(record)
        on_record(record)

    interrupted = False
    try:
        while pending or active:
            now = time.monotonic()
            launchable = [
                i for i, (_, _, nb) in enumerate(pending) if nb <= now
            ]
            while launchable and len(active) < cap:
                key, attempt, _ = pending.pop(launchable.pop())
                q = ctx.Queue()
                proc = ctx.Process(
                    target=_supervised_entry,
                    args=(by_key[key], resolver, options.collect_metrics,
                          options.fault_spec, options.verify, q),
                )
                proc.start()
                active[key] = (proc, q, time.monotonic() + timeout,
                               attempt)
                label = f" (retry {attempt})" if attempt else ""
                progress(f"[{disp[key]}] running{label} ...")
            for key in list(active):
                proc, q, deadline, attempt = active[key]
                if not q.empty():
                    # feeder threads can lag proc exit; drain first
                    _finish(q.get())
                    proc.join()
                    del active[key]
                    progress(f"[{disp[key]}] done in {done[-1][2]:.1f}s")
                elif not proc.is_alive():
                    # died without posting: one last racy-queue check
                    try:
                        _finish(q.get(timeout=0.5))
                        del active[key]
                        progress(f"[{disp[key]}] done in {done[-1][2]:.1f}s")
                        continue
                    except Exception:
                        pass
                    del active[key]
                    if attempt < options.retries:
                        backoff = options.retry_backoff * (2 ** attempt)
                        progress(f"[{disp[key]}] worker crashed "
                                 f"(exit {proc.exitcode}); retrying in "
                                 f"{backoff:.1f}s")
                        pending.append(
                            (key, attempt + 1,
                             time.monotonic() + backoff))
                    else:
                        _finish((key, {
                            "error": f"worker crashed with exit code "
                                     f"{proc.exitcode} after "
                                     f"{attempt + 1} attempt(s)"},
                            timeout, False, None, None, None))
                        progress(f"[{disp[key]}] FAILED (crash)")
                elif time.monotonic() > deadline:
                    proc.terminate()
                    proc.join()
                    del active[key]
                    _finish((key, {
                        "error": f"watchdog timeout after {timeout:.1f}s"},
                        timeout, False, None, None, None))
                    progress(f"[{disp[key]}] FAILED (watchdog timeout "
                             f"after {timeout:.1f}s)")
            if pending or active:
                time.sleep(0.05)
    except KeyboardInterrupt:
        interrupted = True
        for key, (proc, _q, _deadline, _attempt) in active.items():
            proc.terminate()
            proc.join()
            progress(f"[{disp[key]}] interrupted")
    return done, interrupted


def _worker_cap(jobs: Optional[int]) -> int:
    """How many runs may execute at once: ``jobs`` when given, else
    every usable core.

    1 inside a daemonic process (a pool worker may not have children)
    and while an in-process collector — ``metrics.auto_attach``,
    ``faults.auto_inject`` or ``verify.auto_verify`` — is armed by the
    caller: a forked worker's simulators would escape it.
    """
    from repro import faults as faults_mod
    from repro import verify as verify_mod
    from repro.sim import metrics as metrics_mod

    if (metrics_mod._auto_enabled or faults_mod._auto_spec is not None
            or verify_mod._auto_interval is not None):
        return 1
    # a process that never imported multiprocessing is no pool's child
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    if jobs is not None:
        return max(1, jobs)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_pays(spent: float, runs: int, left: int) -> bool:
    """Whether ``left`` more runs like the ``runs`` judged ones, which
    took ``spent`` seconds together, are worth a fork pool.

    The judged runs must have cost at least a pool's own start: fewer
    are too little evidence, since one GC pause moves the mean of a
    handful of microsecond runs past any break-even.
    """
    return (spent >= POOL_COST_S
            and spent / runs * left > POOL_BREAK_EVEN_S)


def _open_pool(workers: int):
    """A fork pool of ``workers``, or None where the host cannot start
    one (no working semaphores, e.g. without ``/dev/shm``).

    Fork, not spawn: a forked worker inherits the parent's imports and
    catalog, while a spawned one re-imports the experiments, which
    takes 0.4-0.5 s on the host ``POOL_COST_S`` was measured on: more
    than the break-even.
    """
    import multiprocessing  # only the pool and supervised paths fork

    try:
        return multiprocessing.get_context("fork").Pool(processes=workers)
    except (OSError, ImportError):
        return None


def execute_jobs(
    jobs: List[Job],
    options: ExecOptions,
    resolver: Callable,
    progress=print,
    on_record: Optional[Callable[[Record], None]] = None,
) -> Tuple[List[Record], bool, int]:
    """Run ``jobs`` under ``options``.

    Returns ``(records, interrupted, workers)``: ``workers`` is how
    many processes ran the jobs at once — 1 in-process (or one watched
    process at a time), 0 when there were no jobs.

    ``timeout`` set → each job in a watched process, up to
    :func:`_worker_cap` at a time.  Otherwise the jobs run in-process,
    in order, until the runs so far say the rest pay for a fork pool
    (:func:`_pool_pays`); the rest then fan out over ``min(cap, left)``
    workers.  ``on_record`` fires in the parent as each record lands
    (the campaign cache writes through it), in completion order; the
    returned list is also completion-ordered.
    """
    on_record = on_record or (lambda record: None)
    cap = _worker_cap(options.jobs)
    if options.timeout is not None:
        records, interrupted = _run_supervised(
            jobs, cap, options, resolver, progress, on_record)
        return records, interrupted, min(cap, len(jobs))
    disp = {j.key: (j.label or j.key) for j in jobs}
    run = functools.partial(
        _run_job, resolver=resolver,
        collect_metrics=options.collect_metrics,
        fault_spec=options.fault_spec, verify=options.verify)
    records: List[Record] = []

    def land(record: Record) -> None:
        records.append(record)
        on_record(record)
        progress(f"[{disp[record[0]]}] done in {record[2]:.1f}s")

    first_s = spent = 0.0  # the first run's wall; the walls after it
    for index, job in enumerate(jobs):
        left = len(jobs) - index
        if cap > 1 and left > 1 and index:
            # the first run carries one-off start-up (imports, first-call
            # caches), so it is judged alone only until a second lands
            judged = (spent, index - 1) if index > 1 else (first_s, 1)
            if _pool_pays(*judged, left):
                workers = min(cap, left)
                pool = _open_pool(workers)
                if pool is not None:
                    progress(f"[{left} runs left] fanning out over "
                             f"{workers} worker processes")
                    interrupted = _fan_out(pool, run, jobs[index:], land)
                    return records, interrupted, workers
                cap = 1  # no pool on this host: the rest run here
        progress(f"[{disp[job.key]}] running ...")
        try:
            record = run(job)
        except KeyboardInterrupt:
            progress(f"[{disp[job.key]}] interrupted")
            return records, True, 1
        if index:
            spent += record[2]
        else:
            first_s = record[2]
        land(record)
    return records, False, 1 if jobs else 0


def _fan_out(pool, run, jobs: List[Job], land) -> bool:
    """Run ``jobs`` on ``pool``, landing each record as it completes;
    returns whether Ctrl-C cut it short."""
    with pool:
        try:
            for record in pool.imap_unordered(run, jobs):
                land(record)
        except KeyboardInterrupt:
            pool.terminate()
            return True
    return False


# ----------------------------------------------------------------------
# campaign driver
# ----------------------------------------------------------------------


class CatalogResolver:
    """Resolver over an :class:`ExperimentCatalog` (picklable as long
    as the catalog's factories are module-level callables)."""

    def __init__(self, catalog: ExperimentCatalog):
        self.catalog = catalog

    def __call__(self, experiment: str, quick: bool, params: Dict):
        factory = self.catalog.get(experiment)
        return functools.partial(factory, quick, **params)


def _run_label(run: RunSpec) -> str:
    """Human progress label: ``experiment(params) seed=N``."""
    params = ", ".join(f"{k}={v}" for k, v in run.params)
    label = f"{run.experiment}({params})" if params else run.experiment
    if run.seed is not None:
        label += f" seed={run.seed}"
    return label


def _default_catalog() -> ExperimentCatalog:
    from repro.experiments.runner import default_catalog

    return default_catalog()


def load_campaign(path) -> CampaignSpec:
    """Load and validate a JSON campaign spec file."""
    return CampaignSpec.from_json(path)


def plan_campaign(
    spec: CampaignSpec,
    store: Optional[ResultStore] = None,
    catalog: Optional[ExperimentCatalog] = None,
) -> Dict:
    """Expansion plan + cost estimate, without executing anything.

    Per-run cache status against ``store`` (every run "miss" when no
    store is given); the cost estimate uses cached wall times for
    hits and the per-experiment mean of cached wall times for misses
    (``None`` when no history exists).  Backs ``tools/campaign.py
    --dry-run``.
    """
    catalog = catalog or _default_catalog()
    runs = spec.expand(catalog)
    salt = store.salt if store is not None else None
    entries = []
    known_wall: Dict[str, List[float]] = {}
    for run in runs:
        key = store.key_for(run) if store is not None else None
        record = store.load(key) if store is not None else None
        wall = record.get("wall_s") if record else None
        if wall is not None:
            known_wall.setdefault(run.experiment, []).append(wall)
        entries.append({
            "run_id": key,
            "experiment": run.experiment,
            "params": run.params_dict,
            "seed": run.seed,
            "cached": record is not None,
            "wall_s": wall,
        })
    estimated = 0.0
    unknown = 0
    for entry in entries:
        if entry["cached"]:
            continue
        history = known_wall.get(entry["experiment"])
        if history:
            entry["wall_estimate_s"] = sum(history) / len(history)
            estimated += entry["wall_estimate_s"]
        else:
            unknown += 1
    hits = sum(1 for e in entries if e["cached"])
    return {
        "campaign": spec.name,
        "salt": salt,
        "cells": spec.cells(),
        "runs": len(entries),
        "cached": hits,
        "to_execute": len(entries) - hits,
        "estimated_wall_s": round(estimated, 3),
        "runs_without_estimate": unknown,
        "plan": entries,
    }


def run_campaign(
    spec,
    store: Optional[ResultStore] = None,
    catalog: Optional[ExperimentCatalog] = None,
    progress=print,
) -> CampaignReport:
    """Execute a campaign; returns a :class:`CampaignReport`.

    ``spec`` is a :class:`CampaignSpec`, a raw spec dict, or a path
    to a JSON spec file.  With a ``store``, every previously-executed
    run is a cache hit (content-addressed on the canonical RunSpec +
    code salt) and only the delta executes; completed runs are
    persisted as they land, so an interrupted campaign resumes for
    free.  Repetition statistics run on top; see docs/campaigns.md for
    the full contract.
    """
    if isinstance(spec, (str, bytes)) or hasattr(spec, "read_text"):
        spec = CampaignSpec.from_json(spec)
    elif isinstance(spec, dict):
        spec = CampaignSpec.from_dict(spec)
    catalog = catalog or _default_catalog()
    runs = spec.expand(catalog)
    salt = store.salt if store is not None else code_salt()

    t0 = time.perf_counter()
    run_ids = [run.run_id(salt) for run in runs]
    options = ExecOptions(
        jobs=spec.runner["jobs"],
        collect_metrics=spec.runner["metrics"],
        fault_spec=spec.faults,
        verify=spec.runner["verify"],
        timeout=spec.runner["timeout_s"],
        retries=spec.runner["retries"],
        retry_backoff=spec.runner["retry_backoff_s"],
    )
    records, hits, misses, errors, interrupted, workers = _resolve_runs(
        runs, run_ids, options, catalog, store, salt, progress,
        spec.name or "campaign")

    report = _build_report(spec, runs, run_ids, records, salt)
    report.execution = {
        "runs": len(runs),
        "cache_hits": hits,
        "cache_misses": misses,
        "executed": misses,
        "completed": sum(1 for run_id in run_ids if run_id in records),
        "errors": errors,
        "interrupted": interrupted,
        "wall_s": round(time.perf_counter() - t0, 3),
        "store": str(store.root) if store is not None else None,
        "jobs": spec.runner["jobs"],
        "workers": workers,
    }
    return report


def _resolve_runs(
    runs: List[RunSpec],
    run_ids: List[str],
    options: ExecOptions,
    catalog: ExperimentCatalog,
    store: Optional[ResultStore],
    salt: str,
    progress,
    label: str,
) -> Tuple[Dict[str, Dict], int, int, Dict[str, str], bool, int]:
    """Look each run up, execute the misses, save what succeeded.

    ``run_ids[i]`` is ``runs[i].run_id(salt)``, hashed once by the
    caller.  Returns ``(records, hits, misses, errors, interrupted,
    workers)``: ``records`` maps run id to ``{"ok", "result"}`` for
    every run that was cached or has finished — all a report reads, so a hit drops the
    rest of its stored record and a miss keeps only these two of what
    it saves — ``misses`` counts the runs handed to
    :func:`execute_jobs`, ``errors`` maps the failed ones to their
    message, ``workers`` is :func:`execute_jobs`' own (0 with no
    misses).  The ``label`` announces the hit/miss split before they
    run.
    """
    records: Dict[str, Dict] = {}
    missing: Dict[str, RunSpec] = {}
    for run_id, run in zip(run_ids, runs):
        if run_id in records or run_id in missing:
            continue  # identical runs collapse to one execution
        cached = store.load(run_id) if store is not None else None
        if cached is not None:
            records[run_id] = {"ok": True, "result": cached["result"]}
        else:
            missing[run_id] = run
    hits = len(records)
    errors: Dict[str, str] = {}
    if not missing:
        return records, hits, 0, errors, False, 0
    jobs = []
    for run_id, run in missing.items():
        accepted, var_kw = catalog.accepted_params(run.experiment)
        jobs.append(Job.build(key=run_id, experiment=run.experiment,
                              quick=run.quick,
                              params=run.call_params(accepted, var_kw),
                              label=_run_label(run)))

    def _on_record(record: Record) -> None:
        run_id, result, wall, ok, snaps, fsum, viol = record
        records[run_id] = {"ok": ok, "result": result}
        if not ok:
            errors[run_id] = _error_text(result)
        elif store is not None:
            # failures are never cached: they must re-execute next time
            store.save(run_id, {
                "run": missing[run_id].to_dict(),
                "ok": ok,
                "result": result,
                "wall_s": round(wall, 3),
                "metrics_snapshots": snaps,
                "fault_injections": fsum,
                "violations": viol,
                "salt": salt,
            })

    progress(f"[{label}] {len(runs)} runs: {hits} cached, "
             f"{len(jobs)} to execute")
    _, interrupted, workers = execute_jobs(
        jobs, options, CatalogResolver(catalog), progress=progress,
        on_record=_on_record)
    return records, hits, len(jobs), errors, interrupted, workers


def _error_text(result) -> str:
    return result.get("error", "failed") if isinstance(result, dict) \
        else "failed"


def _build_report(spec: CampaignSpec, runs: List[RunSpec],
                  run_ids: List[str], records: Dict[str, Dict],
                  salt: str) -> CampaignReport:
    """Group runs into cells and aggregate repetition statistics."""
    by_cell: Dict[str, CellResult] = {}
    for run, run_id in zip(runs, run_ids):
        cid = run.cell_id()
        cell = by_cell.get(cid)
        if cell is None:
            cell = by_cell[cid] = CellResult(
                experiment=run.experiment, params=run.params_dict,
                seeds=[], run_ids=[], results=[], metrics={})
        record = records.get(run_id)
        if record is None:
            continue  # interrupted before this run executed
        cell.seeds.append(run.seed)
        cell.run_ids.append(run_id)
        if record["ok"]:
            cell.results.append(record["result"])
        else:
            cell.results.append(None)
            cell.errors.append(
                f"seed={run.seed}: {_error_text(record['result'])}")
    for cid, cell in by_cell.items():
        # only the bootstrap draws random numbers: seed them per cell
        rng_seed = int(hashlib.sha256(cid.encode()).hexdigest()[:12],
                       16) if spec.stats["method"] == "bootstrap" else 0
        cell.metrics = aggregate_cell(
            [r for r in cell.results if r is not None], rng_seed=rng_seed,
            **spec.stats)
    return CampaignReport(
        name=spec.name,
        spec_digest=spec.digest(),
        salt=salt,
        cells=list(by_cell.values()),
    )
