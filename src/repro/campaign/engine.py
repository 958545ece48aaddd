"""Campaign execution engine: :func:`run_campaign` and what runs it.

:func:`run_campaign` expands a :class:`~repro.campaign.spec.CampaignSpec`,
answers every run it can from a content-addressed
:class:`~repro.campaign.store.ResultStore`, executes the misses, and
aggregates repetition statistics into a
:class:`~repro.campaign.report.CampaignReport`.

The misses go through :func:`_execute_jobs`: in-process until the
measured runs say a fork pool pays (up to ``runner.jobs`` workers,
every usable core by default), or, with ``runner.timeout_s``, each in
a watched process (watchdog deadline + crash ``retries``).  Every
landed run adds its wall time to its experiment's entry in the catalog
(:meth:`ExperimentCatalog.note_wall`), so a campaign of an experiment
this process has already timed past its first run may fan out from its
own first run; an experiment the catalog has not timed counts at the
mean of the campaign's runs so far.  Every run can carry per-run
metrics capture (``runner.metrics``), fault injection (``faults``) and
live invariant verification (``runner.verify``); a run with a
violation fails.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.catalog import ExperimentCatalog
from repro.campaign.report import CampaignReport, CellResult
from repro.campaign.spec import CampaignSpec, RunSpec
from repro.campaign.stats import aggregate_cell
from repro.campaign.store import ResultStore, code_salt

#: what starting and stopping a fork pool costs: 11-25 ms for two
#: workers on a 2-core x86-64 host under Python 3.11 (``Pool(2)``, two
#: trivial tasks, close and join); also the least judged wall time a
#: mean wall is trusted on (:func:`_mean_wall`)
POOL_COST_S = 0.025
#: estimated serial seconds of the runs still to go (each at a mean
#: wall, :func:`_pool_pays`) above which they fan out:
#: two workers save half of it, so at this size a pool saves twice
#: its own cost
POOL_BREAK_EVEN_S = 4 * POOL_COST_S

#: one unit of work: (run id, progress label, the factory call with
#: its arguments bound, experiment name); picklable while the factory
#: is module-level
Job = Tuple[str, str, Callable[[], object], str]

#: record tuple: (run id, result, wall_s, ok, metrics_snapshots,
#: fault_injections, violations)
Record = Tuple[str, object, float, bool, object, object, object]

#: the stored-record fields that carry a run's extras
EXTRAS = ("metrics_snapshots", "fault_injections", "violations")


def _run_job(job: Job, metrics: bool, faults: Optional[Dict],
             verify: bool) -> Record:
    """Run one job; never raises (broken runs become error records).

    Module-level so pools can dispatch it.  ``metrics``, ``faults``
    and ``verify`` arm the process-wide collectors around the call; a
    run whose networks violated an invariant fails, and its error
    names the count and the first violation.
    """
    from repro import faults as faults_mod
    from repro import verify as verify_mod
    from repro.sim import metrics as metrics_mod

    key, _label, call, _experiment = job
    start = time.perf_counter()
    if metrics:
        metrics_mod.auto_attach(True)
    if faults is not None:
        faults_mod.auto_inject(faults)
    if verify:
        verify_mod.auto_verify(0.5)
    try:
        result = call()
        ok = True
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # a broken run must not eat the rest
        result = {"error": f"{type(exc).__name__}: {exc}"}
        ok = False
    snaps = None
    if metrics:
        snaps = [
            registry.snapshot()
            for registry, _bus in metrics_mod.drain_attached()
        ]
        metrics_mod.auto_attach(False)
    fault_summaries = None
    if faults is not None:
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
        if violations and ok:
            first = violations[0]
            result = {"error": f"{len(violations)} invariant "
                               f"violation(s), first {first['probe']}: "
                               f"{first['detail']}"}
            ok = False
    return (key, result, time.perf_counter() - start, ok, snaps,
            fault_summaries, violations)


def _supervised_entry(run: Callable[[Job], Record], job: Job,
                      queue) -> None:
    """Worker-process entry point for supervised runs."""
    queue.put(run(job))


def _run_supervised(
    jobs: List[Job], cap: int, runner: Dict, run, progress, on_record,
) -> bool:
    """Run each job in a watched process, ``cap`` at a time; returns
    whether Ctrl-C cut it short.

    A worker that exceeds the wall-clock ``runner.timeout_s`` is
    terminated and recorded as a failure (timeouts are not retried — a
    hung run would hang again); a worker that *crashes* (dies without
    posting a result) is retried up to ``runner.retries`` times with
    exponential backoff from ``runner.retry_backoff_s``.  Ctrl-C
    terminates the in-flight workers.
    """
    import multiprocessing  # only the supervised and pool paths fork

    ctx = multiprocessing.get_context("fork")
    timeout = runner["timeout_s"]
    by_key = {job[0]: job for job in jobs}
    pending: List[Tuple[str, int, float]] = [
        (job[0], 0, 0.0) for job in reversed(jobs)
    ]  # (key, attempt, not_before_monotonic); stack, submission order
    active: Dict[str, Tuple] = {}  # key -> (proc, queue, deadline, attempt)

    def _finish(record: Record) -> None:
        on_record(record)
        progress(f"[{by_key[record[0]][1]}] done in {record[2]:.1f}s")

    def _fail(key: str, error: str) -> None:
        on_record((key, {"error": error}, timeout, False, None, None, None))
        progress(f"[{by_key[key][1]}] FAILED ({error})")

    try:
        while pending or active:
            now = time.monotonic()
            launchable = [
                i for i, (_, _, nb) in enumerate(pending) if nb <= now
            ]
            while launchable and len(active) < cap:
                key, attempt, _ = pending.pop(launchable.pop())
                q = ctx.Queue()
                proc = ctx.Process(target=_supervised_entry,
                                   args=(run, by_key[key], q))
                proc.start()
                active[key] = (proc, q, time.monotonic() + timeout,
                               attempt)
                label = f" (retry {attempt})" if attempt else ""
                progress(f"[{by_key[key][1]}] running{label} ...")
            for key in list(active):
                proc, q, deadline, attempt = active[key]
                if not q.empty():
                    # feeder threads can lag proc exit; drain first
                    _finish(q.get())
                    proc.join()
                    del active[key]
                elif not proc.is_alive():
                    # died without posting: one last racy-queue check
                    try:
                        _finish(q.get(timeout=0.5))
                        del active[key]
                        continue
                    except Exception:
                        pass
                    del active[key]
                    if attempt < runner["retries"]:
                        backoff = runner["retry_backoff_s"] * (2 ** attempt)
                        progress(f"[{by_key[key][1]}] worker crashed "
                                 f"(exit {proc.exitcode}); retrying in "
                                 f"{backoff:.1f}s")
                        pending.append(
                            (key, attempt + 1,
                             time.monotonic() + backoff))
                    else:
                        _fail(key, f"worker crashed with exit code "
                                   f"{proc.exitcode} after "
                                   f"{attempt + 1} attempt(s)")
                elif time.monotonic() > deadline:
                    proc.terminate()
                    proc.join()
                    del active[key]
                    _fail(key, f"watchdog timeout after {timeout:.1f}s")
            if pending or active:
                time.sleep(0.05)
    except KeyboardInterrupt:
        for key, (proc, _q, _deadline, _attempt) in active.items():
            proc.terminate()
            proc.join()
            progress(f"[{by_key[key][1]}] interrupted")
        return True
    return False


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


def _judged(walls: Optional[Tuple[float, float, int]],
            own_first: bool) -> Optional[Tuple[float, int]]:
    """``(seconds, runs)`` that ``walls``, an
    :meth:`ExperimentCatalog.walls` triple, are judged by, or None.

    A first run carries one-off start-up (imports, first-call caches):
    it is left out once a second has landed, and judged alone only by
    the campaign that ran it (``own_first``).  A later campaign does
    not inherit it, since its own first run would not pay that
    start-up again.
    """
    if walls is None:
        return None
    first_s, spent, runs = walls
    if runs:
        return spent, runs
    return (first_s, 1) if own_first else None


def _mean_wall(judged: Optional[Tuple[float, int]]) -> Optional[float]:
    """The mean of ``judged`` runs, or None unless they cost at least a
    pool's own start: fewer are too little evidence, since one GC pause
    moves the mean of a handful of microsecond runs past any
    break-even."""
    if judged is None or judged[0] < POOL_COST_S:
        return None
    return judged[0] / judged[1]


def _pool_pays(catalog: ExperimentCatalog, left: Dict[str, int],
               ran: set, campaign_mean: Optional[float]) -> bool:
    """Whether the runs still to go, ``left[name]`` of each experiment,
    are worth a fork pool.

    Each run left counts at a mean wall: its experiment's own where
    ``catalog`` holds judged runs of it (:func:`_judged`; ``ran`` holds
    the experiments this campaign has run here), else
    ``campaign_mean``, the mean of this campaign's runs so far.  A mean
    counts only on enough evidence (:func:`_mean_wall`), and
    ``campaign_mean`` is None without it.  On a fresh catalog, a
    campaign of one experiment, or of distinct ones, thus decides on
    its own runs alone.  O(experiments left), never O(runs left).
    """
    estimate = 0.0
    for name, runs_left in left.items():
        judged = _judged(catalog.walls(name), name in ran)
        mean = campaign_mean if judged is None else _mean_wall(judged)
        if mean is not None:
            estimate += mean * runs_left
    return estimate > POOL_BREAK_EVEN_S


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


def _execute_jobs(
    jobs: List[Job],
    runner: Dict,
    faults: Optional[Dict],
    progress,
    on_record: Callable[[Record], None],
    catalog: ExperimentCatalog,
) -> Tuple[bool, int, int]:
    """Run ``jobs`` under a spec's validated ``runner`` block and
    ``faults``; returns ``(interrupted, workers, in_process)``, where
    ``workers`` is how many processes ran the jobs at once (1
    in-process) and ``in_process`` how many landed in this process.

    ``runner.timeout_s`` set → each job in a watched process, up to
    :func:`_worker_cap` at a time.  Otherwise the jobs run in-process,
    in order, until the measured walls (``catalog``'s per experiment,
    else this campaign's) say the rest pay for a fork pool
    (:func:`_pool_pays`), which may be before the first;
    the rest then fan out over ``min(cap, left)`` workers.  Every
    record, in-process or pooled, adds its wall to ``catalog``, and
    ``on_record`` fires in the parent as each lands, in completion
    order.
    """
    cap = _worker_cap(runner["jobs"])
    run = functools.partial(_run_job, metrics=runner["metrics"],
                            faults=faults, verify=runner["verify"])
    if runner["timeout_s"] is not None:
        interrupted = _run_supervised(jobs, cap, runner, run, progress,
                                      on_record)
        return interrupted, min(cap, len(jobs)), 0
    by_key = {job[0]: job for job in jobs}

    def land(record: Record) -> None:
        _key, label, _call, experiment = by_key[record[0]]
        catalog.note_wall(experiment, record[2])
        on_record(record)
        progress(f"[{label}] done in {record[2]:.1f}s")

    left: Dict[str, int] = {}  # runs not yet started, per experiment
    for job in jobs:
        left[job[3]] = left.get(job[3], 0) + 1
    ran = set()  # experiments that have landed a run here
    own = [0.0, 0.0, 0]  # this campaign's walls, shaped as the catalog's
    for index, job in enumerate(jobs):
        runs_left = len(jobs) - index
        if cap > 1 and runs_left > 1 and _pool_pays(
                catalog, left, ran,
                _mean_wall(_judged(own, True) if index else None)):
            workers = min(cap, runs_left)
            pool = _open_pool(workers)
            if pool is not None:
                progress(f"[{runs_left} runs left] fanning out over "
                         f"{workers} worker processes")
                interrupted = _fan_out(pool, run, jobs[index:], land)
                return interrupted, workers, index
            cap = 1  # no pool on this host: the rest run here
        experiment = job[3]
        left[experiment] -= 1
        if not left[experiment]:
            del left[experiment]
        progress(f"[{job[1]}] running ...")
        try:
            record = run(job)
        except KeyboardInterrupt:
            progress(f"[{job[1]}] interrupted")
            return True, 1, index
        if index:
            own[1] += record[2]
            own[2] += 1
        else:
            own[0] = record[2]
        ran.add(experiment)
        land(record)
    return False, 1, len(jobs)


def _fan_out(pool, run, jobs: List[Job], land) -> bool:
    """Run ``jobs`` on ``pool``, landing each record as it completes;
    returns whether Ctrl-C cut it short.  Leaving the ``with`` block
    terminates the pool's workers either way."""
    with pool:
        try:
            for record in pool.imap_unordered(run, jobs):
                land(record)
        except KeyboardInterrupt:
            return True
    return False


# ----------------------------------------------------------------------
# campaign driver
# ----------------------------------------------------------------------


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


def _extras_asked(spec: CampaignSpec) -> Tuple[str, ...]:
    """The :data:`EXTRAS` that ``spec`` asks of every run."""
    asked = (spec.runner["metrics"], spec.faults is not None,
             spec.runner["verify"])
    return tuple(name for name, on in zip(EXTRAS, asked) if on)


def _lacks(record: Dict, asked: Tuple[str, ...]) -> bool:
    """Whether a stored ``record`` misses an extra the spec asks for.

    The runner block is not part of a run's identity, so a record
    stored without, say, verification is a miss for a campaign that
    verifies.
    """
    return any(record.get(name) is None for name in asked)


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
    asked = _extras_asked(spec)
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
            "cached": record is not None and not _lacks(record, asked),
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
        "cells": len({run.cell_id() for run in runs}),
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
    cpu0 = _cpu_s()
    run_ids = [run.run_id(salt) for run in runs]
    asked = _extras_asked(spec)
    (records, hits, misses, errors, interrupted, workers,
     in_process) = _resolve_runs(spec, runs, run_ids, asked, catalog,
                                 store, progress)

    report = _build_report(spec, runs, run_ids, records, salt)
    if asked:
        report.run_extras = {run_id: record["extras"]
                             for run_id, record in records.items()}
    report.execution = {
        "runs": len(runs),
        "cache_hits": hits,
        "cache_misses": misses,
        "executed": misses,
        "completed": sum(1 for run_id in run_ids if run_id in records),
        "errors": errors,
        "interrupted": interrupted,
        "wall_s": round(time.perf_counter() - t0, 3),
        "cpu_s": round(_cpu_s() - cpu0, 3),
        "store": str(store.root) if store is not None else None,
        "jobs": spec.runner["jobs"],
        "workers": workers,
        "in_process": in_process,
    }
    return report


def _cpu_s() -> float:
    """User + system CPU seconds of this process and of every child it
    has reaped so far (pool and supervised workers once joined)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _resolve_runs(
    spec: CampaignSpec,
    runs: List[RunSpec],
    run_ids: List[str],
    asked: Tuple[str, ...],
    catalog: ExperimentCatalog,
    store: Optional[ResultStore],
    progress,
) -> Tuple[Dict[str, Dict], int, int, Dict[str, str], bool, int, int]:
    """Look each run up, execute the misses, save what succeeded.

    ``run_ids[i]`` is ``runs[i].run_id`` under the store's salt,
    hashed once by the caller; ``asked`` is :func:`_extras_asked` of
    ``spec``.  Returns ``(records, hits, misses, errors, interrupted,
    workers, in_process)``:
    ``records`` maps run id to ``{"ok", "result"}`` for every run that
    was cached or has finished — all a report reads, so a hit drops
    the rest of its stored record — plus ``"extras"``, the ``asked``
    fields, when ``asked`` is not empty.  ``misses`` counts the runs
    handed to :func:`_execute_jobs`, ``errors`` maps the failed ones
    to their message, ``workers`` and ``in_process`` are
    :func:`_execute_jobs`' own (both 0 with no misses).
    """
    records: Dict[str, Dict] = {}
    missing: Dict[str, RunSpec] = {}
    for run_id, run in zip(run_ids, runs):
        cached = store.load(run_id) if store is not None else None
        if cached is not None and not (asked and _lacks(cached, asked)):
            records[run_id] = {"ok": True, "result": cached["result"]}
            if asked:
                records[run_id]["extras"] = {name: cached[name]
                                             for name in asked}
        else:
            missing[run_id] = run
    hits = len(records)
    errors: Dict[str, str] = {}
    if not missing:
        return records, hits, 0, errors, False, 0, 0
    jobs: List[Job] = []
    for run_id, run in missing.items():
        jobs.append((run_id, _run_label(run), functools.partial(
            catalog.get(run.experiment), run.quick,
            **run.call_params(catalog.accepted_params(run.experiment))),
            run.experiment))

    def _on_record(record: Record) -> None:
        run_id, result, wall, ok = record[:4]
        records[run_id] = {"ok": ok, "result": result}
        if asked:
            records[run_id]["extras"] = {
                name: value for name, value in zip(EXTRAS, record[4:])
                if name in asked}
        if not ok:
            errors[run_id] = _error_text(result)
        elif store is not None:
            # failures are never cached: they must re-execute next time;
            # an extra nobody asked for is None and stays out of the hit
            hit = {"ok": ok, "result": result, "wall_s": round(wall, 3)}
            for name, value in zip(EXTRAS, record[4:]):
                if value is not None:
                    hit[name] = value
            store.save(run_id, hit, missing[run_id])

    progress(f"[{spec.name or 'campaign'}] {len(runs)} runs: {hits} "
             f"cached, {len(jobs)} to execute")
    interrupted, workers, in_process = _execute_jobs(
        jobs, spec.runner, spec.faults, progress, _on_record, catalog)
    return (records, hits, len(jobs), errors, interrupted, workers,
            in_process)


def _error_text(result: Dict) -> str:
    return result.get("error", "failed")


def _build_report(spec: CampaignSpec, runs: List[RunSpec],
                  run_ids: List[str], records: Dict[str, Dict],
                  salt: str) -> CampaignReport:
    """Group runs into cells, by the cell id each run carries, and
    aggregate repetition statistics."""
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
    for cell in by_cell.values():
        cell.metrics = aggregate_cell(
            [r for r in cell.results if r is not None], **spec.stats)
    return CampaignReport(
        name=spec.name,
        spec_digest=spec.digest(),
        salt=salt,
        cells=list(by_cell.values()),
    )
