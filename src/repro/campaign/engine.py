"""Campaign execution engine: :func:`run_campaign` and what runs it.

:func:`run_campaign` expands a :class:`~repro.campaign.spec.CampaignSpec`,
answers every run it can from a content-addressed
:class:`~repro.campaign.store.ResultStore`, executes the misses, and
aggregates repetition statistics into a
:class:`~repro.campaign.report.CampaignReport`.

The misses go through :func:`_execute_jobs` under one rule: they run
in-process when the worker cap is 1 (:func:`_worker_cap`) or there is
one miss, and ``runner.timeout_s`` is unset; otherwise every miss fans
out from the first over pipe-fed workers (:func:`_fan_out`), where a
run that kills its worker fails alone.  Every run can carry per-run
metrics (``runner.metrics``), fault injection (``faults``) and live
invariant verification (``runner.verify``); a run with a violation
fails.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import heapq
import math
import os
import resource
import signal
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.catalog import ExperimentCatalog
from repro.campaign.report import CampaignReport, CellResult
from repro.campaign.spec import CampaignSpec, RunSpec
from repro.campaign.stats import aggregate_cell
from repro.campaign.store import ResultStore, code_salt

#: one unit of work: (run id, progress label, the factory call with
#: its arguments bound)
Job = Tuple[str, str, Callable[[], object]]

#: record tuple: (run id, result, wall_s, ok, metrics_snapshots,
#: fault_injections, violations)
Record = Tuple[str, object, float, bool, object, object, object]

#: the stored-record fields that carry a run's extras
EXTRAS = ("metrics_snapshots", "fault_injections", "violations")


def _run_job(job: Job, metrics: bool, faults: Optional[Dict],
             verify: bool) -> Record:
    """Run one job; never raises (broken runs become error records).

    ``metrics``, ``faults`` and ``verify`` arm the process-wide
    collectors around the call; a run whose networks violated an
    invariant fails, and its error names the count and the first
    violation.
    """
    from repro import faults as faults_mod
    from repro import verify as verify_mod
    from repro.sim import metrics as metrics_mod

    key, _label, call = job
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
        snaps = [registry.snapshot()
                 for registry, _bus in metrics_mod.drain_attached()]
        metrics_mod.auto_attach(False)
    fault_summaries = None
    if faults is not None:
        fault_summaries = [inj.summary() for inj in faults_mod.drain_auto()]
        faults_mod.auto_inject(None)
    violations = None
    if verify:
        violations = [v.as_dict() for engine in verify_mod.drain_auto()
                      for v in engine.violations]
        verify_mod.auto_verify(None)
        if violations and ok:
            first = violations[0]
            result = {"error": f"{len(violations)} invariant "
                               f"violation(s), first {first['probe']}: "
                               f"{first['detail']}"}
            ok = False
    return (key, result, time.perf_counter() - start, ok, snaps,
            fault_summaries, violations)


def _worker_cap(jobs: Optional[int]) -> int:
    """How many runs may execute at once: ``jobs`` when given, else
    every usable core.

    1 inside a daemonic process (a worker may not have children)
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
    # a process that never imported multiprocessing is no worker
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    if jobs is not None:
        return max(1, jobs)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _execute_jobs(
    jobs: List[Job],
    runner: Dict,
    faults: Optional[Dict],
    progress,
    on_record: Callable[[Record], None],
) -> Tuple[bool, int, int]:
    """Run ``jobs`` under a spec's validated ``runner`` block and
    ``faults``; returns ``(interrupted, workers, in_process)``, where
    ``workers`` is how many processes ran the jobs at once (1
    in-process) and ``in_process`` how many landed in this process.

    The jobs run in-process, in order, when the worker cap is 1 or
    there is one job, and ``runner.timeout_s`` is unset.  Otherwise
    every job fans out over ``min(cap, len(jobs))`` workers
    (:func:`_fan_out`), unless no worker starts on this host: then
    they run in-process after all.  ``on_record`` fires in the parent
    as each record lands, in completion order.
    """
    cap = _worker_cap(runner["jobs"])
    run = functools.partial(_run_job, metrics=runner["metrics"],
                            faults=faults, verify=runner["verify"])
    labels = {job[0]: job[1] for job in jobs}

    def land(record: Record) -> None:
        on_record(record)
        label = labels[record[0]]
        progress(f"[{label}] done in {record[2]:.1f}s" if record[3] else
                 f"[{label}] FAILED ({_error_text(record[1])})")

    if runner["timeout_s"] is not None or cap > 1 and len(jobs) > 1:
        workers = min(cap, len(jobs))
        interrupted = _fan_out(jobs, workers, run, runner, progress, land)
        if interrupted is not None:
            return interrupted, workers, 0
    for index, job in enumerate(jobs):
        progress(f"[{job[1]}] running ...")
        try:
            record = run(job)
        except KeyboardInterrupt:
            progress(f"[{job[1]}] interrupted")
            return True, 1, index
        land(record)
    return False, 1, len(jobs)


def _work(run: Callable[[Job], Record], jobs: List[Job], tasks, results,
          parent_ends) -> None:
    """A worker's loop: answers each index ``i`` read from ``tasks`` with
    the record of ``jobs[i]`` on ``results``, until it reads None or its
    parent is gone (killed, it leaves no writer on ``tasks``)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent's to handle
    for conn in parent_ends:  # the parent's pipe ends, copied by the fork
        conn.close()
    with contextlib.suppress(EOFError, BrokenPipeError):
        for index in iter(tasks.recv, None):
            results.send(run(jobs[index]))


class _Worker:
    """A forked :func:`_work` and its two one-way pipes; of the job it
    holds, ``index`` (None idle), ``attempt``, ``started``, ``deadline``."""

    def __init__(self, ctx, run, jobs: List[Job], live: List["_Worker"]):
        tasks, self.tasks = ctx.Pipe(duplex=False)
        self.results, results = ctx.Pipe(duplex=False)
        parent_ends = [c for w in live + [self] for c in (w.tasks, w.results)]
        self.proc = ctx.Process(target=_work, daemon=True, args=(
            run, jobs, tasks, results, parent_ends))
        self.proc.start()
        tasks.close()  # the worker's own ends live on in the worker alone
        results.close()
        self.index = None


def _fan_out(jobs: List[Job], workers: int, run, runner: Dict, progress,
             land) -> Optional[bool]:
    """Run ``jobs`` on up to ``workers`` worker processes, landing each
    record as it arrives; returns whether Ctrl-C cut it short, or None
    when the first worker cannot start (``OSError``; raised instead
    under ``runner.timeout_s``, as no in-process run can be watched).

    Fork, not spawn: a forked worker inherits the imports, the catalog
    and ``jobs`` (a job travels as its index); a spawned one would
    re-import the experiments (0.4-0.5 s).  The parent blocks on the
    pipes and sentinels, timing out only for a pending watchdog
    deadline or retry backoff.  A worker that dies without answering
    fails its run (re-run under ``runner.retries``); one past its
    deadline is terminated and fails its run (never retried: a hung run
    would hang again).  A lost worker is replaced while runs remain;
    all are terminated and reaped on the way out.
    """
    import multiprocessing  # only fanned-out runs fork
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    timeout = runner["timeout_s"]
    try:
        live = [_Worker(ctx, run, jobs, [])]
    except OSError:
        if timeout is not None:
            raise
        return None
    progress(f"[{len(jobs)} runs left] fanning out over {workers} "
             f"worker processes")
    # (index, attempt) of the runs that may start now, in order, and
    # (the monotonic time it may start at, index, attempt) of a crashed
    # run backing off before its retry
    ready = collections.deque((index, 0) for index in range(len(jobs)))
    backoffs: List[Tuple[float, int, int]] = []

    def lose(worker: _Worker, error: Optional[str] = None) -> None:
        live.remove(worker)  # reaped; with an error, its run fails
        worker.proc.join()
        worker.tasks.close()
        worker.results.close()
        if error is not None:
            land((jobs[worker.index][0], {"error": error},
                  time.monotonic() - worker.started, False, None, None,
                  None))

    try:
        while ready or backoffs or any(w.index is not None for w in live):
            now = time.monotonic()
            while backoffs and backoffs[0][0] <= now:
                ready.append(heapq.heappop(backoffs)[1:])
            while ready:
                worker = next((w for w in live if w.index is None), None)
                if worker is None:
                    if len(live) == workers:
                        break
                    worker = _Worker(ctx, run, jobs, live)
                    live.append(worker)
                worker.index, worker.attempt = ready.popleft()
                worker.tasks.send(worker.index)
                worker.started = time.monotonic()
                worker.deadline = worker.started + (timeout or math.inf)
                if timeout is not None:
                    progress(f"[{jobs[worker.index][1]}] running ...")
            wake = min([w.deadline for w in live if w.index is not None]
                       + [at for at, _index, _attempt in backoffs[:1]],
                       default=math.inf)
            answered = wait([c for w in live for c in (w.results,
                                                       w.proc.sentinel)],
                            None if wake == math.inf
                            else max(0.0, wake - now))
            for worker in [w for w in live if w.results in answered
                           or w.proc.sentinel in answered]:
                record = None
                with contextlib.suppress(EOFError, OSError):  # it died
                    if worker.results.poll():
                        record = worker.results.recv()
                if record is not None:
                    worker.index = None
                    land(record)
                elif worker.index is None:  # it died idle
                    lose(worker)
                elif worker.attempt < runner["retries"]:
                    lose(worker)
                    backoff = runner["retry_backoff_s"] * 2 ** worker.attempt
                    progress(f"[{jobs[worker.index][1]}] worker crashed "
                             f"(exit {worker.proc.exitcode}); retrying in "
                             f"{backoff:.1f}s")
                    heapq.heappush(backoffs, (time.monotonic() + backoff,
                                              worker.index,
                                              worker.attempt + 1))
                else:
                    worker.proc.join()
                    lose(worker, f"worker crashed with exit code "
                                 f"{worker.proc.exitcode} after "
                                 f"{worker.attempt + 1} attempt(s)")
            now = time.monotonic()
            for worker in [w for w in live
                           if w.index is not None and now >= w.deadline]:
                worker.proc.terminate()
                lose(worker, f"watchdog timeout after {timeout:.1f}s")
    except KeyboardInterrupt:
        for worker in live:
            if worker.index is not None:
                progress(f"[{jobs[worker.index][1]}] interrupted")
        return True
    finally:
        for worker in list(live):
            worker.proc.terminate()
            lose(worker)
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
    has reaped so far (:func:`_fan_out` joins its workers before it
    returns)."""
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
            **run.call_params(catalog.accepted_params(run.experiment)))))

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
        jobs, spec.runner, spec.faults, progress, _on_record)
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
            [r for r in cell.results if r is not None])
    return CampaignReport(
        name=spec.name,
        spec_digest=spec.digest(),
        salt=salt,
        cells=list(by_cell.values()),
    )
