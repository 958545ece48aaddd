"""Batch experiment runner: regenerate the paper's results as JSON.

``python -m repro.experiments.runner [--quick] [--jobs N] [-o results.json]``
runs every experiment at benchmark (or abbreviated) durations and
writes one JSON document with a section per table/figure.  The pytest
benchmarks remain the canonical, asserted reproduction; this runner is
for users who want the raw numbers (e.g. to plot).

``--list`` prints the registry; ``--only NAME[,NAME...]`` (space- or
comma-separated, repeatable) runs a subset — the resolved selection is
recorded in the output's ``_meta.only`` so a results file always says
what produced it.

Experiments are independent simulations (each seeds its own RNG), so
they run in-process until the finished ones say a fork pool pays, and
the rest then fan out over every usable core; ``--jobs N`` caps the
workers at N (``--jobs 1``: always in-process).  The output is
identical to a serial run apart from the recorded wall times.  The
document's ``_meta`` section carries per-experiment wall time, the
requested ``jobs``, the ``workers`` actually used (1 = in-process),
and the list of failed experiments; the CLI exits non-zero if any
experiment raised, whether it ran in-process or in a worker.

Supervised runs: ``--timeout SECONDS`` runs each experiment in its own
watched process — one that hangs is terminated at the deadline and
recorded as a failure without disturbing the rest; ``--retries N``
re-runs a *crashed* (not timed-out) worker with exponential backoff.
``--verify`` attaches the live :mod:`repro.verify` invariant engine to
every network an experiment builds; violations land in
``_meta.invariant_violations`` and fail the run.  Ctrl-C at any point
still writes a valid partial results document with
``_meta.interrupted = true``.

This module is now a thin veneer over the campaign engine
(:mod:`repro.campaign`): the experiments live in an
:class:`~repro.campaign.catalog.ExperimentCatalog`
(:func:`default_catalog`), execution is
:func:`repro.campaign.engine.execute_jobs`, and ``main()`` expresses
its flags as a degenerate single-cell
:class:`~repro.campaign.spec.CampaignSpec` — the flag -> spec-field
migration table is in docs/api.md.  Grids, repetition seeds, cached
re-runs and statistics are campaign features: see docs/campaigns.md
and ``repro.api.run_campaign``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.campaign.catalog import ExperimentCatalog, resolve_selection
from repro.campaign.engine import ExecOptions, Job, execute_jobs
from repro.campaign.spec import CampaignSpec
from repro.experiments.exp_ablations import run_ablation_table
from repro.experiments.exp_app import (
    run_fig8_batching,
    run_fig9_loss_sweep,
    run_fig10_daylong,
    run_table8,
)
from repro.experiments.exp_cells import (
    ayadi_energy,
    duty_cell,
    fig9_cell,
    single_hop_cell,
)
from repro.experiments.exp_duty import (
    run_adaptive_duty_cycle,
    run_fig12_sweep,
)
from repro.experiments.exp_fairness import run_table9
from repro.experiments.exp_retry_delay import (
    run_eq2_validation,
    run_fig6_sweep,
    run_fig7a_cwnd_trace,
)
from repro.experiments.exp_table7 import run_table7
from repro.experiments.exp_throughput import (
    run_fig4_mss_sweep,
    run_fig5_buffer_sweep,
    run_sec72_hops,
)
from repro.models.headers import table5_rows, table6_rows
from repro.models.memory import (
    modelled_passive_bytes,
    modelled_tcb_bytes,
)


def _static_tables() -> Dict:
    return {
        "table5": [
            {"link": r.name, "bandwidth_bps": r.bandwidth_bps,
             "frame_bytes": r.frame_bytes, "tx_time_s": r.tx_time}
            for r in table5_rows()
        ],
        "table6": [
            {"header": r.protocol,
             "first_frame": [r.first_frame_min, r.first_frame_max],
             "other_frames": [r.other_frames_min, r.other_frames_max]}
            for r in table6_rows()
        ],
        "memory_model": {
            "active_socket_bytes": modelled_tcb_bytes(),
            "passive_socket_bytes": modelled_passive_bytes(),
        },
    }


# ----------------------------------------------------------------------
# the built-in catalog: one module-level factory per table/figure
# (module-level so pool and supervised workers can import them)
# ----------------------------------------------------------------------


def _d(quick: bool) -> float:
    return 25.0 if quick else 60.0


def _app_d(quick: bool) -> float:
    return 400.0 if quick else 1500.0


def _hours(quick: bool) -> int:
    return 6 if quick else 24


def _exp_static_tables(quick: bool) -> Dict:
    return _static_tables()


def _exp_fig4_mss(quick: bool):
    return run_fig4_mss_sweep(duration=_d(quick))


def _exp_fig5_buffer(quick: bool):
    return run_fig5_buffer_sweep(duration=_d(quick))


def _exp_table7_stacks(quick: bool):
    return run_table7(duration=_d(quick))


def _exp_fig6a_one_hop(quick: bool):
    return run_fig6_sweep(1, duration=_d(quick), ambient_frame_loss=0.03)


def _exp_fig6bcd_three_hops(quick: bool):
    return run_fig6_sweep(3, duration=_d(quick))


def _exp_fig7a_cwnd(quick: bool):
    return _strip_series(run_fig7a_cwnd_trace(duration=2 * _d(quick)))


def _exp_eq2_validation(quick: bool):
    return run_eq2_validation(duration=_d(quick))


def _exp_sec72_hops(quick: bool):
    return run_sec72_hops(duration=_d(quick))


def _exp_fig8_batching(quick: bool):
    return run_fig8_batching(duration=_app_d(quick))


def _exp_fig9_loss(quick: bool):
    return run_fig9_loss_sweep(
        loss_rates=(0.0, 0.09, 0.15, 0.21) if quick else
        (0.0, 0.03, 0.06, 0.09, 0.12, 0.15, 0.18, 0.21),
        duration=_app_d(quick))


def _exp_fig10_daylong_tcp(quick: bool):
    return run_fig10_daylong("tcp", hours=_hours(quick),
                             seconds_per_hour=150.0)


def _exp_fig10_daylong_coap(quick: bool):
    return run_fig10_daylong("coap", hours=_hours(quick),
                             seconds_per_hour=150.0)


def _exp_table8(quick: bool):
    return run_table8(hours=_hours(quick), seconds_per_hour=150.0)


def _exp_table9_fairness(quick: bool):
    return run_table9(duration=1.5 * _d(quick))


def _exp_appendixC_fig12(quick: bool):
    return _strip_rtt_samples(run_fig12_sweep(duration=_d(quick)))


def _exp_appendixC_adaptive(quick: bool):
    return [
        run_adaptive_duty_cycle(uplink=True, duration=_d(quick)),
        run_adaptive_duty_cycle(uplink=False, duration=_d(quick)),
    ]


def _exp_ablations_lossy(quick: bool):
    return run_ablation_table("lossy-1hop", duration=_d(quick))


def _exp_ablations_3hop(quick: bool):
    return run_ablation_table("hidden-3hop", duration=_d(quick))


#: the process-wide default catalog: the paper's figures/tables plus
#: the parameterised campaign grid cells (exp_cells)
DEFAULT_CATALOG = ExperimentCatalog({
    "static_tables": _exp_static_tables,
    "fig4_mss": _exp_fig4_mss,
    "fig5_buffer": _exp_fig5_buffer,
    "table7_stacks": _exp_table7_stacks,
    "fig6a_one_hop": _exp_fig6a_one_hop,
    "fig6bcd_three_hops": _exp_fig6bcd_three_hops,
    "fig7a_cwnd": _exp_fig7a_cwnd,
    "eq2_validation": _exp_eq2_validation,
    "sec72_hops": _exp_sec72_hops,
    "fig8_batching": _exp_fig8_batching,
    "fig9_loss": _exp_fig9_loss,
    "fig10_daylong_tcp": _exp_fig10_daylong_tcp,
    "fig10_daylong_coap": _exp_fig10_daylong_coap,
    "table8": _exp_table8,
    "table9_fairness": _exp_table9_fairness,
    "appendixC_fig12": _exp_appendixC_fig12,
    "appendixC_adaptive": _exp_appendixC_adaptive,
    "ablations_lossy": _exp_ablations_lossy,
    "ablations_3hop": _exp_ablations_3hop,
    "single_hop_cell": single_hop_cell,
    "fig9_cell": fig9_cell,
    "duty_cell": duty_cell,
    "ayadi_energy": ayadi_energy,
})


def default_catalog() -> ExperimentCatalog:
    """The process-wide default :class:`ExperimentCatalog`.

    Campaigns that must not see runtime registrations should work on
    ``default_catalog().copy()``.
    """
    return DEFAULT_CATALOG


def _strip_series(row: Dict) -> Dict:
    out = dict(row)
    for key in ("cwnd_series", "ssthresh_series"):
        series = out.pop(key, None)
        if series:
            out[f"{key}_points"] = len(series)
    return out


def _strip_rtt_samples(rows):
    out = []
    for r in rows:
        r = dict(r)
        samples = r.pop("rtt_samples", [])
        r["rtt_samples_count"] = len(samples)
        out.append(r)
    return out


def _registry_resolver(experiment: str, quick: bool, params: Dict):
    """Engine resolver over :data:`DEFAULT_CATALOG`.

    Reads the catalog at call time (inside the worker), so factories
    registered after import are honoured in every execution mode.
    """
    return functools.partial(DEFAULT_CATALOG.get(experiment), quick,
                             **params)


def run_all_detailed(
    quick: bool = True,
    only=None,
    progress=print,
    jobs: Optional[int] = None,
    collect_metrics: bool = False,
    fault_spec=None,
    verify: bool = False,
    timeout: float = None,
    retries: int = 0,
    retry_backoff: float = 2.0,
) -> Tuple[Dict, Dict]:
    """Run the registry; returns ``(results, meta)``.

    ``results`` is ``{experiment: result-or-error-dict}`` in registry
    order regardless of worker completion order.  ``meta`` carries
    ``wall_times_s``, ``errors`` (names of failed experiments, tracked
    structurally from the worker's ok flag), ``jobs``, ``workers``
    (the processes actually used at once; 1 = in-process) and
    ``total_wall_s``.  With ``collect_metrics``, every experiment runs
    with the observability registry attached and ``meta`` additionally
    carries ``metrics_snapshots``: ``{experiment: [snapshot, ...]}``
    (one snapshot per simulator the experiment built, in construction
    order — deterministic, so diffable across runs).  With
    ``fault_spec`` (a validated schedule dict, e.g. from ``--faults
    spec.json``), every network each experiment builds gets the
    schedule injected, and ``meta`` carries ``fault_injections``:
    ``{experiment: [per-injector kind counts, ...]}``.

    With ``verify``, every network gets a live invariant engine and
    ``meta`` carries ``invariant_violations`` (only the experiments
    that violated).  ``timeout`` switches to supervised mode: each
    experiment runs in its own watched process (up to ``jobs``, by
    default every usable core, at a time); hung workers are killed at
    the deadline and recorded as failures, crashed workers are retried
    ``retries`` times with ``retry_backoff``-seconds exponential
    backoff.

    A ``KeyboardInterrupt`` in any mode stops cleanly: the returned
    ``results`` hold every experiment that finished, and
    ``meta["interrupted"]`` (always present) records whether the run
    was cut short.

    Execution is :func:`repro.campaign.engine.execute_jobs`; ``only``
    goes through the shared
    :func:`~repro.campaign.catalog.resolve_selection` rules (comma- or
    space-separated, close-match suggestions on typos).
    """
    registry_names = DEFAULT_CATALOG.names()
    selection = resolve_selection(only, registry_names)
    names: List[str] = [
        name for name in registry_names
        if selection is None or name in selection
    ]
    collected: Dict[str, object] = {}
    wall_times: Dict[str, float] = {}
    snapshots: Dict[str, object] = {}
    fault_counts: Dict[str, object] = {}
    violations: Dict[str, object] = {}
    errors: List[str] = []

    def _collect(tup) -> None:
        name, result, wall, ok, snaps, fsum, viol = tup
        collected[name] = result
        wall_times[name] = wall
        snapshots[name] = snaps
        fault_counts[name] = fsum
        violations[name] = viol
        if not ok:
            errors.append(name)

    options = ExecOptions(
        jobs=jobs,
        collect_metrics=collect_metrics,
        fault_spec=fault_spec,
        verify=verify,
        timeout=timeout,
        retries=retries,
        retry_backoff=retry_backoff,
    )
    t0 = time.perf_counter()
    _, interrupted, workers = execute_jobs(
        [Job.build(key=name, experiment=name, quick=quick)
         for name in names],
        options, _registry_resolver, progress=progress,
        on_record=_collect)
    finished = [name for name in names if name in collected]
    results = {name: collected[name] for name in finished}
    meta = {
        "quick": quick,
        "jobs": jobs,
        "workers": workers,
        #: the resolved --only selection in registry order (None = all)
        "only": names if selection is not None else None,
        "wall_times_s": {name: round(wall_times[name], 3)
                         for name in finished},
        "total_wall_s": round(time.perf_counter() - t0, 3),
        "errors": [name for name in finished if name in errors],
        "interrupted": interrupted,
    }
    if interrupted:
        meta["not_run"] = [n for n in names if n not in collected]
    if timeout is not None:
        meta["timeout_s"] = timeout
    if collect_metrics:
        meta["metrics_snapshots"] = {name: snapshots[name]
                                     for name in finished}
    if fault_spec is not None:
        meta["fault_injections"] = {name: fault_counts[name]
                                    for name in finished}
    if verify:
        meta["invariant_violations"] = {
            name: violations[name] for name in finished
            if violations.get(name)
        }
    return results, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="abbreviated durations (~2-4 minutes total)")
    parser.add_argument("-o", "--output", default="results.json")
    parser.add_argument("--only", nargs="*", default=None,
                        metavar="NAME[,NAME...]",
                        help="subset of experiment names (space- or "
                             "comma-separated; see --list)")
    parser.add_argument("--list", action="store_true",
                        help="print the experiment registry and exit")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="most worker processes (default: every "
                             "usable core, once the finished runs say a "
                             "fork pool pays; 1 = in-process).  Results "
                             "are identical to a serial run apart from "
                             "wall times")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="also run with the observability registry "
                             "attached and write per-experiment metrics "
                             "snapshots to PATH (see "
                             "docs/observability.md)")
    parser.add_argument("--faults", default=None, metavar="SPEC.json",
                        help="inject the fault schedule in SPEC.json into "
                             "every experiment's network (see "
                             "docs/faults.md); per-experiment injection "
                             "counts land in the output's _meta section")
    parser.add_argument("--verify", action="store_true",
                        help="attach the live invariant engine "
                             "(repro.verify) to every experiment; "
                             "violations land in "
                             "_meta.invariant_violations and fail the "
                             "run (see docs/robustness.md)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="supervised mode: run each experiment in a "
                             "watched process killed after SECONDS of "
                             "wall clock; a hung experiment becomes a "
                             "recorded failure instead of hanging the "
                             "batch")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="with --timeout: retry a crashed (not "
                             "timed-out) worker up to N times")
    parser.add_argument("--retry-backoff", type=float, default=2.0,
                        metavar="SECONDS",
                        help="with --retries: initial backoff before a "
                             "retry, doubled per attempt (default 2.0)")
    args = parser.parse_args(argv)
    if args.list:
        for name in DEFAULT_CATALOG.names():
            print(name)
        return 0
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.only is not None and not [
            n for item in args.only
            for n in item.replace(",", " ").split()]:
        parser.error("--only given but no experiment names")
    fault_spec = None
    if args.faults is not None:
        from repro.faults import FaultSchedule

        try:
            fault_spec = FaultSchedule.from_json(args.faults).to_dict()
        except (OSError, ValueError) as exc:
            parser.error(f"--faults {args.faults}: {exc}")
    if args.retries and args.timeout is None:
        parser.error("--retries requires --timeout (supervised mode)")
    # the flags are a degenerate campaign: one cell per experiment, no
    # grid, no repetition seeds (docs/api.md has the migration table)
    try:
        spec = CampaignSpec.single_cell(
            experiments=args.only,
            quick=args.quick,
            faults=fault_spec,
            jobs=args.jobs,
            timeout_s=args.timeout,
            retries=args.retries,
            retry_backoff_s=args.retry_backoff,
            verify=args.verify,
            metrics=args.metrics_out is not None,
        )
        results, meta = run_all_detailed(**spec.runner_kwargs())
    except ValueError as exc:  # e.g. a typo'd --only name
        parser.error(str(exc))
    if args.metrics_out is not None:
        snapshots = meta.pop("metrics_snapshots")
        with open(args.metrics_out, "w") as fh:
            json.dump(snapshots, fh, indent=2, sort_keys=True)
        print(f"wrote {args.metrics_out}")
    document = dict(results)
    document["_meta"] = meta
    with open(args.output, "w") as fh:
        json.dump(document, fh, indent=2, default=str)
    print(f"wrote {args.output} ({len(results)} experiments, "
          f"{meta['total_wall_s']:.1f}s wall)")
    if meta.get("invariant_violations"):
        count = sum(len(v) for v in meta["invariant_violations"].values())
        print(f"invariant violations in "
              f"{sorted(meta['invariant_violations'])} "
              f"({count} total)", file=sys.stderr)
    if meta["interrupted"]:
        print("interrupted; partial results written", file=sys.stderr)
        return 130
    if meta["errors"]:
        print(f"experiments with errors: {meta['errors']}", file=sys.stderr)
        return 1
    if meta.get("invariant_violations"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
