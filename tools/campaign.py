#!/usr/bin/env python
"""Campaign CLI: run declarative sweep campaigns from JSON specs.

Thin front end over ``repro.api.run_campaign`` (see docs/campaigns.md
for the spec schema and the caching contract)::

    PYTHONPATH=src python tools/campaign.py SPEC.json            # run it
    PYTHONPATH=src python tools/campaign.py SPEC.json --dry-run  # plan only
    PYTHONPATH=src python tools/campaign.py --smoke              # CI gate

Modes
-----
* default: load and validate ``SPEC.json``, execute it against the
  content-addressed store (``--store``, default
  ``results/campaign_store``), print per-cell statistics, and write
  the report (``--report``) and/or a JSONL export (``--jsonl``).
  Cached runs are not re-executed: re-running a finished campaign is
  pure lookup, and an interrupted one resumes at the first missing
  run.  Exits 1 if any run failed, 130 on interrupt (the partial
  report is still written).
* ``--dry-run``: print the expansion plan — every run with its
  content address and cache status — plus a wall-clock estimate from
  cached wall times, without executing anything.
* ``--grid METRIC ROWS COLS``: after the run, print the metric as a
  plain-text ROWS x COLS table (repeatable rendering of the report's
  ``grid_table``).
* ``--smoke``: the CI campaign gate.  Runs a built-in 2x2x2 campaign
  (``ayadi_energy`` over frames x loss, 2 seeds' worth of cells)
  twice against a fresh store (a temporary directory, or ``--store``
  if given, which must hold no records: the gate rewrites one of its
  lines): the first pass must execute every run,
  the second — through a newly opened ``ResultStore``, so every hit is
  read back from the segment file — must be 100% cache hits and
  serialize a byte-identical report.  Every segment line must then be
  ``<run_id>\\t<hit>\\t<run>``, its run hashing to its id under the
  store's salt.  A third pass overwrites the hit of one line with
  JSON that parses but is not a record, reopens the store, and
  must see exactly that one miss and the same bytes again.  Exits
  non-zero on any other miss, re-execution, byte drift or line that
  does not name its run.
* ``--jobs N``: override the spec's ``runner.jobs``, the most worker
  processes.  Unset (the default), two or more misses fan out over
  every usable core from the first run, and a lone miss runs
  in-process; ``--jobs 1`` keeps every run in-process.  The summary line
  says how many workers ran, how many runs the parent ran itself and
  the CPU seconds of the parent and its workers.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import (  # noqa: E402  (needs the sys.path setup above)
    CampaignSpec,
    ResultStore,
    run_campaign,
)
from repro.campaign import plan_campaign  # noqa: E402

#: the --smoke campaign: tiny (analytic cells), but it exercises the
#: whole pipeline — validation, expansion, store, stats, report
SMOKE_SPEC = {
    "name": "campaign-smoke",
    "experiments": ["ayadi_energy"],
    "grid": {
        "frames": [3, 6],
        "frame_loss": [0.05, 0.1],
        "window": [2, 4],
    },
}


def _print_report(report, grid=None) -> None:
    for cell in report.cells:
        params = ", ".join(f"{k}={v}" for k, v in cell.params.items())
        label = f"{cell.experiment}({params})" if params else cell.experiment
        if cell.errors:
            print(f"  {label}: ERRORS {cell.errors}")
            continue
        parts = []
        for metric, agg in sorted(cell.metrics.items()):
            text = f"{metric}={agg['mean']:.4g}"
            if agg["n"] > 1:
                text += (f" [{agg['ci_low']:.4g}, {agg['ci_high']:.4g}]"
                         f" n={agg['n']}")
            parts.append(text)
        print(f"  {label}: " + ("; ".join(parts) or "(no metrics)"))
    if grid:
        metric, rows, cols = grid
        print()
        print(report.grid_table(metric, rows=rows, cols=cols))


def _smoke(store_dir: str) -> int:
    """Run the built-in campaign twice; the second pass must be free
    and every stored line must name its run, and a third, with one
    record overwritten by a non-record, must re-execute that run
    alone."""
    store = ResultStore(store_dir)
    first = run_campaign(dict(SMOKE_SPEC), store=store,
                         progress=lambda *_: None)
    ex1 = first.execution
    print(f"pass 1: {ex1['runs']} runs, {ex1['cache_misses']} executed, "
          f"{ex1['cache_hits']} cached, {ex1['wall_s']:.2f}s")
    if ex1["errors"]:
        print(f"smoke FAILED: first pass had errors {ex1['errors']}",
              file=sys.stderr)
        return 1
    # a store answers from its own index: only a fresh one, which has
    # to find pass 1's records in the segment file, gates the format
    store = ResultStore(store_dir)
    second = run_campaign(dict(SMOKE_SPEC), store=store,
                          progress=lambda *_: None)
    ex2 = second.execution
    print(f"pass 2: {ex2['runs']} runs, {ex2['cache_misses']} executed, "
          f"{ex2['cache_hits']} cached, {ex2['wall_s']:.2f}s")
    segments = sorted(store.root.glob("*.jsonl"))
    print(f"store: {len(store)} records / {len(segments)} segments / "
          f"{sum(path.stat().st_size for path in segments)} bytes")
    if ex2["cache_misses"] or ex2["cache_hits"] != ex1["runs"]:
        print("smoke FAILED: second pass re-executed runs (expected "
              "100% cache hits)", file=sys.stderr)
        return 1
    a, b = first.to_json(), second.to_json()
    if a != b:
        print("smoke FAILED: cached re-run report is not byte-identical",
              file=sys.stderr)
        return 1
    unnamed = store.unnamed_line()
    if unnamed:
        print(f"smoke FAILED: segment {unnamed}", file=sys.stderr)
        return 1
    # a hit that parses but is not a record is a miss, not a crash
    data = store.segment.read_bytes()
    head = data.index(b"\t") + 1
    end = data.index(b"\t", head)
    store.segment.write_bytes(data[:head] + b'{"ok": true}' + data[end:])
    third = run_campaign(dict(SMOKE_SPEC), store=ResultStore(store_dir),
                         progress=lambda *_: None)
    ex3 = third.execution
    print(f"pass 3: {ex3['runs']} runs, {ex3['cache_misses']} executed, "
          f"{ex3['cache_hits']} cached (one record overwritten)")
    if ex3["cache_misses"] != 1 or ex3["errors"]:
        print("smoke FAILED: an overwritten record was not exactly one "
              "miss", file=sys.stderr)
        return 1
    if third.to_json() != a:
        print("smoke FAILED: the report after re-executing the "
              "overwritten record is not byte-identical", file=sys.stderr)
        return 1
    print(f"campaign smoke OK: second pass 100% cached, "
          f"byte-identical report ({len(a)} bytes), every line names "
          f"its run; a non-record line re-executed alone")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("spec", nargs="?", metavar="SPEC.json",
                        help="campaign spec file (see docs/campaigns.md)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="content-addressed result store directory "
                             "(default results/campaign_store; --smoke: "
                             "a temporary one)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the report document (indented JSON, "
                             "execution sidecar included)")
    parser.add_argument("--jsonl", default=None, metavar="PATH",
                        help="write the per-run/per-cell JSONL export")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="override the spec's runner.jobs: the "
                             "most worker processes (default: every "
                             "usable core, from the first run when "
                             "two or more runs miss; 1 = in-process)")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the expansion plan and cost estimate "
                             "without executing")
    parser.add_argument("--grid", nargs=3, default=None,
                        metavar=("METRIC", "ROWS", "COLS"),
                        help="after the run, print METRIC as a "
                             "ROWS x COLS table")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: run a built-in 2x2x2 campaign "
                             "twice; the second pass must be 100%% "
                             "cache hits with a byte-identical report, "
                             "and a third, with one record overwritten "
                             "by a non-record, exactly one miss")
    args = parser.parse_args(argv)

    if args.smoke:
        if args.spec:
            parser.error("--smoke uses the built-in spec; drop SPEC.json")
        if args.store is None:
            with tempfile.TemporaryDirectory() as store_dir:
                return _smoke(store_dir)
        held = [path for path in Path(args.store).glob("*.jsonl")
                if path.stat().st_size]
        if held:
            print(f"smoke refused: {args.store} already holds records "
                  f"({held[0].name}); the gate overwrites one of its "
                  f"lines, so give it an empty store", file=sys.stderr)
            return 1
        return _smoke(args.store)
    if not args.spec:
        parser.error("a SPEC.json is required (or --smoke)")
    try:
        spec = CampaignSpec.from_json(args.spec)
    except OSError as exc:
        parser.error(f"{args.spec}: {exc}")
    except ValueError as exc:
        parser.error(str(exc))
    if args.jobs is not None:
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        spec.runner["jobs"] = args.jobs
    store = ResultStore(args.store or "results/campaign_store")

    if args.dry_run:
        plan = plan_campaign(spec, store=store)
        for entry in plan["plan"]:
            params = ", ".join(f"{k}={v}"
                               for k, v in entry["params"].items())
            seed = f" seed={entry['seed']}" if entry["seed"] is not None \
                else ""
            status = "cached" if entry["cached"] else (
                f"~{entry['wall_estimate_s']:.1f}s"
                if "wall_estimate_s" in entry else "new")
            print(f"  {entry['run_id'][:12]}  "
                  f"{entry['experiment']}({params}){seed}  [{status}]")
        print(f"{plan['runs']} runs in {plan['cells']} cells: "
              f"{plan['cached']} cached, {plan['to_execute']} to "
              f"execute (~{plan['estimated_wall_s']:.1f}s estimated"
              + (f", {plan['runs_without_estimate']} with no history"
                 if plan["runs_without_estimate"] else "") + ")")
        return 0

    try:
        report = run_campaign(spec, store=store)
    except ValueError as exc:
        parser.error(str(exc))
    _print_report(report, grid=args.grid)
    ex = report.execution
    print(f"{ex['runs']} runs: {ex['cache_hits']} cached, "
          f"{ex['executed']} executed on {ex['workers']} worker(s) "
          f"({ex['in_process']} in-process), "
          f"{len(ex['errors'])} failed, {ex['wall_s']:.1f}s wall, "
          f"{ex['cpu_s']:.1f}s CPU")
    if args.report:
        report.save(args.report)
        print(f"wrote {args.report}")
    if args.jsonl:
        lines = report.write_jsonl(args.jsonl)
        print(f"wrote {args.jsonl} ({lines} lines)")
    if ex["interrupted"]:
        print("interrupted; completed runs are cached — re-run to "
              "resume", file=sys.stderr)
        return 130
    if ex["errors"]:
        print(f"failed runs: {sorted(ex['errors'])}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
