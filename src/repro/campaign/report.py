"""CampaignReport: the deterministic output of a campaign.

The report body is a pure function of the spec, the code salt, and
the per-run results — never of wall-clock time or cache state — so a
campaign that re-runs as 100% cache hits serializes to **byte-
identical** JSON (the ``campaign-smoke`` CI gate).  Volatile
execution facts (wall times, hit/miss counts, interruption) live in
``report.execution``, which ``to_json()`` excludes by default.

Three export surfaces:

* :meth:`to_json` — the canonical document, built from the report's
  own lists and dicts rather than copies of them;
* :meth:`write_jsonl` — one line per run (full result payload, plus
  the extras the spec asked for) then one line per cell (aggregates),
  for downstream tooling;
* :meth:`grid_table` — a plain-text grid of one metric over two axes,
  the shape the paper's figures tabulate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class CellResult:
    """One grid cell: an ``(experiment, params)`` point and its reps."""

    experiment: str
    params: Dict
    seeds: List[Optional[int]]
    run_ids: List[str]
    results: List[object]           # per-repetition raw results
    metrics: Dict[str, Dict]        # metric -> aggregate record
    errors: List[str] = field(default_factory=list)

    def _to_dict(self) -> Dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "seeds": self.seeds,
            "run_ids": self.run_ids,
            "metrics": self.metrics,
            "errors": self.errors,
        }


@dataclass
class CampaignReport:
    """Deterministic campaign outcome + volatile execution sidecar."""

    name: str
    spec_digest: str
    salt: str
    cells: List[CellResult]
    #: volatile execution facts (wall clock, cache hits/misses,
    #: interruption, per-run errors) — excluded from the canonical
    #: document so cached re-runs reproduce it byte-identically
    execution: Dict = field(default_factory=dict)
    #: run id -> the extras the spec asked every run for
    #: (``metrics_snapshots``, ``fault_injections``, ``violations``);
    #: empty when it asked for none.  Only :meth:`write_jsonl` reads it
    run_extras: Dict[str, Dict] = field(default_factory=dict)

    # -- canonical document -------------------------------------------

    def _to_dict(self, include_execution: bool = False) -> Dict:
        d = {
            "campaign": self.name,
            "spec_digest": self.spec_digest,
            "salt": self.salt,
            "cells": [c._to_dict() for c in self.cells],
        }
        if include_execution:
            d["execution"] = self.execution
        return d

    def to_json(self, **kwargs) -> str:
        """Canonical serialization: sorted keys, fixed separators —
        the byte-identity surface of the caching contract."""
        return json.dumps(self._to_dict(**kwargs), sort_keys=True,
                          separators=(",", ":"), default=str)

    def save(self, path, include_execution: bool = True) -> None:
        """Human-oriented file: indented, execution sidecar included."""
        with open(path, "w") as fh:
            json.dump(self._to_dict(include_execution=include_execution),
                      fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")

    # -- JSONL export --------------------------------------------------

    def write_jsonl(self, path) -> int:
        """One ``{"kind": "run"}`` line per repetition (with its full
        result payload and its :attr:`run_extras`), then one
        ``{"kind": "cell"}`` line per cell; returns the number of lines
        written."""
        lines = 0
        with open(path, "w") as fh:
            for cell in self.cells:
                for seed, run_id, result in zip(cell.seeds, cell.run_ids,
                                                cell.results):
                    fh.write(json.dumps({
                        "kind": "run",
                        "experiment": cell.experiment,
                        "params": cell.params,
                        "seed": seed,
                        "run_id": run_id,
                        "result": result,
                        **self.run_extras.get(run_id, {}),
                    }, sort_keys=True, default=str) + "\n")
                    lines += 1
            for cell in self.cells:
                fh.write(json.dumps({
                    "kind": "cell",
                    "experiment": cell.experiment,
                    "params": cell.params,
                    "metrics": cell.metrics,
                    "errors": cell.errors,
                }, sort_keys=True, default=str) + "\n")
                lines += 1
        return lines

    # -- grid rendering ------------------------------------------------

    def grid_table(self, metric: str, rows: str,
                   cols: Optional[str] = None,
                   experiment: Optional[str] = None,
                   stat: str = "mean", ci: bool = True) -> str:
        """Plain-text ``rows x cols`` table of one metric.

        With ``cols=None`` (a one-axis sweep) the single column is the
        metric itself.  Cell text is ``<stat> [ci_low, ci_high]`` (CI
        omitted when a cell has a single repetition or ``ci=False``).
        Cells whose params carry other axes are included as long as
        the (row, col) pair is unambiguous; a clash raises, since
        averaging across hidden axes silently would be a lie.
        """
        table: Dict[tuple, str] = {}
        row_vals: List = []
        col_vals: List = []
        for cell in self.cells:
            if experiment is not None and cell.experiment != experiment:
                continue
            if rows not in cell.params or (cols is not None
                                           and cols not in cell.params):
                continue
            agg = cell.metrics.get(metric)
            if agg is None:
                continue
            r = cell.params[rows]
            c = cell.params[cols] if cols is not None else metric
            if (r, c) in table:
                raise ValueError(
                    f"grid_table: multiple cells at ({rows}={r}, "
                    f"{cols}={c}); filter with experiment= or fewer "
                    f"axes")
            text = _fmt(agg[stat])
            if ci and agg["n"] > 1:
                text += f" [{_fmt(agg['ci_low'])}, {_fmt(agg['ci_high'])}]"
            table[(r, c)] = text
            if r not in row_vals:
                row_vals.append(r)
            if c not in col_vals:
                col_vals.append(c)
        if not table:
            return f"(no cells with metric {metric!r} on axes " \
                   f"{rows!r} x {cols!r})"
        corner = f"{rows}\\{cols}" if cols is not None else rows
        header = [corner] + [str(c) for c in col_vals]
        body = [[str(r)] + [table.get((r, c), "-") for c in col_vals]
                for r in row_vals]
        widths = [max(len(line[i]) for line in [header] + body)
                  for i in range(len(header))]
        out = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        out.append("  ".join("-" * w for w in widths))
        for line in body:
            out.append("  ".join(v.ljust(w) for v, w in zip(line, widths)))
        return "\n".join(out)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"
