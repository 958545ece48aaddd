"""Shared helpers for the paper-reproduction suite.

Every benchmark regenerates one of the paper's tables or figures,
prints it as an aligned text table (plus the paper's reference numbers
where applicable), and asserts the paper's claim about it.  A simulated
row is defined once, as an entry of ``campaigns/paper.json``: a
catalog row of ``repro.experiments.runner``, or a grid over one of
its cells (``repro.experiments.exp_cells``), one point a cell.
:func:`paper` runs that one entry through ``run_campaign`` against
``results/campaign_store``, the store ``tools/campaign.py`` fills by
default.  A run the store already holds for this exact ``src/repro``
code is read back, not re-run, and a point two entries share is one
run; ``python tools/campaign.py campaigns/paper.json`` fills the store
over every core.
"""

import json
from pathlib import Path
from typing import Iterable, Sequence

import pytest

from repro.api import ResultStore, run_campaign

REPO = Path(__file__).resolve().parent.parent
#: the paper campaign: every simulated row the suite asserts on
PAPER_SPEC = json.loads((REPO / "campaigns" / "paper.json").read_text())
#: the store :func:`paper` reads and fills
STORE = REPO / "results" / "campaign_store"

_CAPMAN = [None]


def pytest_configure(config):
    # tables must reach the real stdout (and the tee'd bench_output.txt)
    # even though the benchmarks pass; route them around pytest capture
    _CAPMAN[0] = config.pluginmanager.getplugin("capturemanager")


def paper(name: str):
    """The result of the paper campaign's ``name`` entry, run or read
    from the store: a row's result, or a grid's list of point results
    in grid order.  A failed run fails the calling test."""
    [entry] = [entry for entry in PAPER_SPEC["experiments"]
               if (entry if isinstance(entry, str) else entry["name"])
               == name]
    report = run_campaign({**PAPER_SPEC, "experiments": [entry]},
                          store=ResultStore(STORE),
                          progress=lambda *_: None)
    errors = report.execution["errors"]
    if errors:
        pytest.fail(f"{name}: {'; '.join(errors.values())}", pytrace=False)
    # what a store hit returns, so a cold and a warm pass read alike
    results = [json.loads(json.dumps(result, sort_keys=True, default=str))
               for cell in report.cells for result in cell.results]
    if isinstance(entry, dict):
        return results
    [result] = results
    return result


def _emit(text: str) -> None:
    capman = _CAPMAN[0]
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(text)
    else:  # pragma: no cover - plain invocation
        print(text)


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]):
    """Print an aligned table with a title banner (bypassing capture)."""
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    line = "-+-".join("-" * w for w in widths)
    out = [f"\n=== {title} ===",
           " | ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
           line]
    for row in rows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    _emit("\n".join(out))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
