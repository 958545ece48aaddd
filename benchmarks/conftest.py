"""Shared helpers for the paper-reproduction suite.

Every benchmark regenerates one of the paper's tables or figures,
prints it as an aligned text table (plus the paper's reference numbers
where applicable), and asserts the paper's claim about it.  A simulated
row is defined once, as an entry of the experiment catalog
(``repro.experiments.runner``) listed in ``campaigns/paper.json``:
:func:`paper` runs that one entry through ``run_campaign`` against
``results/campaign_store``, the store ``tools/campaign.py`` fills by
default.  A row the store already holds for this exact ``src/repro``
code is read back, not re-run; ``python tools/campaign.py
campaigns/paper.json`` fills the store over every core.
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
    """The result of the paper campaign's ``name`` row, run or read
    from the store; a failed run fails the calling test."""
    report = run_campaign({**PAPER_SPEC, "experiments": [name]},
                          store=ResultStore(STORE),
                          progress=lambda *_: None)
    errors = report.execution["errors"]
    if errors:
        pytest.fail(f"{name}: {'; '.join(errors.values())}", pytrace=False)
    [result] = report.cells[0].results
    # what a store hit returns, so a cold and a warm pass read alike
    return json.loads(json.dumps(result, sort_keys=True, default=str))


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
