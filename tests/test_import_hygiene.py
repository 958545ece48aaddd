"""Import-hygiene lint: downstream code goes through ``repro.api``.

Everything the facade re-exports must be imported *from* the facade (or
from ``repro`` itself) in the example scripts, the experiment modules,
and the perf scenarios — otherwise the compatibility surface quietly
erodes back into deep imports.  Deep paths that the facade does not
cover (MAC/PHY internals, app-layer helpers, trace plumbing) remain
fair game; only the modules whose public names moved behind
``repro.api`` are banned.

Implemented as an AST walk so string mentions in comments/docstrings
don't trip it.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: modules whose public names are covered by the facade — downstream
#: code must not import from them directly
BANNED_MODULES = {
    "repro.core.socket_api",
    "repro.core.params",
    "repro.core.simplified",
    "repro.core.connection",
    "repro.experiments.topology",
    "repro.experiments.workload",
}

SCANNED_FILES = sorted(
    list((REPO_ROOT / "examples").glob("*.py"))
    + list((REPO_ROOT / "src" / "repro" / "experiments").glob("exp_*.py"))
    + [REPO_ROOT / "benchmarks" / "perf" / "scenarios.py"]
)


def _banned_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in BANNED_MODULES:
                    hits.append(f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            if node.module in BANNED_MODULES:
                hits.append(f"line {node.lineno}: from {node.module} "
                            f"import ...")
    return hits


def test_scan_list_is_nonempty():
    assert len(SCANNED_FILES) >= 10, SCANNED_FILES


@pytest.mark.parametrize("path", SCANNED_FILES,
                         ids=[str(p.relative_to(REPO_ROOT))
                              for p in SCANNED_FILES])
def test_no_deep_imports_of_facade_covered_modules(path):
    hits = _banned_imports(path)
    assert not hits, (
        f"{path.relative_to(REPO_ROOT)} bypasses repro.api:\n  "
        + "\n  ".join(hits)
        + "\nimport these names from repro.api instead"
    )
