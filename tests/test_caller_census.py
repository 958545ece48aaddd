"""Caller census: every public name in ``src/repro`` has a caller.

A public top-level function or class, or a public method of a top-level
class, must be used by name — a ``Name``, an ``Attribute`` or an import
alias — in a *different* file under ``src/``, ``examples/``, ``tools/``,
``bench/`` or ``benchmarks/``.  Use from ``tests/`` does not count: a
name only its own unit test calls is surface without a caller, and goes
with that test.  The paper-number tests in ``benchmarks/`` do count:
the models and experiments exist to produce those numbers.

Exempt by rule: dunder and ``_private`` names, and the methods of a
``_private`` class; the ``main`` of modules CI runs with ``python -m``;
the callbacks an ``asyncio`` protocol subclass inherits the names of;
the methods ``bench/spans.py`` wraps by name (its ``ENTRY_POINTS``).
Everything else without a caller sits in ``ALLOWED`` with its reason,
``repro.api``'s exports as one line.  An ``ALLOWED`` entry whose name
is gone, or that has a caller after all, fails the census too, so the
list cannot go stale.

Implemented as an AST walk, like ``tests/test_import_hygiene.py``, so
mentions in comments and docstrings neither count nor hide a name.
"""

import ast
import asyncio
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
CALLER_DIRS = ("src", "examples", "tools", "bench", "benchmarks")

#: ``path relative to src/repro :: qualified name`` -> why it stays
#: without a caller outside its tests
ALLOWED = {
    "api.py::__all__": "repro.api's docstring promises each exported name",
    "campaign/catalog.py::ExperimentCatalog.unregister": "register's inverse; tests undo their registrations with it",
    "net/icmpv6.py::IcmpStack.ping": "the reachability probe of test_net_icmp and test_net_stack",
    "net/ipv6.py::decode_header": "oracle: test_net_codecs and test_net_pcap parse encoded headers with it",
    "net/udp.py::decode_header": "oracle: test_net_codecs parses encode_header's bytes with it",
    "net/pcap.py::PcapWriter.attach_wired": "the tap test_net_pcap captures a wired link with",
    "net/pcap.py::read_pcap": "oracle: test_net_pcap reads PcapWriter's files back with it",
    "net/routing.py::MeshRouting.hops_between": "oracle: test_topology_builders and test_net_routing check path lengths",
    "phy/medium.py::Medium.force_link": "topology override test_phy_medium and test_kernel_fastpath invalidate caches with",
    "sim/engine.py::Simulator.pending_events": "oracle: the kernel tests count and inspect the queue with it",
    "sim/trace.py::read_jsonl": "oracle: test_metrics reads TraceBus.to_jsonl exports back with it",
}


def _is_public(name):
    return not name.startswith("_")


def _python_m_modules():
    """Modules the CI workflow runs with ``python -m repro.…``."""
    text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    return set(re.findall(r"python -m (repro(?:\.\w+)+)", text))


def _protocol_callbacks(cls):
    """Callback names ``cls`` inherits from an ``asyncio`` protocol."""
    names = set()
    for base in cls.bases:
        if (isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "asyncio"
                and base.attr.endswith("Protocol")):
            names |= set(dir(getattr(asyncio, base.attr)))
    return names


def _definitions():
    """Yield ``(path, qualname)`` for every public name in the package."""
    run_as_main = _python_m_modules()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        module = ".".join(("repro",) + rel.with_suffix("").parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if not _is_public(node.name):
                continue
            if node.name == "main" and module in run_as_main:
                continue
            yield path, node.name
            if not isinstance(node, ast.ClassDef):
                continue
            callbacks = _protocol_callbacks(node)
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _is_public(item.name)
                        and item.name not in callbacks):
                    yield path, f"{node.name}.{item.name}"


def _names_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
    return used


def _literal(path, name):
    """The literal value a module assigns to the top-level ``name``."""
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no {name}")


def _callers():
    """Map each name to the set of non-test files that use it."""
    users = {}
    for top in CALLER_DIRS:
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            for name in _names_used(path):
                users.setdefault(name, set()).add(path)
    # the span tracer looks its entry points up by string
    spans = REPO_ROOT / "bench" / "spans.py"
    for _, _, methods in _literal(spans, "ENTRY_POINTS"):
        for name in methods:
            users.setdefault(name, set()).add(spans)
    return users


def _key(path, qualname):
    return f"{path.relative_to(PACKAGE).as_posix()}::{qualname}"


def census():
    """Return ``(uncalled, stale)``: names without a caller that no
    ``ALLOWED`` entry covers, and ``ALLOWED`` entries that cover no
    such name."""
    users = _callers()
    exports = set(_literal(PACKAGE / "api.py", "__all__"))
    uncalled, allowed_hits = [], {"api.py::__all__"}
    for path, qualname in _definitions():
        name = qualname.rsplit(".", 1)[-1]
        if users.get(name, set()) - {path}:
            continue
        key = _key(path, qualname)
        if key in ALLOWED:
            allowed_hits.add(key)
        elif qualname not in exports:  # a method's qualname has a dot
            uncalled.append(key)
    stale = sorted(set(ALLOWED) - allowed_hits)
    return uncalled, stale


def test_allow_list_is_short_and_gives_reasons():
    assert len(ALLOWED) <= 15, len(ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_public_name_has_a_caller():
    uncalled, stale = census()
    assert not uncalled, (
        "public names with no caller outside their own file and the "
        "tests (delete them, make them private, or add an ALLOWED line "
        "with the reason):\n  " + "\n  ".join(uncalled))
    assert not stale, (
        "ALLOWED entries that cover no uncalled name (the name is gone "
        "or now has a caller):\n  " + "\n  ".join(stale))
