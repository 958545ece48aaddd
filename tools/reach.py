#!/usr/bin/env python
"""Execution census: every ``src/repro`` line runs and every public
function has a caller, or ``tools/reach_allow.txt`` says why not.

    PYTHONPATH=src python tools/reach.py [--out REACH.json]

Under one ``sys.settrace`` tracer it runs every ``campaigns/paper.json``
row through ``tools/campaign.py`` into a temporary store, tier-1 and the
paper suite as one pytest session reading that store, and every
``examples/*.py``.  Forked campaign workers dump their hits as they
exit or are terminated; a test's child interpreter is not followed.
A gap is a function-body statement that never ran (or a function that
never ran at all), or a public function or method of a public class
that ran but was never called from a frame in another file outside
``tests/`` (``repro.api``'s exports count as called).  The census
writes ``REACH.json``, and exits 1 on a gap the allow list does not
name or on a stale entry (test failures are recorded, not fatal).
"""

import argparse
import ast
import contextlib
import faulthandler
import importlib
import io
import json
import multiprocessing.util
import os
import runpy
import signal
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: seconds after which a hung census prints its stacks and exits
HANG_S = 3600
PACKAGE = REPO / "src" / "repro"
ALLOW = REPO / "tools" / "reach_allow.txt"
#: frames in these files are not callers: the tests, and the census
NOT_CALLERS = (str(REPO / "tests") + os.sep, str(Path(__file__).resolve()))
#: a reason is ``<category>: <why>`` (the allow list's header says which)
CATEGORIES = ("guard", "oracle", "subprocess", "bench", "debt")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _code_lines(code) -> set:
    return {line for _, _, line in code.co_lines() if line is not None}


def _is_function(code) -> bool:
    return bool(code.co_flags & 0x1)  # CO_OPTIMIZED: a function body


def executable_lines(path: Path) -> set:
    """The lines of ``path`` that some function body's code runs."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        if _is_function(code):
            lines |= _code_lines(code)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _defs_in(node):
    """The defs and classes directly inside ``node``'s scope."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            yield child
        else:
            yield from _defs_in(child)


def _first_line(node) -> int:
    """A statement's first line; a decorated def's first decorator."""
    return min([node.lineno] + [d.lineno for d in
                                getattr(node, "decorator_list", ())])


class Module:
    """One source file: each def's and class's line span and qualified
    name, its public defs, and each line's statement."""

    def __init__(self, path: Path):
        self.path = path
        self.key = path.relative_to(PACKAGE).as_posix()
        self.text = path.read_text().splitlines()
        self.spans = []  # (first line, last line, qualname)
        self.public = {}  # first line -> qualname of a public def
        tree = ast.parse("\n".join(self.text))
        self._walk(_defs_in(tree), "", True)
        self.statement = {}  # line -> first line of its statement
        stmts = [(_first_line(n), n.end_lineno) for n in ast.walk(tree)
                 if isinstance(n, (ast.stmt, ast.excepthandler))]
        for first, last in sorted(stmts, key=lambda s: s[0] - s[1]):
            for line in range(first, last + 1):
                self.statement[line] = first

    def _walk(self, defs, prefix, public):
        for node in defs:
            name = prefix + node.name
            self.spans.append((_first_line(node), node.end_lineno, name))
            public_here = public and not node.name.startswith("_")
            if isinstance(node, ast.ClassDef):
                self._walk(_defs_in(node), name + ".",
                           public_here and not prefix)
                continue
            if public_here:
                self.public[_first_line(node)] = name
            self._walk(_defs_in(node), name + ".<locals>.", False)

    def owner(self, line: int) -> str:
        """The qualname of the innermost def or class holding ``line``."""
        spans = [s for s in self.spans if s[0] <= line <= s[1]]
        return min(spans, key=lambda s: s[1] - s[0])[2] if spans \
            else "<module>"

    def source(self, line: int) -> str:
        """The first line of the statement holding ``line``, stripped."""
        return self.text[self.statement.get(line, line) - 1].strip()


def modules():
    return [Module(p) for p in sorted(PACKAGE.rglob("*.py"))]


def parse_allow(text: str):
    """``[(kind, key, source or None, reason)]`` from the allow list's
    text; raises ValueError on a malformed line."""
    entries = []
    for number, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        parts = raw.split(" | ")
        if parts[0] == "call" and len(parts) == 3:
            entry = ("call", parts[1], None, parts[2])
        elif parts[0] == "line" and len(parts) >= 4:
            entry = ("line", parts[1], " | ".join(parts[2:-1]), parts[-1])
        else:
            raise ValueError(f"line {number}: want 'call | KEY | REASON' "
                             f"or 'line | KEY | SOURCE | REASON': {raw!r}")
        category, _, why = entry[3].partition(": ")
        if category not in CATEGORIES or not why.strip() \
                or "::" not in entry[1]:
            raise ValueError(f"line {number}: want KEY 'path::qualname' "
                             f"and REASON '<{'|'.join(CATEGORIES)}>: "
                             f"<why>': {raw!r}")
        entries.append(entry)
    return entries


def missing_code(entries, mods=None):
    """The entries whose function, or statement in it, does not exist."""
    by_key = {m.key: m for m in (mods or modules())}
    missing = []
    for entry in entries:
        kind, key, source, _ = entry
        path, qualname = key.split("::", 1)
        mod = by_key.get(path)
        if mod is None:
            found = False
        elif kind == "call":
            found = qualname in mod.public.values()
        elif source == "*":
            found = any(q == qualname for _, _, q in mod.spans)
        else:
            found = any(mod.source(n) == source and mod.owner(n) == qualname
                        for n in range(1, len(mod.text) + 1))
        if not found:
            missing.append(entry)
    return missing


class Tracer:
    """Per ``src/repro`` code object: the lines not yet run (none left:
    no more line events) and whether another non-test file called it."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.prefix = str(PACKAGE) + os.sep
        #: code -> [lines not yet run, line tracer, called from outside],
        #: or None for code outside the package's function bodies
        self.codes = {}

    def _register(self, code):
        if not (code.co_filename.startswith(self.prefix)
                and _is_function(code)):
            self.codes[code] = None
            return None
        todo = _code_lines(code)

        def local(frame, event, arg):
            if event == "line":
                todo.discard(frame.f_lineno)
            return local

        entry = self.codes[code] = [todo, local, False]
        return entry

    def trace(self, frame, event, arg):
        code = frame.f_code
        entry = self.codes.get(code, False)
        if entry is False:
            entry = self._register(code)
        if entry is None:
            return None
        if not entry[2] and frame.f_back is not None:
            caller = frame.f_back.f_code.co_filename
            entry[2] = (caller != code.co_filename
                        and not caller.startswith(NOT_CALLERS))
        if not entry[0]:
            return None
        entry[0].discard(frame.f_lineno)
        return entry[1]

    def start(self):
        threading.settrace(self.trace)
        sys.settrace(self.trace)
        multiprocessing.util.register_after_fork(self, Tracer._in_child)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def hits(self):
        """Lines run per file, and each ``(file, first line)`` called
        from outside its file."""
        lines, called = {}, set()
        for code, entry in list(self.codes.items()):
            if entry is not None:
                lines.setdefault(code.co_filename, set()).update(
                    _code_lines(code) - entry[0])
                if entry[2]:
                    called.add((code.co_filename, code.co_firstlineno))
        return lines, called

    # a forked child traces its main thread only (its queue feeders run
    # no package code) and dumps its own hits at exit or termination
    def _in_child(self):
        self.codes = {}
        threading.settrace(None)
        multiprocessing.util.Finalize(None, self._dump, exitpriority=0)
        signal.signal(signal.SIGTERM, self._on_sigterm)

    def _on_sigterm(self, signum, frame):
        self._dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    def _dump(self):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # finish writing
        sys.settrace(None)
        if self.dump_dir is None:
            return  # dumped already
        lines, called = self.hits()
        fd, path = tempfile.mkstemp(dir=self.dump_dir)
        with os.fdopen(fd, "w") as out:
            json.dump({"lines": {f: sorted(v) for f, v in lines.items()},
                       "called": sorted(called)}, out)
        os.replace(path, path + ".json")
        self.dump_dir = None

    def merged(self):
        """The parent's hits with every child's dump folded in."""
        lines, called = self.hits()
        for dump in Path(self.dump_dir).glob("*.json"):
            data = json.loads(dump.read_text())
            for filename, ran in data["lines"].items():
                lines.setdefault(filename, set()).update(ran)
            called.update(tuple(c) for c in data["called"])
        return lines, called


def _run_main(path: Path, *argv) -> int:
    """Run ``path`` as ``__main__``, its stdout swallowed; its exit code."""
    saved, sys.argv = sys.argv, [str(path), *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) \
            else int(exc.code is not None)
    finally:
        sys.argv = saved


class _PaperStore:
    """pytest plugin: the paper suite reads ``store``, not the repo's."""

    def __init__(self, store: Path):
        self.store = store

    def pytest_plugin_registered(self, plugin, manager):
        if getattr(plugin, "__file__", None) == str(
                REPO / "benchmarks" / "conftest.py"):
            plugin.STORE = self.store


def run_everything(store: Path):
    """Everything the census traces; returns each part's exit code."""
    import pytest
    from hypothesis import settings

    # the same examples every run, and no deadline for the tracer to
    # break, so fuzzed lines do not come and go
    settings.register_profile("reach", derandomize=True, database=None,
                              deadline=None)
    codes = {"campaign": _run_main(REPO / "tools" / "campaign.py",
                                   str(REPO / "campaigns" / "paper.json"),
                                   "--store", str(store))}
    codes["pytest"] = int(pytest.main(
        ["-q", "-p", "no:cacheprovider", "--hypothesis-profile=reach",
         str(REPO / "tests"),
         str(REPO / "benchmarks")], plugins=[_PaperStore(store)]))
    for example in sorted((REPO / "examples").glob("*.py")):
        codes[f"examples/{example.name}"] = _run_main(example)
    return codes


def census(lines_run, called, mods, allow):
    """What ran, against the source and the allow list: the REACH
    document."""
    exported = set(importlib.import_module("repro.api").__all__)
    gaps, files = {}, {}  # (kind, key, source) -> first line
    for mod in mods:
        filename = str(mod.path)
        executable = executable_lines(mod.path)
        unreached = executable - lines_run.get(filename, set())
        files[mod.key] = {"executable": len(executable),
                          "unreached": sorted(unreached)}
        owned = {}  # qualname -> its executable lines
        for line in executable:
            owned.setdefault(mod.owner(line), set()).add(line)
        dead = {q for q, lines in owned.items() if lines <= unreached}
        for qualname in dead:  # one gap per function that never ran
            if not any(qualname.startswith(d + ".<locals>.") for d in dead):
                gaps[("line", f"{mod.key}::{qualname}", "*")] = None
        for line in sorted(unreached):
            if mod.owner(line) not in dead:
                gaps.setdefault(("line", f"{mod.key}::{mod.owner(line)}",
                                 mod.source(line)), line)
        calls = {first for f, first in called if f == filename}
        uncalled = set(mod.public.values()) - exported - dead - {
            q for first, q in mod.public.items() if first in calls}
        for qualname in uncalled:
            gaps[("call", f"{mod.key}::{qualname}", None)] = None

    allowed = {entry[:3]: entry[3] for entry in allow}
    by_category, unlisted = {}, []
    for gap, line in sorted(gaps.items(), key=lambda g: g[0][:2]):
        if gap in allowed:
            category = allowed[gap].split(":", 1)[0]
            by_category[category] = by_category.get(category, 0) + 1
        else:
            unlisted.append(" | ".join(filter(None, gap))
                            + (f"  (line {line})" if line else ""))
    gone = {entry[:3] for entry in missing_code(allow, mods)}
    stale = [" | ".join(filter(None, entry[:3]))
             + (" (no such code)" if entry[:3] in gone else " (now reached)")
             for entry in allow if entry[:3] not in gaps]
    return {
        "lines": {"executable": sum(f["executable"] for f in files.values()),
                  "unreached": sum(len(f["unreached"])
                                   for f in files.values())},
        "gaps": {"total": len(gaps), "allowed_by_category": by_category,
                 "allow_entries": len(allow)},
        "unlisted": unlisted,
        "stale": stale,
        "files": files,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="REACH.json", metavar="PATH",
                        help="where to write the census (default "
                             "REACH.json)")
    args = parser.parse_args(argv)
    allow = parse_allow(ALLOW.read_text())
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        tracer = Tracer(work)
        faulthandler.dump_traceback_later(HANG_S, exit=True)
        tracer.start()
        try:
            codes = run_everything(Path(work) / "store")
        finally:
            tracer.stop()
            faulthandler.cancel_dump_traceback_later()
        lines_run, called = tracer.merged()
    report = census(lines_run, called, modules(), allow)
    report["exit_codes"] = codes
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"reach: {report['lines']['unreached']} of "
          f"{report['lines']['executable']} executable lines unreached; "
          f"{report['gaps']['total']} gaps, {len(allow)} allow entries "
          f"{report['gaps']['allowed_by_category']}; wrote {args.out}")
    for title in ("unlisted", "stale"):
        if report[title]:
            print(f"{title} ({len(report[title])}):")
            print("\n".join(f"  {row}" for row in report[title]))
    return 1 if report["unlisted"] or report["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
