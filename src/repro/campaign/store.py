"""Content-addressed result store: re-running a campaign is a lookup.

Every :class:`~repro.campaign.spec.RunSpec` has a canonical JSON form;
its storage key is ``sha256(code_salt + canonical)``.  The *code
salt* is a hash of every ``repro`` source file, so editing the
simulator silently invalidates the whole cache — a cached result is
only ever returned for the exact code that produced it.  (Pass an
explicit ``salt`` to pin or namespace a store, e.g. in tests.)

Records live in one append-only *segment* per salt,
``root/<sha256(salt)[:32]>.jsonl``, one line ``<run_id>\\t<json>\\n``
each.  Opening a store scans its segment for newlines once and keeps
``run_id -> (offset, length)``; no JSON is parsed and no record body
retained until :meth:`ResultStore.load` reads that one slice.
:meth:`ResultStore.save` is a single ``write`` on an ``O_APPEND``
descriptor, so a record is in the file whole or (a writer killed
mid-write, a full disk) as a torn last line — which is a miss, and is
fenced off with a newline before anything is appended after it.  A
line that parses but is not a record (not an object whose ``ok`` is
``true`` and that has a ``result``) is a miss as well.  That makes
resume-after-interrupt free: the next run finds every completed
record and executes only the delta.  A store sees its own writes at
once and other processes' appends the next time it is opened; older
code versions' results sit in their own segment files.

Failed runs are deliberately **not** cached: a crash or timeout
should re-execute on the next attempt, not be replayed from disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.campaign.spec import RunSpec

_SALT_CACHE: Dict[str, str] = {}

#: a record line opens with the run id ``RunSpec.run_id`` makes, then a tab
_LINE_HEAD = re.compile(rb"([0-9a-f]{64})\t")


def code_salt(package_root=None) -> str:
    """sha256 over every ``repro`` source file (path + contents).

    Deterministic across processes and machines for the same
    checkout; changes whenever any ``repro`` module changes.  Cached
    per process (the tree is only a couple hundred files).
    """
    if package_root is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
    package_root = Path(package_root)
    key = str(package_root)
    cached = _SALT_CACHE.get(key)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        h.update(str(path.relative_to(package_root)).encode())
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x00")
    salt = h.hexdigest()
    _SALT_CACHE[key] = salt
    return salt


class ResultStore:
    """A directory of content-addressed run records, one segment file
    per code salt (layout and guarantees in the module docstring)."""

    def __init__(self, root, salt: Optional[str] = None):
        self._fd: Optional[int] = None  # opened on first load or save
        self.root = Path(root)
        self.salt = code_salt() if salt is None else salt
        self.root.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256(self.salt.encode()).hexdigest()[:32]
        self.segment = self.root / f"{digest}.jsonl"
        self._index: Dict[str, Tuple[int, int]] = {}  # id -> body slice
        self._torn = False  # the segment does not end in a newline
        self._scan()

    def _scan(self) -> None:
        """Index every whole line of the segment; bodies stay on disk."""
        try:
            data = self.segment.read_bytes()
        except FileNotFoundError:
            return
        index, head, find = self._index, _LINE_HEAD.match, data.find
        pos = 0
        end = find(b"\n")
        while end >= 0:
            match = head(data, pos, end)
            if match is not None:
                body = match.end()
                index[match.group(1).decode()] = (body, end - body)
            pos = end + 1
            end = find(b"\n", pos)
        self._torn = pos < len(data)

    def _descriptor(self) -> int:
        if self._fd is None:
            self._fd = os.open(self.segment,
                               os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        return self._fd

    def close(self) -> None:
        """Release the segment descriptor (reopened if used again)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    __del__ = close

    # -- addressing ----------------------------------------------------

    def key_for(self, run: RunSpec) -> str:
        return run.run_id(self.salt)

    # -- record IO -----------------------------------------------------

    def load(self, key: str) -> Optional[Dict]:
        """The stored record, or ``None`` on a miss — which a line that
        does not parse (a torn write) or is not a record is too, rather
        than an exception that poisons the campaign."""
        where = self._index.get(key)
        if where is None:
            return None
        try:
            record = json.loads(os.pread(self._descriptor(), where[1],
                                         where[0]).decode())
        except (OSError, ValueError, RecursionError):
            return None
        if isinstance(record, dict) and record.get("ok") is True \
                and "result" in record:
            return record
        return None

    def save(self, key: str, record: Dict) -> Path:
        """Append one record line with a single ``write``."""
        head = key.encode() + b"\t"
        if not _LINE_HEAD.fullmatch(head):
            raise ValueError(f"not a run id: {key!r}")
        body = json.dumps(record, sort_keys=True, default=str).encode()
        line = head + body + b"\n"
        if self._torn:
            line = b"\n" + line  # never glue a record onto a torn tail
        fd = self._descriptor()
        self._torn = True  # until the whole line is known to be out
        if os.write(fd, line) != len(line):
            raise OSError(f"short write to {self.segment}")
        self._torn = False
        # O_APPEND left the descriptor's offset just past this line
        end = os.lseek(fd, 0, os.SEEK_CUR)
        self._index[key] = (end - len(body) - 1, len(body))
        return self.segment

    def __contains__(self, run) -> bool:
        key = run if isinstance(run, str) else self.key_for(run)
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)
