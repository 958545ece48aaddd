"""The execution census's allow list, without running the census.

``tools/reach.py`` traces tier-1, the paper campaign and suite, and the
examples, which takes several times tier-1's wall, so CI runs it
nightly.  Here: every entry of ``tools/reach_allow.txt`` parses and
names code that exists, a ``debt`` entry names only the live tier,
and the verdict logic flags an unlisted gap and a stale entry on
hand-made hits.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import reach  # noqa: E402


def test_allow_list_parses_and_names_existing_code():
    entries = reach.parse_allow(reach.ALLOW.read_text())
    assert entries
    assert not reach.missing_code(entries), "entries naming no code"


#: the live tier (ROADMAP item 5 deletes it whole): the only code a
#: ``debt`` entry may name
LIVE_TIER = ("gateway/", "faults/process.py", "sim/engine.py::RealtimePacer",
             "verify/postrun.py::check_gateway_quiescent")


def test_debt_names_only_the_live_tier():
    outside = [key for _kind, key, _source, reason
               in reach.parse_allow(reach.ALLOW.read_text())
               if reason.startswith("debt:") and not key.startswith(LIVE_TIER)]
    assert not outside, (
        "debt outside the live tier: write a test or delete the code: "
        f"{outside}")


@pytest.mark.parametrize("line", [
    "call | sim/timers.py::Timer.start",  # no reason
    "call | sim/timers.py::Timer.start | because",  # no category
    "line | sim/timers.py::Timer.start | guard: why",  # no source text
    "call | Timer.start | guard: no path",
])
def test_malformed_entries_are_refused(line):
    with pytest.raises(ValueError):
        reach.parse_allow(line)


def test_source_text_may_hold_the_separator():
    [(kind, key, source, reason)] = reach.parse_allow(
        "line | a.py::f | x = a | b | guard: why")
    assert (kind, key, source, reason) == ("line", "a.py::f", "x = a | b",
                                           "guard: why")


def test_verdict_flags_unlisted_gaps_and_stale_entries():
    mod = reach.Module(reach.PACKAGE / "sim" / "timers.py")
    filename = str(mod.path)
    everything = {filename: reach.executable_lines(mod.path)}
    called = {(filename, first) for first in mod.public}
    report = reach.census(everything, called, [mod], [])
    assert report["unlisted"] == [] and report["stale"] == []

    stop = next(f for f, q in mod.public.items() if q == "Timer.stop")
    report = reach.census(everything, called - {(filename, stop)}, [mod],
                          [])
    assert report["unlisted"] == ["call | sim/timers.py::Timer.stop"]

    stop_lines = {n for n in everything[filename]
                  if mod.owner(n) == "Timer.stop"}
    report = reach.census({filename: everything[filename] - stop_lines},
                          called - {(filename, stop)}, [mod], [])
    assert report["unlisted"] == ["line | sim/timers.py::Timer.stop | *"]

    allow = reach.parse_allow(
        "call | sim/timers.py::Timer.stop | oracle: a test reads it\n"
        "call | sim/timers.py::Timer.gone | oracle: deleted since\n")
    report = reach.census(everything, called, [mod], allow)
    assert report["stale"] == [
        "call | sim/timers.py::Timer.stop (now reached)",
        "call | sim/timers.py::Timer.gone (no such code)"]
