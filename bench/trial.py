"""One trial of one workload, in a fresh interpreter.

``run.py`` starts this file once per trial so that every trial pays the
whole set-up a user pays (interpreter start, imports, topology build,
warm-up) and runs on a heap no earlier trial has touched.  It prints
one JSON object — raw samples, simulated counters, checks — as the
last line of its standard output; ``run.py`` turns the trials of a run
into metrics.

Not meant to be started by hand, but nothing stops you::

    PYTHONPATH=src python bench/trial.py chain_hidden --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import resource
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def monotonic() -> float:
    """The system-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _Cell:
    """A small object the reference loop calls into."""

    __slots__ = ("count", "total", "table")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.table: Dict[int, float] = {}

    def bump(self, when: float, index: int) -> int:
        self.count += 1
        self.total += when
        self.table[index & 63] = when
        return (index * 7) % 13


_CELLS = [_Cell() for _ in range(16)]


def host_reference(rounds: int = 12000) -> float:
    """Seconds this host takes for a fixed piece of pure-Python work.

    A heap of floats, method calls, attribute and dict stores: the same
    kind of work as the simulator, but none of its code, so a change to
    the program cannot move it.  It allocates no container, so it never
    starts a garbage collection of the program's heap.  ``run.py``
    divides every CPU-bound timing by the reference times taken just
    before and after it, which cancels the host's speed swings.
    """
    cells = _CELLS
    heap = [0.001 * i for i in range(64)]
    scratch: Dict[int, int] = {}
    heappop, heappush = heapq.heappop, heapq.heappush
    start = time.perf_counter()
    for i in range(rounds):
        when = heappop(heap)
        step = cells[i & 15].bump(when, i)
        scratch[i & 1023] = step
        heappush(heap, when + 0.001 * (step + 1))
    return time.perf_counter() - start


class Trial:
    """What a workload records while it runs."""

    def __init__(self, seed: int, quick: bool, extras: bool, tracer):
        self.seed = seed
        self.quick = quick
        #: also take the measurements that only the per-layer table uses
        self.extras = extras
        self.tracer = tracer
        self.ready_at: Optional[float] = None
        #: CPU clock at the start and the end of the timed region, and
        #: the part of it that went into reference loops
        self._cpu0 = self._cpu_end = self._cpu_reference = 0.0
        #: timed slices of the throughput phase:
        #: [units of work, wall s, reference s before, reference s after]
        self.slices: List[List[float]] = []
        #: operations of the latency phase: [wall ms, reference s before,
        #: reference s after]; references are 0 for a wall-paced operation
        self.latencies: List[List[float]] = []
        self._reference = 0.0
        self.begin_reference = 0.0
        #: simulated outcome; identical for every trial of a seed
        self.counters: Dict[str, object] = {}
        self.checks: List[Dict] = []
        self.attempted = 0
        self.failed = 0
        #: per-layer numbers measured by the workload itself
        self.layer: Dict[str, float] = {}
        self._inputs = hashlib.sha256()
        #: what the tracer held when the timed region ended
        self.traced: Optional[Dict] = None
        self._registry = None
        self._registry_base: Dict[str, float] = {}

    # -- inputs and set-up ---------------------------------------------

    def inputs(self, value) -> None:
        """Fold generated inputs into the digest two seeds must differ in."""
        self._inputs.update(repr(value).encode())

    def network(self, net):
        """Register a built network: trace its upcall slots, find its
        metrics registry."""
        if self.tracer is not None:
            self.tracer.instrument_network(net)
        self._registry = getattr(net.sim, "metrics", None)
        return net

    def rebase(self) -> None:
        """Count the registry's counters from now."""
        self._registry_base = self._registry_totals()

    def begin(self) -> None:
        """Set-up is over; the timed region starts now."""
        self.rebase()
        if self.tracer is not None:
            self.tracer.reset()
        self.ready_at = monotonic()
        self._reference = sorted(host_reference() for _ in range(3))[1]
        self.begin_reference = self._reference
        self._cpu0 = self._cpu_end = time.process_time()

    # -- the timed region ----------------------------------------------

    def timed(self, work: float, fn: Callable, *args):
        """Run ``fn(*args)`` as one slice worth ``work`` units."""
        start = time.perf_counter()
        result = fn(*args)
        self.slice(work, time.perf_counter() - start)
        return result

    def _references(self) -> List[float]:
        """The reference time taken before the sample that just ended,
        and one taken now."""
        self._cpu_end = time.process_time()
        before, self._reference = self._reference, host_reference()
        self._cpu_reference += self._reference
        return [before, self._reference]

    def slice(self, work: float, wall: float) -> None:
        """Record a slice that just ended, and the host's speed now."""
        self.slices.append([work, wall] + self._references())

    def latency(self, wall_ms: float) -> None:
        """Record a CPU-bound operation of the latency phase that just
        ended."""
        self.latencies.append([wall_ms] + self._references())

    def end(self) -> None:
        """The timed region is over: what the workload runs from now on
        (a cool-down that lets work in flight land) is not traced."""
        if self.tracer is not None and self.traced is None:
            self.traced = self.tracer.snapshot()

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def operations(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    # -- counters from the program's own registry ------------------------

    def _registry_totals(self) -> Dict[str, float]:
        """Counters of the attached MetricsRegistry summed over labels."""
        if self._registry is None:
            return {}
        totals: Dict[str, float] = {}
        for key, value in self._registry.snapshot()["counters"].items():
            name = key.split("{", 1)[0]
            totals[name] = totals.get(name, 0) + value
        return totals

    def registry_delta(self) -> Dict[str, float]:
        """Registry counters accumulated since :meth:`rebase`."""
        now = self._registry_totals()
        return {name: value - self._registry_base.get(name, 0)
                for name, value in now.items()}

    # -- result ----------------------------------------------------------

    def document(self, spawned_at: Optional[float]) -> Dict:
        # wall-paced and CPU-bound alike: all of it is timed work
        measured = (sum(s[1] for s in self.slices)
                    + sum(s[0] for s in self.latencies) / 1000.0)
        failed_checks = [c for c in self.checks if not c["ok"]]
        # a failed check fails the trial it belongs to
        self.operations(1, 1 if failed_checks else 0)
        fingerprint = hashlib.sha256(json.dumps(
            self.counters, sort_keys=True).encode()).hexdigest()
        return {
            "setup_s": (None if spawned_at is None or self.ready_at is None
                        else self.ready_at - spawned_at),
            "measured_s": measured,
            "cpu_s": (self._cpu_end - self._cpu0
                      - (self._cpu_reference - self._reference)),
            "slices": self.slices,
            "latencies": self.latencies,
            "begin_reference_s": self.begin_reference,
            "counters": self.counters,
            "sim_fingerprint": fingerprint,
            "inputs_digest": self._inputs.hexdigest(),
            "checks": self.checks,
            "attempted": self.attempted,
            "failed": self.failed,
            "layer": self.layer,
            "peak_rss_kb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--extras", action="store_true")
    parser.add_argument("--trace-out", default=None,
                        help="trace this trial and write the spans here")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="CLOCK_MONOTONIC when the parent started us")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace_out is not None:
        import spans
        from repro.sim import metrics

        tracer = spans.Tracer().install()
        spans.ACTIVE = tracer
        # the traced trial also reads the program's own counters
        metrics.auto_attach(True)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    trial = Trial(args.seed, args.quick, args.extras, tracer)
    workloads.WORKLOADS[args.workload](trial)
    document = trial.document(args.spawned_at)
    if tracer is not None:
        trial.end()
        trace = trial.traced
        document["layers"] = trace["layers"]
        document["scheduled"] = trace.pop("scheduled")
        document["entry_calls"] = {
            name: row["calls"] for name, row in trace["entry_points"].items()}
        trace["workload"] = args.workload
        trace["seed"] = args.seed
        with open(args.trace_out, "w") as fh:
            json.dump(trace, fh)
            fh.write("\n")
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
