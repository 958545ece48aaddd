"""Simulator-scoped metrics: labelled counters, gauges and histograms.

This is the quantitative half of the observability layer (the
qualitative half — typed event records — lives in
:class:`repro.sim.trace.TraceBus`).  Design rules:

* **Simulator-scoped, never process-wide.**  A :class:`MetricsRegistry`
  belongs to one :class:`~repro.sim.engine.Simulator`; two simulations
  in one process (e.g. a campaign's in-process runs) never share
  state.  The only module-level state is the opt-in *auto-attach* flag
  that tells freshly constructed simulators to carry a registry.
* **Count each event once.**  A layer counts its events in its
  :class:`~repro.sim.trace.TraceRecorder` ``Counter``, which is always
  on.  The registry reads the ``Counter`` at snapshot time through
  :data:`COUNTER_FAMILIES`, the one table of counter names, so no hot
  path carries a registry handle.  Gauges and histograms are still
  pushed, through instruments a layer resolves once, or pulled by
  collectors.
* **Deterministic snapshots.**  A snapshot is a pure function of
  simulated behaviour: keys are canonically ordered, values derive
  only from simulated time and counts, and no wall-clock quantity is
  ever recorded.  Two identical seeded runs therefore produce
  byte-identical JSON — the property ``benchmarks/perf/test_goldens.py``
  turns into a whole-stack behavioural regression gate.

Label conventions follow the paper's evaluation: every per-node
instrument carries ``node=<id>``, and multi-cause counters split by
``kind`` (e.g. ``tcp.retransmits{kind=rto|fast|sack}``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: default histogram bucket upper bounds (seconds) — tuned for the
#: latency scales of this simulator: sub-millisecond MAC turnarounds up
#: to multi-second RTO backoffs.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


#: The node-labelled counter families the registry reads from a
#: layer's ``Counter`` at snapshot time: table -> {family: Counter key}.
#: A table is what one registration exports (``node``: the MAC, 6LoWPAN
#: and IPv6 layers, which share the node's recorder; ``poll``: a sleepy
#: end device; ``tcp``: a TCP stack), so a family appears exactly when
#: its layer is built.  A family may carry a ``kind`` label.
COUNTER_FAMILIES: Dict[str, Dict[str, str]] = {
    "node": {
        "mac.frames_tx": "mac.frames_tx",
        "mac.csma_backoffs": "mac.csma_backoffs",
        "mac.csma_failures": "mac.csma_failures",
        "mac.link_retries": "mac.link_retries",
        "mac.ack_timeouts": "mac.ack_timeouts",
        "mac.tx_failures": "mac.tx_failures",
        "mac.tail_drops": "mac.tail_drops",
        "lowpan.datagrams_sent": "lowpan.datagrams_sent",
        "lowpan.fragments_sent": "lowpan.fragments_sent",
        "lowpan.fragments_forwarded": "lowpan.fragments_forwarded",
        "lowpan.no_route": "lowpan.no_route",
        "lowpan.hop_limit_exceeded": "lowpan.hop_limit_exceeded",
        "lowpan.reassembled": "lowpan.reassembled",
        "lowpan.reassembly_timeouts": "lowpan.reassembly_timeouts",
        "lowpan.duplicate_fragments": "lowpan.duplicate_fragments",
        "lowpan.reassembly_overflow": "lowpan.reassembly_overflow",
        "net.forwards": "ipv6.forwards",
        "net.delivered": "ipv6.delivered",
        "net.queue_drops": "ipv6.queue_drops",
        "net.ecn_marks": "ipv6.ecn_marks",
        "net.no_route": "ipv6.no_route",
    },
    "poll": {
        "mac.polls_sent": "mac.polls_sent",
        "mac.poll_timeouts": "mac.poll_timeouts",
    },
    "tcp": {
        "tcp.segs_sent": "tcp.segs_sent",
        "tcp.segs_rcvd": "tcp.segs_rcvd",
        "tcp.retransmits{kind=rto}": "tcp.retransmits.rto",
        "tcp.retransmits{kind=fast}": "tcp.retransmits.fast",
        "tcp.retransmits{kind=sack}": "tcp.retransmits.sack",
        "tcp.dupacks": "tcp.dupacks",
        "tcp.rto_events": "tcp.rto_events",
        "tcp.zero_window_probes": "tcp.zero_window_probes",
        "tcp.sack_blocks_sent": "tcp.sack_blocks_sent",
    },
}


def _label_items(labels: Dict[str, object]) -> LabelItems:
    """Canonical (sorted, stringified) form of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _metric_key(name: str, labels: LabelItems) -> str:
    """Render ``name{k=v,...}`` with labels in canonical order."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class _CounterMetric:
    """A monotonically increasing count for one (name, labels) pair."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class _GaugeMetric:
    """A point-in-time value for one (name, labels) pair."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class _HistogramMetric:
    """Fixed-bucket histogram (cumulative-style export, like Prometheus).

    ``bounds`` are upper bucket edges; an implicit +Inf bucket catches
    the overflow.  ``observe`` is a bisect plus two adds, cheap enough
    for per-frame latencies.
    """

    __slots__ = ("bounds", "bucket_counts", "total", "count")

    def __init__(self, bounds: Sequence[float]):
        ordered = tuple(sorted(bounds))
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)  # last = +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left makes upper edges inclusive (Prometheus `le`)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def _export(self) -> Dict[str, object]:
        """JSON-ready form; bucket keys are the stringified bounds."""
        buckets = {str(b): c for b, c in zip(self.bounds, self.bucket_counts)}
        buckets["+inf"] = self.bucket_counts[-1]
        return {"buckets": buckets, "sum": self.total, "count": self.count}


class MetricsRegistry:
    """All instruments of one simulation.

    ``counter``/``gauge``/``histogram`` create on first use and return
    the same instrument object for the same (name, labels) pair, so
    layers resolve instruments once at construction and hot paths touch
    only the instrument itself.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelItems], object] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        #: (table, node) -> (the Counters read, ((counter, key), ...))
        self._pulled: Dict[Tuple[str, int], Tuple[list, list]] = {}

    # ------------------------------------------------------------------
    # instrument accessors
    # ------------------------------------------------------------------
    def _get(self, name: str, labels: Dict[str, object], factory, kind):
        key = (name, _label_items(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"{_metric_key(*key)} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels) -> _CounterMetric:
        """The counter for ``name`` with this exact label set."""
        return self._get(name, labels, _CounterMetric, _CounterMetric)

    def gauge(self, name: str, **labels) -> _GaugeMetric:
        """The gauge for ``name`` with this exact label set."""
        return self._get(name, labels, _GaugeMetric, _GaugeMetric)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels,
    ) -> _HistogramMetric:
        """The histogram for ``name`` with this exact label set.

        ``buckets`` applies on first creation only (subsequent calls
        return the existing instrument unchanged).
        """
        bounds = DEFAULT_TIME_BUCKETS if buckets is None else buckets
        return self._get(
            name, labels, lambda: _HistogramMetric(bounds), _HistogramMetric
        )

    def register_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run at snapshot time.

        Collectors pull state that would be wasteful to push per event
        (energy ledgers, duty cycles, queue depths) into gauges.  They
        must derive values only from simulated state, never wall clock.
        """
        self._collectors.append(fn)

    def pull_counters(self, table: str, node_id: int, counts) -> None:
        """Read ``COUNTER_FAMILIES[table]`` from ``counts``, a layer's
        ``Counter``, into ``node=node_id`` counters at snapshot time.

        The counters exist from this call on.  Counters registered under
        one (table, node), such as two TCP stacks', are summed.
        """
        entry = self._pulled.get((table, node_id))
        if entry is None:
            handles = []
            for family, key in COUNTER_FAMILIES[table].items():
                name, _, kind = family.rstrip("}").partition("{kind=")
                labels = {"kind": kind} if kind else {}
                handles.append((self.counter(name, node=node_id, **labels),
                                key))
            self._pulled[(table, node_id)] = ([counts], handles)
        elif all(c is not counts for c in entry[0]):
            entry[0].append(counts)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic, JSON-ready dump of every instrument."""
        for sources, handles in self._pulled.values():
            for counter, key in handles:
                counter.value = sum(c.get(key) for c in sources)
        for collector in self._collectors:
            collector(self)
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, object] = {}
        for (name, labels), instrument in sorted(self._instruments.items()):
            key = _metric_key(name, labels)
            if isinstance(instrument, _CounterMetric):
                counters[key] = instrument.value
            elif isinstance(instrument, _GaugeMetric):
                gauges[key] = instrument.value
            else:
                histograms[key] = instrument._export()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


def diff_snapshots(golden: Dict, current: Dict) -> List[str]:
    """Human-readable differences between two snapshots (empty = equal).

    Used by the CI metrics gate: *any* difference means simulated
    behaviour drifted somewhere in the stack.
    """
    diffs: List[str] = []
    sections = sorted(set(golden) | set(current))
    for section in sections:
        g = golden.get(section, {})
        c = current.get(section, {})
        for key in sorted(set(g) | set(c)):
            if key not in g:
                diffs.append(f"{section}: {key} appeared "
                             f"(now {c[key]!r})")
            elif key not in c:
                diffs.append(f"{section}: {key} disappeared "
                             f"(was {g[key]!r})")
            elif g[key] != c[key]:
                diffs.append(f"{section}: {key} changed: "
                             f"{g[key]!r} -> {c[key]!r}")
    return diffs


# ----------------------------------------------------------------------
# auto-attach: opt-in observability for simulators built out of reach
# ----------------------------------------------------------------------
# Scenario and experiment builders construct their Simulator internally,
# so callers like ``benchmarks/perf/test_goldens.py`` cannot hand one a
# registry.  auto_attach() flips a flag that makes every subsequently
# constructed Simulator carry its *own* fresh registry (still
# simulator-scoped — nothing is shared), and drain_attached() hands the
# caller everything created since the last drain, in creation order.

_auto_enabled = False
_auto_capture_trace = False
_auto_trace_capacity: Optional[int] = None
_attached: List[Tuple[MetricsRegistry, object]] = []


def auto_attach(
    enable: bool = True,
    capture_trace: bool = False,
    trace_capacity: Optional[int] = 4096,
) -> None:
    """Toggle per-Simulator observability for code that builds its own sims.

    While enabled, each new Simulator gets a private MetricsRegistry
    (and, with ``capture_trace``, a TraceBus ring buffer of
    ``trace_capacity`` events; ``None`` means unbounded capture).
    """
    global _auto_enabled, _auto_capture_trace, _auto_trace_capacity
    _auto_enabled = enable
    _auto_capture_trace = capture_trace
    _auto_trace_capacity = trace_capacity
    if not enable:
        _attached.clear()


def attach(sim) -> Tuple[Optional[MetricsRegistry], Optional[object]]:
    """Called by Simulator.__init__; returns (metrics, trace_bus)."""
    if not _auto_enabled:
        return None, None
    from repro.sim.trace import TraceBus

    registry = MetricsRegistry()
    bus = TraceBus(sim, capacity=_auto_trace_capacity) if _auto_capture_trace else None
    _attached.append((registry, bus))
    return registry, bus


def drain_attached() -> List[Tuple[MetricsRegistry, object]]:
    """Registries (and buses) auto-attached since the last drain."""
    drained = list(_attached)
    _attached.clear()
    return drained
