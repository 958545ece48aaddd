"""Traffic generators and measurement glue for the experiments.

:class:`BulkTransfer` drives a TCP connection at saturation (an
iperf-style workload — the §6/§7 throughput experiments), measuring
goodput at the receiver.  :class:`GoodputMeter` can wrap any byte sink.

:class:`FlowSet` scales that up: it launches, staggers, and meters N
concurrent saturating bulk transfers
over one network on its per-node TCP stacks, and reports per-flow
and aggregate goodput plus Jain's fairness index.  It is the workload
engine behind the ``dense_mesh`` benchmark scenario and every
many-flow experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence

from repro.core.params import TcpParams
from repro.core.socket_api import TcpStack


class GoodputMeter:
    """Counts delivered bytes between start() and now."""

    def __init__(self, sim):
        self.sim = sim
        self.bytes = 0
        self._start: Optional[float] = None
        self.first_byte_at: Optional[float] = None

    def start(self) -> None:
        """Begin (or restart) the measurement window."""
        self._start = self.sim.now
        self.bytes = 0

    def on_data(self, data: bytes) -> None:
        """Byte-sink callback."""
        if self.first_byte_at is None:
            self.first_byte_at = self.sim.now
        if self._start is not None:
            self.bytes += len(data)

    def goodput_bps(self) -> float:
        """Delivered application bits per second over the window."""
        if self._start is None:
            return 0.0
        elapsed = self.sim.now - self._start
        return self.bytes * 8.0 / elapsed if elapsed > 0 else 0.0


@dataclass
class BulkResult:
    """Outcome of one bulk transfer measurement."""

    goodput_bps: float
    bytes_delivered: int
    duration: float
    segs_sent: int = 0
    retransmits: int = 0
    rto_events: int = 0
    fast_retransmits: int = 0
    segment_loss: float = 0.0
    rtt_samples: List[float] = field(default_factory=list)

    @property
    def goodput_kbps(self) -> float:
        """kb/s, the paper's unit."""
        return self.goodput_bps / 1000.0

    @property
    def rtt_mean(self) -> float:
        """Mean RTT sample in seconds (0.0 without samples)."""
        rtts = self.rtt_samples
        return sum(rtts) / len(rtts) if rtts else 0.0


@lru_cache(maxsize=None)
def _bulk_chunk(payload_byte: bytes) -> bytes:
    """The one immutable refill chunk every bulk flow of ``payload_byte``
    shares: a thousand flows hold one kilobyte, not a megabyte."""
    return payload_byte * BulkTransfer.CHUNK


class BulkTransfer:
    """Saturating one-way TCP transfer between two stacks.

    The sender's ``on_send_space`` hook refills the send buffer whenever
    space opens, so the connection is always window-limited — exactly
    the regime of the paper's throughput studies.
    """

    CHUNK = 1024

    def __init__(
        self,
        sim,
        sender_stack: TcpStack,
        receiver_stack: TcpStack,
        receiver_id: int,
        port: int = 8000,
        params: Optional[TcpParams] = None,
        receiver_params: Optional[TcpParams] = None,
        dst_is_cloud: bool = False,
        payload_byte: bytes = b"a",
    ):
        self.sim = sim
        self.meter = GoodputMeter(sim)
        self.connected = False
        self._conn = None
        self._closed = False
        self.errors: List[str] = []
        self._payload = _bulk_chunk(payload_byte)

        receiver_stack.listen(port, self._on_accept, params=receiver_params)
        self._conn = sender_stack.connect(
            receiver_id, port, params=params, dst_is_cloud=dst_is_cloud
        )
        self._conn.on_connect = self._on_connect
        self._conn.on_send_space = self._fill
        self._conn.on_error = self._on_error

    @property
    def connection(self):
        """The sender-side socket (for cwnd traces etc.)."""
        return self._conn

    def _on_accept(self, conn) -> None:
        conn.on_data = self.meter.on_data

    def _on_error(self, err) -> None:
        self.errors.append(err)

    def _on_connect(self) -> None:
        self.connected = True
        self._fill()

    def _fill(self) -> None:
        if self._closed:
            return
        while self._conn.send_buf.free > 0 and self._conn.is_open:
            self._conn.send(self._payload[: self._conn.send_buf.free])

    def measure(self, warmup: float, duration: float) -> BulkResult:
        """Run the simulation for warmup + duration; return metrics."""
        self.sim.run(until=self.sim.now + warmup)
        self.meter.start()
        base = dict(self._conn.trace.counters.as_dict())
        rtt_series = self._conn.trace.series("tcp.rtt")
        rtt_before = len(rtt_series)
        self.sim.run(until=self.sim.now + duration)
        counters = self._conn.trace.counters
        segs = counters.get("tcp.data_segs_sent") - base.get("tcp.data_segs_sent", 0)
        retx = counters.get("tcp.retransmits") - base.get("tcp.retransmits", 0)
        rtos = counters.get("tcp.rto_events") - base.get("tcp.rto_events", 0)
        frs = counters.get("tcp.fast_retransmits") - base.get(
            "tcp.fast_retransmits", 0
        )
        loss = retx / segs if segs > 0 else 0.0
        return BulkResult(
            goodput_bps=self.meter.goodput_bps(),
            bytes_delivered=self.meter.bytes,
            duration=duration,
            segs_sent=segs,
            retransmits=retx,
            rto_events=rtos,
            fast_retransmits=frs,
            segment_loss=loss,
            rtt_samples=list(rtt_series.values[rtt_before:]),
        )


@dataclass
class FlowSpec:
    """One flow of a :class:`FlowSet`.

    Each flow is a saturating :class:`BulkTransfer`.  ``start``
    staggers the flow's launch (both
    the listener and the active open happen then).  ``port`` defaults
    to ``base_port + index`` so flows sharing a receiver never collide.
    """

    src: int
    dst: int
    start: float = 0.0
    port: Optional[int] = None
    params: Optional[TcpParams] = None
    receiver_params: Optional[TcpParams] = None
    dst_is_cloud: bool = False


@dataclass
class FlowResult:
    """Measured outcome of one flow."""

    index: int
    src: int
    dst: int
    port: int
    goodput_bps: float
    bytes_delivered: int
    connected: bool
    errors: List[str] = field(default_factory=list)


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: (Σx)² / (n · Σx²), 1.0 = perfectly fair.

    Defined as 1.0 for an empty or all-zero allocation (nothing to be
    unfair about).
    """
    xs = [float(v) for v in values]
    if not xs:
        return 1.0
    square_sum = sum(x * x for x in xs)
    if square_sum == 0.0:
        return 1.0
    total = sum(xs)
    return (total * total) / (len(xs) * square_sum)


@dataclass
class FlowSetResult:
    """Aggregate outcome of a :class:`FlowSet` measurement."""

    flows: List[FlowResult]
    duration: float
    aggregate_goodput_bps: float
    fairness: float
    flows_connected: int
    bytes_delivered: int

    @property
    def aggregate_goodput_kbps(self) -> float:
        return self.aggregate_goodput_bps / 1000.0


class FlowSet:
    """Launches, staggers, and meters N concurrent flows on one network.

    One :class:`~repro.core.socket_api.TcpStack` is built per
    participating node and shared by every flow that node carries
    (multiple flows demultiplex by port, exactly as on real hardware).
    Flows launch at their ``spec.start`` times; goodput is metered
    per-flow from the measurement window's start regardless of launch
    order, so late flows simply contribute zero until they begin.

    Typical use::

        net = build_grid_mesh(10, 10)
        flows = FlowSet(net, [FlowSpec(src=99, dst=0), ...])
        result = flows.measure(warmup=8.0, duration=30.0)
        result.aggregate_goodput_kbps, result.fairness
    """

    def __init__(
        self,
        net,
        specs: Sequence[FlowSpec],
        base_port: int = 9000,
        params: Optional[TcpParams] = None,
        receiver_params: Optional[TcpParams] = None,
    ):
        self.net = net
        self.sim = net.sim
        self.specs = list(specs)
        self.params = params
        self.receiver_params = receiver_params
        self.drivers: List[Optional[object]] = [None] * len(self.specs)
        self.ports: List[int] = []
        self._measuring = False
        for index, spec in enumerate(self.specs):
            if spec.src == spec.dst:
                raise ValueError(f"flow {index}: src == dst == {spec.src}")
            if spec.src not in net.nodes or spec.dst not in net.nodes:
                raise ValueError(
                    f"flow {index}: unknown node in {spec.src}->{spec.dst}"
                )
            port = spec.port if spec.port is not None else base_port + index
            self.ports.append(port)
            if spec.start > 0:
                self.sim.schedule(spec.start, self._launch, index)
            else:
                self._launch(index)

    def _launch(self, index: int) -> None:
        spec = self.specs[index]
        sender = self.net.tcp_stack(spec.src)
        receiver = self.net.tcp_stack(spec.dst)
        driver = BulkTransfer(
            self.sim, sender, receiver, receiver_id=spec.dst,
            port=self.ports[index],
            params=spec.params or self.params,
            receiver_params=(spec.receiver_params or self.receiver_params
                             or spec.params or self.params),
            dst_is_cloud=spec.dst_is_cloud,
        )
        self.drivers[index] = driver
        if self._measuring:
            driver.meter.start()

    def start_metering(self) -> None:
        """Open the measurement window on every flow (launched or not).

        Flows that launch later start metering at launch, so each
        flow's byte count covers exactly the shared window.
        """
        self._measuring = True
        for driver in self.drivers:
            if driver is not None:
                driver.meter.start()

    def results(self, duration: float) -> FlowSetResult:
        """Collect per-flow and aggregate stats for a closed window."""
        flows: List[FlowResult] = []
        for index, spec in enumerate(self.specs):
            driver = self.drivers[index]
            if driver is None:  # never launched (start beyond the run)
                flows.append(FlowResult(
                    index=index, src=spec.src, dst=spec.dst,
                    port=self.ports[index],
                    goodput_bps=0.0, bytes_delivered=0, connected=False,
                ))
                continue
            flows.append(FlowResult(
                index=index, src=spec.src, dst=spec.dst,
                port=self.ports[index],
                goodput_bps=driver.meter.bytes * 8.0 / duration
                if duration > 0 else 0.0,
                bytes_delivered=driver.meter.bytes,
                connected=driver.connected,
                errors=list(driver.errors),
            ))
        goodputs = [f.goodput_bps for f in flows]
        return FlowSetResult(
            flows=flows,
            duration=duration,
            aggregate_goodput_bps=sum(goodputs),
            fairness=jain_fairness(goodputs),
            flows_connected=sum(1 for f in flows if f.connected),
            bytes_delivered=sum(f.bytes_delivered for f in flows),
        )

    def measure(self, warmup: float, duration: float) -> FlowSetResult:
        """Run warmup + duration sim-seconds; meter the latter window."""
        self.sim.run(until=self.sim.now + warmup)
        self.start_metering()
        self.sim.run(until=self.sim.now + duration)
        return self.results(duration)
