"""Concurrent-client load generation against a running gateway.

The engine opens N real sockets concurrently, drives one
request/response exchange on each (send a payload, read the echo), and
reports wall-clock latency percentiles — the serving-tier shape
(accept loop + pacing + p50/p95/p99) that external evaluation scripts
build on.  ``tools/loadgen.py`` is the CLI wrapper.
"""

from __future__ import annotations

import asyncio
import time as _time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.trace import percentile


@dataclass
class LoadgenReport:
    """Latency summary of one load-generation run."""

    mode: str
    requests: int
    completed: int
    errors: int
    concurrency: int
    wall_seconds: float
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    min: float = 0.0
    max: float = 0.0
    mean: float = 0.0
    #: connections the server refused or reset before serving any data —
    #: explicit load shedding, reported separately from real errors
    shed: int = 0
    #: exchanges that completed with payload bytes that didn't match
    corrupt: int = 0
    error_detail: List[str] = field(default_factory=list)

    @classmethod
    def _from_latencies(
        cls,
        mode: str,
        latencies: List[float],
        errors: List[str],
        requests: int,
        concurrency: int,
        wall_seconds: float,
        shed: int = 0,
        corrupt: int = 0,
    ) -> "LoadgenReport":
        report = cls(
            mode=mode,
            requests=requests,
            completed=len(latencies),
            errors=len(errors),
            concurrency=concurrency,
            wall_seconds=wall_seconds,
            shed=shed,
            corrupt=corrupt,
            error_detail=sorted(set(errors))[:10],
        )
        if latencies:
            report.p50 = percentile(latencies, 50)
            report.p95 = percentile(latencies, 95)
            report.p99 = percentile(latencies, 99)
            report.min = min(latencies)
            report.max = max(latencies)
            report.mean = sum(latencies) / len(latencies)
        return report

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "requests": self.requests,
            "completed": self.completed,
            "errors": self.errors,
            "shed": self.shed,
            "corrupt": self.corrupt,
            "concurrency": self.concurrency,
            "wall_seconds": round(self.wall_seconds, 6),
            "latency": {
                "p50": round(self.p50, 6),
                "p95": round(self.p95, 6),
                "p99": round(self.p99, 6),
                "min": round(self.min, 6),
                "max": round(self.max, 6),
                "mean": round(self.mean, 6),
            },
            "error_detail": self.error_detail,
        }

    def summary(self) -> str:
        return (
            f"{self.mode}: {self.completed}/{self.requests} ok "
            f"({self.errors} errors, {self.shed} shed, "
            f"concurrency {self.concurrency}) "
            f"p50={self.p50 * 1000:.1f}ms p95={self.p95 * 1000:.1f}ms "
            f"p99={self.p99 * 1000:.1f}ms in {self.wall_seconds:.2f}s"
        )


async def run_tcp_loadgen(
    host: str,
    port: int,
    connections: int = 1000,
    payload: bytes = b"repro-gateway-ping",
    timeout: float = 60.0,
    concurrency: Optional[int] = None,
    ramp_seconds: float = 0.0,
) -> LoadgenReport:
    """Open ``connections`` TCP connections concurrently; each sends
    ``payload`` once and reads the full echo back.  Latency is wall
    time from connect() start to the last echoed byte.

    ``concurrency`` caps simultaneously open sockets (default: all of
    them — genuinely concurrent).  ``ramp_seconds`` spreads connection
    starts over a window so an enormous burst doesn't contend on the
    accept queue alone.
    """
    sem = asyncio.Semaphore(concurrency or connections)
    latencies: List[float] = []
    errors: List[str] = []
    shed = 0
    corrupt = 0
    #: a reset/refusal before any echoed byte arrives is the server
    #: shedding load, not a data-path failure
    _SHED_ERRORS = (ConnectionResetError, ConnectionRefusedError,
                    ConnectionAbortedError, BrokenPipeError)

    async def one(i: int) -> None:
        nonlocal shed, corrupt
        if ramp_seconds > 0 and connections > 1:
            await asyncio.sleep(ramp_seconds * i / connections)
        async with sem:
            t0 = _time.monotonic()
            writer = None
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), timeout
                )
                writer.write(payload)
                await writer.drain()
                echoed = await asyncio.wait_for(
                    reader.readexactly(len(payload)), timeout
                )
                if echoed != payload:
                    corrupt += 1
                    errors.append("PayloadMismatch: echoed bytes differ")
                else:
                    latencies.append(_time.monotonic() - t0)
            except _SHED_ERRORS:
                shed += 1
            except asyncio.IncompleteReadError as exc:
                if exc.partial:
                    # some echoed bytes arrived, then the stream died:
                    # that is a corrupted exchange, not clean shedding
                    corrupt += 1
                    errors.append(f"{type(exc).__name__}: {exc}")
                else:
                    shed += 1
            except Exception as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
            finally:
                if writer is not None:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except Exception:
                        pass

    wall0 = _time.monotonic()
    await asyncio.gather(*(one(i) for i in range(connections)))
    return LoadgenReport._from_latencies(
        "tcp-echo", latencies, errors, connections,
        concurrency or connections, _time.monotonic() - wall0,
        shed=shed, corrupt=corrupt,
    )


async def run_udp_loadgen(
    host: str,
    port: int,
    connections: int = 1000,
    payload: bytes = b"repro-gateway-ping",
    timeout: float = 60.0,
    concurrency: Optional[int] = None,
    ramp_seconds: float = 0.0,
) -> LoadgenReport:
    """Same shape as :func:`run_tcp_loadgen` over UDP sockets: each
    "connection" is one datagram sent and its echo awaited."""
    loop = asyncio.get_running_loop()
    sem = asyncio.Semaphore(concurrency or connections)
    latencies: List[float] = []
    errors: List[str] = []

    class _Client(asyncio.DatagramProtocol):
        def __init__(self) -> None:
            self.reply: asyncio.Future = loop.create_future()

        def datagram_received(self, data: bytes, addr) -> None:
            if not self.reply.done():
                self.reply.set_result(data)

        def error_received(self, exc) -> None:
            if not self.reply.done():
                self.reply.set_exception(exc)

    async def one(i: int) -> None:
        if ramp_seconds > 0 and connections > 1:
            await asyncio.sleep(ramp_seconds * i / connections)
        async with sem:
            t0 = _time.monotonic()
            transport = None
            try:
                transport, proto = await loop.create_datagram_endpoint(
                    _Client, remote_addr=(host, port)
                )
                transport.sendto(payload)
                await asyncio.wait_for(proto.reply, timeout)
                latencies.append(_time.monotonic() - t0)
            except Exception as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
            finally:
                if transport is not None:
                    transport.close()

    wall0 = _time.monotonic()
    await asyncio.gather(*(one(i) for i in range(connections)))
    return LoadgenReport._from_latencies(
        "udp-echo", latencies, errors, connections,
        concurrency or connections, _time.monotonic() - wall0,
    )
