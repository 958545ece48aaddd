"""Socket-level chaos against the live tier.

:mod:`repro.faults.schedule` injects faults *inside* the simulated
world (lossy links, crashing motes).  This module attacks the
*sockets around it* — the part a real deployment's operators worry
about: abusive client behaviour against a running
:class:`repro.gateway.server.Gateway` — connection resets, slow-loris
holds, partial writes followed by a reset, and accept storms.  The
gateway must shed explicitly (``gw.shed``), keep serving admitted
clients intact, and return to quiescence once the abuse stops.

A :class:`ProcessFaultSchedule` (a :class:`repro.checks.KindSchedule`,
validated by the same rules as
:class:`~repro.faults.schedule.FaultSchedule`) describes one chaos
run; its faults fire at wall-clock seconds from the start of the
client script.  :func:`run_gateway_chaos` drives it; ``tools/chaos.py``
is the CLI and CI entry point.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import time as _time
from typing import Any, Dict, List

from repro.checks import KindSchedule

#: upper bound on the sockets one fault opens (``count``,
#: ``connections``): the chaos client opens them in a loop, and the CI
#: storm uses 200
MAX_CLIENTS = 10_000

#: upper bound on the bytes one client writes before going silent or
#: resetting (``bytes``, ``prelude_bytes``): a request fragment, not an
#: upload; the default per-bridge pause watermark is 64 KiB
MAX_WRITE_BYTES = 64 * 1024

_BOUNDS = {"count": MAX_CLIENTS, "connections": MAX_CLIENTS,
           "prelude_bytes": MAX_WRITE_BYTES, "bytes": MAX_WRITE_BYTES}


class ProcessFaultSchedule(KindSchedule):
    """A validated list of socket fault descriptions; each fires at wall
    second ``at`` into the client script."""

    #: see repro.checks.KindSchedule
    _SPECS = {
        "client_reset": ({"at": float}, {"count": (int, 1)}),
        "slow_loris": ({"at": float},
                       {"count": (int, 1), "hold": (float, 10.0),
                        "prelude_bytes": (int, 4)}),
        "partial_write": ({"at": float},
                          {"count": (int, 1), "bytes": (int, 8)}),
        "accept_storm": ({"at": float, "connections": int}, {}),
    }

    @staticmethod
    def _check(index: int, out: Dict[str, object]) -> Dict[str, object]:
        kind = out["kind"]
        for field in ("at", "hold"):
            if field in out and out[field] < 0:
                raise ValueError(
                    f"faults[{index}] ({kind}): {field} must be >= 0")
        for field, bound in _BOUNDS.items():
            if field in out and out[field] < 1:
                raise ValueError(
                    f"faults[{index}] ({kind}): {field} must be >= 1")
            if field in out and out[field] > bound:
                raise ValueError(
                    f"faults[{index}] ({kind}): {field} must be <= {bound}")
        return out

    def gateway_ops(self) -> List[Dict[str, object]]:
        """Gateway client operations ordered by firing time."""
        return sorted(self.faults, key=lambda f: f["at"])


# ----------------------------------------------------------------------
# gateway client abuse
# ----------------------------------------------------------------------
def _rst_close(writer: asyncio.StreamWriter) -> None:
    """Close a client socket with an immediate RST (SO_LINGER 0)."""
    sock = writer.get_extra_info("socket")
    if sock is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
    writer.transport.abort()


async def _chaos_client_reset(host: str, port: int, count: int) -> Dict[str, Any]:
    """Connect ``count`` clients and reset each immediately."""
    done = 0
    for _ in range(count):
        try:
            _reader, writer = await asyncio.open_connection(host, port)
            _rst_close(writer)
            done += 1
        except OSError:
            pass  # connect itself shed — still abuse delivered
    return {"sent": done}


async def _chaos_partial_write(host: str, port: int, count: int,
                              nbytes: int) -> Dict[str, Any]:
    """Write ``nbytes`` of a request, then reset mid-exchange."""
    done = 0
    for _ in range(count):
        try:
            _reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"\x5a" * nbytes)
            await writer.drain()
            _rst_close(writer)
            done += 1
        except OSError:
            pass
    return {"sent": done}


async def _chaos_slow_loris(host: str, port: int, count: int, hold: float,
                           prelude_bytes: int) -> Dict[str, Any]:
    """Hold ``count`` connections open and idle for up to ``hold`` s.

    Each client sends a tiny prelude then goes silent.  A gateway with
    an ``idle_timeout`` under ``hold`` must reap the connection (the
    client sees EOF/RST *before* its hold expires); ``reaped`` counts
    how many were.  Without a reaper the sockets simply ride out the
    hold — visible as ``reaped == 0``.
    """
    async def one() -> bool:
        writer = None
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"\x5a" * prelude_bytes)
            await writer.drain()
            await asyncio.wait_for(reader.read(-1), hold)
            return True      # server closed us first: reaped
        except asyncio.TimeoutError:
            return False     # we outlived the hold: not reaped
        except OSError:
            return True      # reset by the reaper mid-hold
        finally:
            if writer is not None:
                writer.transport.abort()

    results = await asyncio.gather(*(one() for _ in range(count)))
    return {"sent": count, "reaped": sum(results)}


async def _chaos_accept_storm(host: str, port: int,
                             connections: int) -> Dict[str, Any]:
    """A burst of real echo clients far past the admission cap."""
    from repro.gateway.loadgen import run_tcp_loadgen

    report = await run_tcp_loadgen(host, port, connections=connections)
    return {
        "connections": connections,
        "completed": report.completed,
        "shed": report.shed,
        "corrupt": report.corrupt,
        "errors": report.errors,
        "p99": round(report.p99, 6),
    }


async def _probe_echo(host: str, port: int, nbytes: int = 4096,
                     timeout: float = 30.0, attempts: int = 10,
                     retry_delay: float = 0.25) -> Dict[str, Any]:
    """A clean bulk echo — the post-abuse recovery probe.

    Retries on refusal: immediately after a storm the gateway may shed
    one more client while the stormers' teardowns drain, and a shed
    plus prompt recovery is exactly the contract.  The reported
    latency spans every attempt — it *is* the recovery time.
    """
    payload = bytes(i & 0xFF for i in range(256)) * (nbytes // 256 + 1)
    payload = payload[:nbytes]
    t0 = _time.monotonic()
    error = ""
    for attempt in range(1, attempts + 1):
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout)
            writer.write(payload)
            writer.write_eof()
            await writer.drain()
            echoed = await asyncio.wait_for(reader.read(-1), timeout)
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
            return {"ok": echoed == payload, "bytes": nbytes,
                    "attempts": attempt,
                    "latency_s": round(_time.monotonic() - t0, 3)}
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
            error = type(exc).__name__
            if attempt < attempts:
                await asyncio.sleep(retry_delay)
    return {"ok": False, "bytes": nbytes, "error": error,
            "attempts": attempts,
            "latency_s": round(_time.monotonic() - t0, 3)}


async def run_gateway_chaos(
    schedule: ProcessFaultSchedule,
    seed: int = 1,
    speed: float = 25.0,
    max_connections: int = 64,
    accept_burst: int = 64,
    idle_timeout: float = 2.0,
    establish_timeout: float = 10.0,
    splice_budget: int = 8 * 2 ** 20,
    probe_timeout: float = 60.0,
    quiesce_timeout: float = 15.0,
) -> Dict[str, Any]:
    """Drive ``schedule``'s client abuse at a live gateway; verify recovery.

    Brings up the smoke topology (1-hop mesh, echo mote)
    behind a gateway with overload protection on, fires each gateway
    op at its scheduled wall time, then (1) runs a clean recovery
    probe — which must succeed with bounded latency — and (2) polls
    :func:`repro.verify.check_gateway_quiescent` until the reaper has
    returned the gateway to zero bridges / zero pinned bytes.  ``ok``
    requires the probe, quiescence, zero corrupted exchanges, and that
    every storm client was either served or *explicitly* shed.
    """
    # gateway/topology imports stay function-local: the schedule
    # itself must not drag in the asyncio serving tier
    from repro.experiments.topology import build_chain
    from repro.gateway.limits import GatewayLimits
    from repro.gateway.server import Gateway, MoteBinding, install_echo
    from repro.verify import check_gateway_quiescent

    net = build_chain(1, seed=seed)
    install_echo(net, 1, 7)
    limits = GatewayLimits(
        max_connections=max_connections,
        accept_burst=accept_burst,
        establish_timeout=establish_timeout,
        idle_timeout=idle_timeout,
        splice_budget=splice_budget,
        reap_interval=0.25,
    )
    gateway = Gateway(net, [MoteBinding(node_id=1, sim_port=7)],
                      speed=speed, slack_budget=60.0, limits=limits)
    await gateway.start()
    host, port = gateway.endpoint(0)
    ops_log: List[Dict[str, Any]] = []
    corrupt = 0
    unshed_failures = 0
    try:
        t0 = _time.monotonic()
        for op in schedule.gateway_ops():
            delay = op["at"] - (_time.monotonic() - t0)
            if delay > 0:
                await asyncio.sleep(delay)
            kind = op["kind"]
            if kind == "client_reset":
                result = await _chaos_client_reset(host, port, op["count"])
            elif kind == "partial_write":
                result = await _chaos_partial_write(
                    host, port, op["count"], op["bytes"])
            elif kind == "slow_loris":
                result = await _chaos_slow_loris(
                    host, port, op["count"], op["hold"], op["prelude_bytes"])
            else:  # accept_storm
                result = await _chaos_accept_storm(
                    host, port, op["connections"])
                corrupt += result["corrupt"]
                unshed_failures += result["errors"]
            ops_log.append(dict(op, result=result,
                                wall_s=round(_time.monotonic() - t0, 3)))

        last_fault_wall = _time.monotonic()
        probe = await _probe_echo(host, port, timeout=probe_timeout)
        recovery_s = _time.monotonic() - last_fault_wall

        # the reaper owes us quiescence: loris/reset remnants must drain
        violations: List[str] = []
        deadline = _time.monotonic() + quiesce_timeout
        while True:
            violations = check_gateway_quiescent(gateway)
            if not violations or _time.monotonic() >= deadline:
                break
            await asyncio.sleep(0.25)
        quiesce_s = _time.monotonic() - last_fault_wall
        metrics = gateway.sim.metrics.snapshot()
    finally:
        await gateway.aclose()

    shed_counted = sum(v for k, v in metrics.get("counters", {}).items()
                       if k.startswith("gw.shed"))
    ok = (probe["ok"] and not violations and corrupt == 0
          and unshed_failures == 0)
    return {
        "ok": ok,
        "schedule": schedule.to_dict(),
        "ops": ops_log,
        "probe": probe,
        "recovery_s": round(recovery_s, 3),
        "quiesce_s": round(quiesce_s, 3),
        "violations": violations,
        "corrupt": corrupt,
        "unshed_failures": unshed_failures,
        "shed_counted": shed_counted,
        "config": {
            "seed": seed, "speed": speed,
            "max_connections": max_connections,
            "idle_timeout": idle_timeout,
            "establish_timeout": establish_timeout,
            "splice_budget": splice_budget,
        },
    }
