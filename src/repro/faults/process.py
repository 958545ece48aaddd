"""Process- and socket-level chaos against the live tiers.

:mod:`repro.faults.schedule` injects faults *inside* the simulated
world (lossy links, crashing motes).  This module attacks the
*processes and sockets around it* — the parts a real deployment's
operators worry about:

* **shard workers** — SIGKILL a worker mid-window, or SIGSTOP it until
  the coordinator's heartbeat timeout declares it hung.  The
  self-healing coordinator (:class:`repro.sim.shard.ShardedSimulator`)
  must respawn the worker from its heal base, replay the command
  journal, and finish with merged results *byte-identical* to an
  unkilled run;
* **gateway clients** — abusive socket behaviour against a running
  :class:`repro.gateway.server.Gateway`: connection resets, slow-loris
  holds, partial writes followed by a reset, and accept storms.  The
  gateway must shed explicitly (``gw.shed``), keep serving admitted
  clients intact, and return to quiescence once the abuse stops.

A :class:`ProcessFaultSchedule` (same validated-spec idiom as
:class:`~repro.faults.schedule.FaultSchedule`) describes one chaos
run; worker faults key on the coordinator's lock-step *window index*
(deterministic — the same window always falls at the same sim time),
gateway faults on wall-clock seconds from the start of the client
script.  :func:`run_sharded_chaos` and :func:`run_gateway_chaos` drive
the two legs; ``tools/chaos.py`` is the CLI and CI entry point.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import struct
import threading
import time as _time
from typing import Any, Dict, List, Optional, Tuple

#: kind -> (required fields, optional fields with defaults); mirrors
#: repro.faults.schedule._SPECS so a typo'd spec fails at load time
_SPECS: Dict[str, Tuple[Dict[str, type], Dict[str, object]]] = {
    # -- shard-worker faults (fire at a lock-step window index) --------
    "worker_kill": (
        {"shard": int, "window": int},
        {},
    ),
    "worker_stall": (
        {"shard": int, "window": int},
        {"resume_after": 30.0},
    ),
    # -- gateway client abuse (fire at wall seconds into the script) ---
    "client_reset": (
        {"at": float},
        {"count": 1},
    ),
    "slow_loris": (
        {"at": float},
        {"count": 1, "hold": 10.0, "prelude_bytes": 4},
    ),
    "partial_write": (
        {"at": float},
        {"count": 1, "bytes": 8},
    ),
    "accept_storm": (
        {"at": float, "connections": int},
        {},
    ),
}

_WORKER_KINDS = ("worker_kill", "worker_stall")
_GATEWAY_KINDS = ("client_reset", "slow_loris", "partial_write",
                  "accept_storm")


def _coerce_number(kind: str, field: str, value, expected: type):
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"{kind}.{field} must be a number, got {value!r}")
        return float(value)
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"{kind}.{field} must be an integer, got {value!r}")
        return value
    return value


def _validate_fault(index: int, entry: object) -> Dict[str, object]:
    if not isinstance(entry, dict):
        raise ValueError(f"faults[{index}] must be an object, got {entry!r}")
    kind = entry.get("kind")
    if kind not in _SPECS:
        raise ValueError(
            f"faults[{index}]: unknown kind {kind!r} "
            f"(expected one of {sorted(_SPECS)})"
        )
    required, optional = _SPECS[kind]
    allowed = {"kind"} | set(required) | set(optional)
    unknown = set(entry) - allowed
    if unknown:
        raise ValueError(
            f"faults[{index}] ({kind}): unknown fields {sorted(unknown)}")
    out: Dict[str, object] = {"kind": kind}
    for field, expected in required.items():
        if field not in entry:
            raise ValueError(f"faults[{index}] ({kind}): missing '{field}'")
        out[field] = _coerce_number(kind, field, entry[field], expected)
    for field, default in optional.items():
        value = entry.get(field, default)
        if field in ("resume_after", "hold"):
            value = _coerce_number(kind, field, value, float)
        if field in ("count", "prelude_bytes", "bytes"):
            value = _coerce_number(kind, field, value, int)
        out[field] = value
    # semantic checks
    for field in ("shard", "window", "at", "resume_after", "hold"):
        if field in out and out[field] < 0:
            raise ValueError(
                f"faults[{index}] ({kind}): {field} must be >= 0")
    for field in ("count", "connections", "prelude_bytes", "bytes"):
        if field in out and out[field] < 1:
            raise ValueError(
                f"faults[{index}] ({kind}): {field} must be >= 1")
    return out


class ProcessFaultSchedule:
    """A validated list of process/socket fault descriptions."""

    def __init__(self, faults: List[Dict[str, object]], name: str = ""):
        self.name = name
        self.faults = [_validate_fault(i, f) for i, f in enumerate(faults)]

    @classmethod
    def from_dict(cls, spec) -> "ProcessFaultSchedule":
        """Build from ``{"name": ..., "faults": [...]}`` (or a bare list)."""
        if isinstance(spec, list):
            return cls(spec)
        if not isinstance(spec, dict):
            raise ValueError(f"fault spec must be a dict or list, got {spec!r}")
        faults = spec.get("faults")
        if not isinstance(faults, list):
            raise ValueError("fault spec needs a 'faults' list")
        unknown = set(spec) - {"name", "faults"}
        if unknown:
            raise ValueError(
                f"fault spec: unknown top-level keys {sorted(unknown)}")
        return cls(faults, name=str(spec.get("name", "")))

    @classmethod
    def from_json(cls, path) -> "ProcessFaultSchedule":
        """Load and validate a JSON spec file."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "faults": [dict(f) for f in self.faults]}

    def by_kind(self, kind: str) -> List[Dict[str, object]]:
        """All faults of one kind, in spec order."""
        return [f for f in self.faults if f["kind"] == kind]

    def worker_faults(self) -> List[Dict[str, object]]:
        """Shard-worker faults ordered by (window, shard)."""
        faults = [f for f in self.faults if f["kind"] in _WORKER_KINDS]
        return sorted(faults, key=lambda f: (f["window"], f["shard"]))

    def gateway_ops(self) -> List[Dict[str, object]]:
        """Gateway client operations ordered by firing time."""
        ops = [f for f in self.faults if f["kind"] in _GATEWAY_KINDS]
        return sorted(ops, key=lambda f: f["at"])

    def __len__(self) -> int:
        return len(self.faults)


# ----------------------------------------------------------------------
# shard-worker chaos
# ----------------------------------------------------------------------
class WorkerChaos:
    """Barrier hook that kills/stalls shard workers on schedule.

    Install as ``ShardedSimulator(..., barrier_hook=WorkerChaos(sched))``
    — the coordinator calls it as ``hook(sharded, window, t)`` at the
    top of every lock-stepped window, so fault timing is a pure
    function of the schedule (no wall-clock races on the kill itself).

    ``worker_kill`` SIGKILLs the worker outright; ``worker_stall``
    SIGSTOPs it and arms a daemon timer that SIGCONTs it
    ``resume_after`` wall seconds later.  A stall longer than the
    coordinator's ``worker_timeout`` exercises the hung-worker path
    (heartbeat timeout -> SIGKILL -> respawn); the timer is then a
    no-op on the dead pid.  Call :meth:`cancel` after the run to
    release any timers and un-stop stragglers.
    """

    def __init__(self, schedule: ProcessFaultSchedule):
        self.schedule = schedule
        self._pending = schedule.worker_faults()
        #: one dict per injected fault: kind, shard, window, t
        self.fired: List[Dict[str, Any]] = []
        self._timers: List[threading.Timer] = []
        self._stopped_pids: set = set()
        self._lock = threading.Lock()

    def __call__(self, sharded, window: int, t: float) -> None:
        while self._pending and self._pending[0]["window"] <= window:
            fault = self._pending.pop(0)
            self._fire(sharded, fault, window, t)

    def _fire(self, sharded, fault: Dict[str, object], window: int,
              t: float) -> None:
        shard = fault["shard"]
        if not 0 <= shard < sharded.shards:
            raise ValueError(
                f"{fault['kind']}: shard {shard} out of range "
                f"(run has {sharded.shards})")
        proc = sharded._procs[shard]
        pid = proc.pid
        if fault["kind"] == "worker_kill":
            proc.kill()
        else:
            os.kill(pid, signal.SIGSTOP)
            with self._lock:
                self._stopped_pids.add(pid)
            timer = threading.Timer(
                fault["resume_after"], self._resume, args=(pid,))
            timer.daemon = True
            timer.start()
            self._timers.append(timer)
        self.fired.append({
            "kind": fault["kind"],
            "shard": shard,
            "window": window,
            "t": round(t, 6),
        })

    def _resume(self, pid: int) -> None:
        with self._lock:
            if pid not in self._stopped_pids:
                return
            self._stopped_pids.discard(pid)
        try:
            os.kill(pid, signal.SIGCONT)
        except (ProcessLookupError, PermissionError):
            pass  # already respawned away — SIGKILL fells stopped procs

    def cancel(self) -> None:
        """Cancel pending resume timers and un-stop any straggler."""
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        with self._lock:
            stopped, self._stopped_pids = self._stopped_pids, set()
        for pid in stopped:
            try:
                os.kill(pid, signal.SIGCONT)
            except (ProcessLookupError, PermissionError):
                pass


def run_sharded_chaos(
    recipe,
    shards: int,
    schedule: ProcessFaultSchedule,
    warmup: float,
    duration: float,
    heal_every: Optional[int] = None,
    worker_timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """The self-healing acceptance gate: chaos run == clean run.

    Runs ``recipe`` twice at the same shard count — once untouched,
    once under ``schedule``'s worker kills/stalls — and compares the
    merged event trace, metrics snapshot and per-flow outcomes
    byte-for-byte (sorted JSON).  The report carries the coordinator's
    ``respawns`` log and the chaos hook's ``fired`` log; ``ok`` means
    every scheduled fault fired, every death healed, and nothing in
    the merged results moved.
    """
    from repro.sim.shard import run_sharded

    clean = run_sharded(recipe, shards, warmup, duration)
    hook = WorkerChaos(schedule)
    try:
        chaos = run_sharded(recipe, shards, warmup, duration,
                            heal_every=heal_every,
                            worker_timeout=worker_timeout,
                            barrier_hook=hook)
    finally:
        hook.cancel()

    mismatches: List[str] = []
    for section in ("trace", "metrics", "flows"):
        if (json.dumps(clean[section], sort_keys=True)
                != json.dumps(chaos[section], sort_keys=True)):
            mismatches.append(section)
    scheduled = len(schedule.worker_faults())
    report: Dict[str, Any] = {
        "ok": (not mismatches and len(hook.fired) == scheduled
               and len(chaos["respawns"]) >= 1),
        "shards": shards,
        "warmup": warmup,
        "duration": duration,
        "heal_every": heal_every,
        "schedule": schedule.to_dict(),
        "faults_scheduled": scheduled,
        "faults_fired": hook.fired,
        "respawns": chaos["respawns"],
        "mismatches": mismatches,
        "clean_wall_s": round(clean["wall_s"], 3),
        "chaos_wall_s": round(chaos["wall_s"], 3),
        "recovery_wall_s": round(
            sum(r["wall_s"] for r in chaos["respawns"]), 3),
        "barriers": chaos["barriers"],
        "aggregate": chaos["aggregate"],
    }
    return report


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


async def chaos_client_reset(host: str, port: int, count: int) -> Dict[str, Any]:
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


async def chaos_partial_write(host: str, port: int, count: int,
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


async def chaos_slow_loris(host: str, port: int, count: int, hold: float,
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


async def chaos_accept_storm(host: str, port: int,
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


async def probe_echo(host: str, port: int, nbytes: int = 4096,
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
    # gateway/topology imports stay function-local: the shard-chaos leg
    # and the schedule itself must not drag in the asyncio serving tier
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
                result = await chaos_client_reset(host, port, op["count"])
            elif kind == "partial_write":
                result = await chaos_partial_write(
                    host, port, op["count"], op["bytes"])
            elif kind == "slow_loris":
                result = await chaos_slow_loris(
                    host, port, op["count"], op["hold"], op["prelude_bytes"])
            else:  # accept_storm
                result = await chaos_accept_storm(
                    host, port, op["connections"])
                corrupt += result["corrupt"]
                unshed_failures += result["errors"]
            ops_log.append(dict(op, result=result,
                                wall_s=round(_time.monotonic() - t0, 3)))

        last_fault_wall = _time.monotonic()
        probe = await probe_echo(host, port, timeout=probe_timeout)
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
