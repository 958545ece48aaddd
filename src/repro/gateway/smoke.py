"""Self-contained gateway smoke run (the CI gateway job).

Builds a small mesh with a cloud uplink, starts a real gateway on
loopback, and then — over ordinary OS sockets — (1) completes a bulk
echo transfer against a mote inside the mesh, (2) fires a concurrent
loadgen burst against a wired host behind the border router,
(3) runs a datagram exchange against the mote, and (4) fires an
overload storm well past the gateway's connection cap — every excess
client must be *explicitly* shed (counted in ``gw.shed``) while every
admitted one is served intact with bounded latency.  The
latency-percentile report, the pacer's slack summary, and the full
metrics snapshot are written to a JSON artifact.

Exit status is non-zero on any failed exchange, a corrupted bulk echo,
silent (uncounted) shedding, any real-time slack violation, or an input
that found the simulated clock more than the slack budget behind the
wall — the pacing and shedding contracts are gates, not suggestions.

Run it directly::

    python -m repro.gateway.smoke --out gateway_smoke.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time as _time
from typing import Optional

from repro.experiments.topology import build_chain
from repro.gateway.limits import GatewayLimits
from repro.gateway.loadgen import run_tcp_loadgen, run_udp_loadgen
from repro.gateway.server import (
    Gateway,
    MoteBinding,
    attach_wired_host,
    install_echo,
)

#: wired echo host id (behind the border router, no radio)
WIRED_HOST_ID = 1001


async def _bulk_echo(host: str, port: int, nbytes: int,
                     timeout: float) -> dict:
    """Send ``nbytes`` and read them all back; verify byte equality."""
    payload = bytes(i & 0xFF for i in range(256)) * (nbytes // 256 + 1)
    payload = payload[:nbytes]
    t0 = _time.monotonic()
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    writer.write(payload)
    writer.write_eof()
    await writer.drain()
    echoed = await asyncio.wait_for(reader.read(-1), timeout)
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    wall = _time.monotonic() - t0
    return {
        "bytes": nbytes,
        "echoed": len(echoed),
        "intact": echoed == payload,
        "wall_seconds": round(wall, 3),
        "goodput_kbps": round(nbytes * 8 / 1000 / wall, 1) if wall > 0 else 0,
    }


async def _run_smoke(
    out: Optional[str] = None,
    connections: int = 200,
    bulk_bytes: int = 64 * 1024,
    speed: float = 25.0,
    slack_budget: float = 2.0,
    udp_exchanges: int = 20,
    timeout: float = 120.0,
    seed: int = 1,
    overload_connections: int = 600,
    max_connections: int = 256,
) -> dict:
    """Run the full smoke sequence; returns the artifact dict."""
    net = build_chain(1, seed=seed)
    mote = 1
    install_echo(net, mote, 7)
    install_echo(net, mote, 7, kind="udp")
    attach_wired_host(net, WIRED_HOST_ID)
    install_echo(net, WIRED_HOST_ID, 7)

    # overload protection on: the connection cap sits above the normal
    # burst (phases 1-3 are unaffected) and below the overload storm,
    # so phase 4 must shed the excess *explicitly* while serving every
    # admitted client intact
    limits = GatewayLimits(
        max_connections=max_connections,
        establish_timeout=timeout,
        idle_timeout=timeout,
        splice_budget=16 * 2 ** 20,
    )
    gateway = Gateway(
        net,
        bindings=[
            MoteBinding(node_id=mote, sim_port=7),               # mesh TCP
            MoteBinding(node_id=WIRED_HOST_ID, sim_port=7),      # wired TCP
            MoteBinding(node_id=mote, sim_port=7, kind="udp"),   # mesh UDP
        ],
        speed=speed,
        slack_budget=slack_budget,
        limits=limits,
    )
    await gateway.start()
    try:
        host, bulk_port = gateway.endpoint(0)
        _, burst_port = gateway.endpoint(1)
        _, udp_port = gateway.endpoint(2)

        bulk = await _bulk_echo(host, bulk_port, bulk_bytes, timeout)
        burst = await run_tcp_loadgen(
            host, burst_port, connections=connections, timeout=timeout,
        )
        udp = await run_udp_loadgen(
            host, udp_port, connections=udp_exchanges, timeout=timeout,
        )
        overload = await run_tcp_loadgen(
            host, burst_port, connections=overload_connections,
            timeout=timeout,
        )
        slack = gateway.slack_stats()
        metrics = gateway.sim.metrics.snapshot()
    finally:
        await gateway.aclose()

    shed_metric = sum(v for k, v in metrics.get("counters", {}).items()
                      if k.startswith("gw.shed"))
    overload_ok = (
        overload.corrupt == 0
        and overload.errors == 0
        and overload.completed + overload.shed == overload_connections
        and overload.completed > 0
        and overload.shed > 0
        and shed_metric >= overload.shed
        and overload.p99 <= timeout
    )
    ok = (
        bulk["intact"]
        and burst.errors == 0
        and burst.completed == connections
        and udp.errors == 0
        and overload_ok
        and slack["violations"] == 0
        and slack["max_input_lag"] <= slack_budget
    )
    artifact = {
        "ok": ok,
        "bulk": bulk,
        "loadgen": burst.as_dict(),
        "udp": udp.as_dict(),
        "overload": dict(overload.as_dict(), ok=overload_ok,
                         shed_metric=shed_metric),
        "slack": slack,
        "metrics": metrics,
        "config": {
            "connections": connections,
            "bulk_bytes": bulk_bytes,
            "speed": speed,
            "slack_budget": slack_budget,
            "seed": seed,
            "overload_connections": overload_connections,
            "max_connections": max_connections,
        },
    }
    if out:
        with open(out, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return artifact


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="gateway_smoke.json")
    parser.add_argument("--connections", type=int, default=200)
    parser.add_argument("--bulk-bytes", type=int, default=64 * 1024)
    parser.add_argument("--speed", type=float, default=25.0)
    parser.add_argument("--slack-budget", type=float, default=2.0)
    parser.add_argument("--udp-exchanges", type=int, default=20)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--overload-connections", type=int, default=600,
                        help="storm size for the shedding phase")
    parser.add_argument("--max-connections", type=int, default=256,
                        help="gateway connection cap during the smoke")
    args = parser.parse_args(argv)

    artifact = asyncio.run(_run_smoke(
        out=args.out,
        connections=args.connections,
        bulk_bytes=args.bulk_bytes,
        speed=args.speed,
        slack_budget=args.slack_budget,
        udp_exchanges=args.udp_exchanges,
        timeout=args.timeout,
        seed=args.seed,
        overload_connections=args.overload_connections,
        max_connections=args.max_connections,
    ))
    bulk, slack = artifact["bulk"], artifact["slack"]
    print(f"bulk: {bulk['bytes']} bytes echoed intact={bulk['intact']} "
          f"in {bulk['wall_seconds']}s ({bulk['goodput_kbps']} kb/s)")
    lat = artifact["loadgen"]["latency"]
    print(f"loadgen: {artifact['loadgen']['completed']}"
          f"/{artifact['loadgen']['requests']} ok "
          f"p50={lat['p50'] * 1000:.1f}ms p95={lat['p95'] * 1000:.1f}ms "
          f"p99={lat['p99'] * 1000:.1f}ms")
    over = artifact["overload"]
    olat = over["latency"]
    print(f"overload: {over['completed']}/{over['requests']} served, "
          f"{over['shed']} shed ({over['shed_metric']} counted server-side), "
          f"{over['corrupt']} corrupt, p99={olat['p99'] * 1000:.1f}ms "
          f"ok={over['ok']}")
    print(f"slack: max={slack['max_slack']:.3f}s "
          f"input lag max={slack['max_input_lag']:.3f}s "
          f"violations={slack['violations']} "
          f"(budget {slack['slack_budget']}s, speed {slack['speed']}x)")
    if not artifact["ok"]:
        print("gateway smoke FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
