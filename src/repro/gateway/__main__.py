"""Run a gateway interactively: ``python -m repro.gateway``.

Builds a chain mesh with an echo (or sink) application on the far
mote, then serves it on loopback until interrupted.  Point real tools
at it::

    python -m repro.gateway --hops 2 --tcp-port 18000 --udp-port 18001
    # elsewhere:
    echo hello | nc -q1 127.0.0.1 18000
    echo ping  | nc -u -q1 127.0.0.1 18001

Slack statistics print every few seconds so falling behind real time
is visible immediately.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.checks import is_positive_number
from repro.experiments.topology import build_chain
from repro.gateway.limits import GatewayLimits
from repro.gateway.server import Gateway, MoteBinding, install_echo, install_sink
from repro.sim.engine import RealtimePacer, SimulationError


async def _serve(args, limits: GatewayLimits) -> int:
    net = build_chain(args.hops, seed=args.seed)
    mote = args.hops  # the far end of the chain
    if args.app == "echo":
        install_echo(net, mote, args.sim_port)
    else:
        install_sink(net, mote, args.sim_port)
    install_echo(net, mote, args.sim_port, kind="udp")

    bindings = [
        MoteBinding(node_id=mote, sim_port=args.sim_port,
                    host=args.host, port=args.tcp_port),
        MoteBinding(node_id=mote, sim_port=args.sim_port,
                    host=args.host, port=args.udp_port, kind="udp"),
    ]
    gateway = Gateway(net, bindings, speed=args.speed,
                      slack_budget=args.slack_budget, limits=limits)
    await gateway.start()
    tcp_host, tcp_port = gateway.endpoint(0)
    _, udp_port = gateway.endpoint(1)
    print(f"gateway up: mote {mote} ({args.app}) at "
          f"tcp://{tcp_host}:{tcp_port} and udp://{tcp_host}:{udp_port} "
          f"(speed {args.speed}x, {args.hops}-hop mesh)")
    print("try:  printf hello | nc -q1 %s %d" % (tcp_host, tcp_port))

    def report() -> None:
        s = gateway.slack_stats()
        print(f"[stats] sim t={net.sim.now:.1f}s "
              f"slack last={s['last_slack']:.3f}s "
              f"max={s['max_slack']:.3f}s "
              f"input lag max={s['max_input_lag']:.3f}s "
              f"violations={s['violations']}")

    try:
        while True:
            await asyncio.sleep(args.stats_interval)
            # read inside the simulation: an idle gateway leaves
            # sim.now unread between dispatches
            gateway.runner.inject(report)
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        await gateway.aclose()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.gateway",
                                     description=__doc__)
    parser.add_argument("--hops", type=int, default=2,
                        help="mesh chain length (mote sits at the far end)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--app", choices=["echo", "sink"], default="echo")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--tcp-port", type=int, default=18000)
    parser.add_argument("--udp-port", type=int, default=18001)
    parser.add_argument("--sim-port", type=int, default=7)
    parser.add_argument("--speed", type=float, default=1.0,
                        help="simulated seconds per wall second")
    parser.add_argument("--slack-budget", type=float, default=0.25)
    parser.add_argument("--stats-interval", type=float, default=5.0)
    overload = parser.add_argument_group(
        "overload protection (all off by default; see GatewayLimits)")
    overload.add_argument("--max-connections", type=int, default=None,
                          help="cap on concurrent bridged connections")
    overload.add_argument("--accept-rate", type=float, default=None,
                          help="token-bucket accept rate (conn/s)")
    overload.add_argument("--establish-timeout", type=float, default=None,
                          help="shed clients whose sim leg is not up in N s")
    overload.add_argument("--idle-timeout", type=float, default=None,
                          help="reap established bridges idle for N s")
    overload.add_argument("--splice-budget", type=int, default=None,
                          help="total client bytes buffered toward the sim")
    overload.add_argument("--breaker-threshold", type=int, default=None,
                          help="consecutive failures opening a binding's "
                               "circuit breaker")
    overload.add_argument("--backlog", type=int, default=4096,
                          help="listener accept-queue depth")
    overload.add_argument("--high-water", type=int, default=64 * 1024,
                          help="per-bridge pause watermark (bytes)")
    overload.add_argument("--low-water", type=int, default=16 * 1024,
                          help="per-bridge resume watermark (bytes)")
    args = parser.parse_args(argv)
    # refuse bad numbers before a socket is bound: one line, exit 2
    try:
        if args.hops < 1:
            raise ValueError(f"--hops must be at least 1 (got {args.hops})")
        for flag, port in (("--tcp-port", args.tcp_port),
                           ("--udp-port", args.udp_port),
                           ("--sim-port", args.sim_port)):
            if not 0 <= port <= 65535:
                raise ValueError(f"{flag} must be in 0..65535 (got {port})")
        if not is_positive_number(args.stats_interval):
            raise ValueError(f"--stats-interval must be a finite number "
                             f"> 0 (got {args.stats_interval})")
        RealtimePacer(speed=args.speed, slack_budget=args.slack_budget)
        limits = GatewayLimits(
            max_connections=args.max_connections,
            accept_rate=args.accept_rate,
            establish_timeout=args.establish_timeout,
            idle_timeout=args.idle_timeout,
            splice_budget=args.splice_budget,
            breaker_threshold=args.breaker_threshold,
            backlog=args.backlog,
            high_water=args.high_water,
            low_water=args.low_water,
        )
    except (ValueError, SimulationError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    try:
        return asyncio.run(_serve(args, limits))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
