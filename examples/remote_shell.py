#!/usr/bin/env python3
"""§10 "Versatility": an interactive shell on a mote, over TCPlp.

The paper argues a duplex bytestream enables things LLN-specific
transfer protocols cannot — like logging into a sensor for
configuration and debugging.  This example runs a tiny line-oriented
command shell *on the embedded node* and drives it from the cloud host
across the border router, all over the simulated 802.15.4 link.

Run:  python examples/remote_shell.py
"""

from repro.api import (
    CLOUD_ID,
    build_single_hop,
    linux_like_params,
    tcplp_params,
)


class MoteShell:
    """A line-buffered command interpreter living on the mote."""

    def __init__(self, node, conn):
        self.node = node
        self.conn = conn
        self.buffer = b""
        conn.on_data = self.on_data
        conn.send(b"tcplp-sh> ")

    def on_data(self, data: bytes) -> None:
        self.buffer += data
        while b"\n" in self.buffer:
            line, self.buffer = self.buffer.split(b"\n", 1)
            reply = self.execute(line.decode().strip())
            self.conn.send(reply.encode() + b"\ntcplp-sh> ")

    def execute(self, command: str) -> str:
        if command == "help":
            return "commands: help, uptime, radio, tcpstat, echo <text>, exit"
        if command == "uptime":
            return f"up {self.node.sim.now:.3f} simulated seconds"
        if command == "radio":
            energy = self.node.radio.energy
            return (f"state={energy.state.value} "
                    f"duty={self.node.radio_duty_cycle() * 100:.1f}% "
                    f"tx_frames={self.node.radio.frames_sent}")
        if command == "tcpstat":
            counters = self.conn.trace.counters
            return (f"segs_in={counters.get('tcp.segs_rcvd')} "
                    f"segs_out={counters.get('tcp.segs_sent')} "
                    f"retx={counters.get('tcp.retransmits')} "
                    f"srtt={1000 * (self.conn.rtt.srtt or 0):.0f}ms")
        if command.startswith("echo "):
            return command[5:]
        if command == "exit":
            self.node.sim.schedule(0.1, self.conn.close)
            return "bye"
        return f"unknown command: {command!r} (try 'help')"


def main() -> None:
    net = build_single_hop(seed=3)
    mote = net.nodes[1]
    mote_stack = net.tcp_stack(1)
    cloud_stack = net.tcp_stack(CLOUD_ID, linux_like_params())

    # the mote listens — a passive socket costs almost nothing (§4.1)
    mote_stack.listen(23, lambda conn: MoteShell(mote, conn),
                      params=tcplp_params())

    # the "operator" types a scripted session from the cloud side
    session = [b"help\n", b"uptime\n", b"radio\n", b"echo hello mote!\n",
               b"tcpstat\n", b"exit\n"]
    transcript = []
    client = cloud_stack.connect(1, 23)
    client.on_data = transcript.append

    # send one command per simulated second
    def feed(i):
        if i < len(session) and client.is_open:
            print(f"operator> {session[i].decode().strip()}")
            client.send(session[i])
            net.sim.schedule(1.0, feed, i + 1)

    client.on_connect = lambda: net.sim.schedule(0.5, feed, 0)
    net.sim.run(until=15.0)

    print("\n--- mote transcript " + "-" * 40)
    print(b"".join(transcript).decode())
    print("-" * 60)
    print(f"session RTT (smoothed): {1000 * (client.rtt.srtt or 0):.0f} ms "
          f"across 1 radio hop + the wired uplink")


if __name__ == "__main__":
    main()
