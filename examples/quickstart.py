#!/usr/bin/env python3
"""Quickstart: a TCPlp connection across a simulated 802.15.4 hop.

Builds the paper's Figure 2 setup — an embedded endpoint one radio hop
from a border router, bridged over a ~12 ms wired link to a cloud
server — opens a TCP connection from the mote to the cloud, pushes one
kilobyte, and prints what happened on the wire.

Run:  python examples/quickstart.py
"""

from repro.api import (
    CLOUD_ID,
    build_single_hop,
    linux_like_params,
    tcplp_params,
)


def main() -> None:
    # 1. Build the network: node 0 is the border router, node 1 the
    #    embedded endpoint, CLOUD_ID the server behind the wired link.
    net = build_single_hop(seed=42)
    mote = net.nodes[1]

    # 2. Take each endpoint's TCP stack.  The mote runs TCPlp's
    #    evaluation config (5-frame MSS, 4-segment windows); the cloud
    #    runs Linux-class buffer sizes — both are the same protocol
    #    engine.
    mote_stack = net.tcp_stack(1)
    cloud_stack = net.tcp_stack(CLOUD_ID, linux_like_params())

    # 3. The cloud listens; deliveries land in `received`.
    received = []

    def on_accept(conn):
        conn.on_data = received.append

    cloud_stack.listen(8000, on_accept)

    # 4. The mote connects and sends once the handshake completes.
    conn = mote_stack.connect(CLOUD_ID, 8000,
                              params=tcplp_params(to_cloud=True),
                              dst_is_cloud=True)
    payload = b"hello from a 48 MHz cortex-m0+ " * 32  # ~1 KiB

    def on_connect():
        print(f"[{net.sim.now:8.3f}s] connected "
              f"(negotiated MSS = {conn.mss} B, "
              f"SACK = {conn.sack_enabled}, timestamps = {conn.ts_enabled})")
        conn.send(payload)

    conn.on_connect = on_connect

    # 5. Run the simulation.
    net.sim.run(until=10.0)

    data = b"".join(received)
    counters = conn.trace.counters
    print(f"[{net.sim.now:8.3f}s] cloud received {len(data)} bytes "
          f"({'intact' if data == payload else 'CORRUPTED'})")
    print(f"  segments sent:      {counters.get('tcp.segs_sent')}")
    print(f"  data segments:      {counters.get('tcp.data_segs_sent')}")
    print(f"  retransmissions:    {counters.get('tcp.retransmits')}")
    print(f"  frames on the air:  {mote.radio.frames_sent} "
          f"(mote) + {net.nodes[0].radio.frames_sent} (border router)")
    if conn.rtt.srtt is not None:
        print(f"  smoothed RTT:       {conn.rtt.srtt * 1000:.1f} ms")
    print(f"  mote radio duty:    {mote.radio_duty_cycle() * 100:.1f} % "
          f"(always-on in this example)")
    assert data == payload


if __name__ == "__main__":
    main()
