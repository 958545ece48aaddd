"""Network layer: IPv6 over the LLN, queues, routing, and node assembly.

* :mod:`repro.net.ipv6` — IPv6 packets (with ECN bits), a byte codec,
  and the per-node network layer that compresses/fragments via 6LoWPAN
  and demuxes to transports.
* :mod:`repro.net.udp` — UDP datagrams and a socket-less UDP stack
  (CoAP rides on this).
* :mod:`repro.net.queues` — drop-tail and RED queues with ECN marking
  (Appendix A).
* :mod:`repro.net.routing` — static and Thread-like mesh routing
  (border router, always-on routers, sleepy leaves with parents).
* :mod:`repro.net.icmpv6` — echo request/reply (ping diagnostics).
* :mod:`repro.net.node` — composes radio + MAC + 6LoWPAN + IPv6 into
  an embedded node.
* :mod:`repro.net.wired` — the border-router uplink: a wired link with
  ~12 ms RTT to a cloud host (§9.2), with injectable packet loss
  (§9.4).
"""

from repro.net.addr import cloud_address, mesh_address
from repro.net.icmpv6 import IcmpStack
from repro.net.ipv6 import PROTO_TCP, PROTO_UDP, Ipv6Layer, Ipv6Packet
from repro.net.node import Node, NodeConfig
from repro.net.queues import RedParams, RedQueue
from repro.net.routing import MeshRouting, StaticRouting
from repro.net.udp import UdpDatagram, UdpStack
from repro.net.wired import CloudHost, WiredLink

__all__ = [
    "Ipv6Packet",
    "Ipv6Layer",
    "PROTO_TCP",
    "PROTO_UDP",
    "UdpDatagram",
    "UdpStack",
    "RedQueue",
    "RedParams",
    "StaticRouting",
    "MeshRouting",
    "Node",
    "NodeConfig",
    "WiredLink",
    "CloudHost",
    "mesh_address",
    "cloud_address",
    "IcmpStack",
]
