"""TCPlp reproduction: full-scale TCP for low-power wireless networks.

This package reproduces the NSDI 2020 paper "Performant TCP for
Low-Power Wireless Networks" (Kumar et al.): the TCPlp protocol engine
in :mod:`repro.core`, and the complete LLN substrate it runs on --
simulated 802.15.4 PHY/MAC, 6LoWPAN, IPv6, Thread-like routing with
sleepy end devices, CoAP/CoCoA, and duty-cycle accounting.

The stable public surface lives in :mod:`repro.api`::

    from repro.api import tcplp_params, build_single_hop

    net = build_single_hop(seed=1)
    stack = net.tcp_stack(1)  # node 1's one TCP stack

The same names are re-exported here for convenience (``from repro
import TcpStack`` keeps working), and deep implementation paths remain
importable — but :mod:`repro.api` is the compatibility promise.  See
README.md for a tour, docs/api.md for the API reference, DESIGN.md for
the architecture, and EXPERIMENTS.md for the paper-vs-reproduction
accounting.
"""

from repro.core.params import TcpParams, linux_like_params, mss_for_frames
from repro.core.simplified import (
    blip_params,
    gnrc_params,
    tcplp_params,
    uip_params,
)
from repro.core.socket_api import TcpListener, TcpSocket, TcpStack
from repro.experiments.topology import (
    CLOUD_ID,
    Network,
    build_chain,
    build_grid_mesh,
    build_pair,
    build_random_mesh,
    build_single_hop,
    build_testbed,
)
from repro.sim.engine import Simulator

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "TcpStack",
    "TcpSocket",
    "TcpListener",
    "TcpParams",
    "tcplp_params",
    "uip_params",
    "blip_params",
    "gnrc_params",
    "linux_like_params",
    "mss_for_frames",
    "Network",
    "build_pair",
    "build_single_hop",
    "build_chain",
    "build_testbed",
    "build_grid_mesh",
    "build_random_mesh",
    "CLOUD_ID",
    "__version__",
]
