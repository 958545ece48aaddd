"""Experiment harness: one module per table/figure of the paper.

Each experiment module exposes a ``run_*`` function returning plain
data rows (dataclasses/dicts) so benchmarks, examples, and tests share
one code path.  :mod:`repro.experiments.topology` provides the shared
network builders (single hop through the border router, §7 chains, and
the §9 office-testbed mesh).
"""

from repro.experiments.topology import (
    Network,
    build_chain,
    build_grid_mesh,
    build_pair,
    build_random_mesh,
    build_single_hop,
    build_testbed,
)
from repro.experiments.workload import (
    BulkTransfer,
    FlowSet,
    FlowSpec,
)

__all__ = [
    "Network",
    "build_pair",
    "build_single_hop",
    "build_chain",
    "build_testbed",
    "build_grid_mesh",
    "build_random_mesh",
    "BulkTransfer",
    "FlowSet",
    "FlowSpec",
]
