"""The experiment catalog: the paper's tables and figures as factories.

:data:`DEFAULT_CATALOG` maps one name per table or figure that is one
run, plus the cells of :mod:`repro.experiments.exp_cells` and
:func:`~repro.experiments.exp_ablations.ablation_cell`, each one point
of a swept figure or table, to a factory ``factory(quick, **params)``
that returns JSON-native rows (a store hit is their ``json.loads``).
``quick=False`` is each row's or point's one definition:
``campaigns/paper.json`` lists the rows and sweeps the cells over the
figures' grids, and the paper suite (``benchmarks/test_*.py``) reads
them through that campaign and asserts the paper's claims on them.  ``quick=True`` runs the same rows
at abbreviated durations.  Every simulated row takes the campaign's
``seed`` (0 by default), so a ``seeds`` axis repeats it.  Campaigns
run the catalog: a spec with no ``experiments`` runs all of it,
``tools/campaign.py SPEC.json`` is the command line, and
``repro.api.run_campaign`` the programmatic entry (docs/campaigns.md).
"""

from __future__ import annotations

import bisect
from typing import Dict

from repro.campaign.catalog import ExperimentCatalog
from repro.experiments.exp_ablations import ablation_cell
from repro.experiments.exp_app import (
    TABLE8_HOURS,
    run_fig10_daylong,
    table8_row,
)
from repro.experiments.exp_cells import (
    app_cell,
    ayadi_energy,
    duty_cell,
    retry_delay_cell,
    single_hop_cell,
)
from repro.experiments.exp_duty import (
    run_adaptive_duty_cycle,
    run_fig13_rtt_distribution,
)
from repro.experiments.exp_fairness import run_table9
from repro.experiments.exp_retry_delay import WARMUP_S, run_fig7a_cwnd_trace
from repro.experiments.exp_table7 import run_table7
from repro.experiments.exp_throughput import (
    run_deaf_ablation,
    run_node_to_node,
)
from repro.models.headers import table5_rows, table6_rows
from repro.models.memory import (
    modelled_passive_bytes,
    modelled_tcb_bytes,
)
from repro.sim.trace import percentile


def _static_tables() -> Dict:
    return {
        "table5": [
            {"link": r.name, "bandwidth_bps": r.bandwidth_bps,
             "frame_bytes": r.frame_bytes, "tx_time_s": r.tx_time}
            for r in table5_rows()
        ],
        "table6": [
            {"header": r.protocol,
             "first_frame": [r.first_frame_min, r.first_frame_max],
             "other_frames": [r.other_frames_min, r.other_frames_max]}
            for r in table6_rows()
        ],
        "memory_model": {
            "active_socket_bytes": modelled_tcb_bytes(),
            "passive_socket_bytes": modelled_passive_bytes(),
        },
    }


# ----------------------------------------------------------------------
# the built-in catalog: one module-level factory per table/figure
# (module-level so pool and supervised workers can import them).  The
# full (``quick=False``) branch is the row's one definition: the
# arguments the paper suite asserts on (campaigns/paper.json)
# ----------------------------------------------------------------------


def _d(quick: bool, full: float) -> float:
    """A throughput row's simulated seconds: ``full``, or 25 s quick."""
    return 25.0 if quick else full


def _exp_static_tables(quick: bool) -> Dict:
    return _static_tables()


def _exp_table7_stacks(quick: bool, seed: int = 0):
    return run_table7(seed=seed, duration=_d(quick, 45.0))


#: Fig. 7a's printed trace: cwnd at this many evenly spaced instants
_FIG7A_POINTS = 24


def _exp_fig7a_cwnd(quick: bool, seed: int = 0):
    duration = _d(quick, 100.0)
    row = run_fig7a_cwnd_trace(seed=seed, duration=duration)
    del row["ssthresh_series"]
    # the paper's Fig. 7a look: cwnd, a step function between change
    # samples, read at fixed instants of the run (its warm-up and
    # the measured window), so point k is one instant in every seed; an
    # instant before the connection's first sample reads that sample
    series = row["cwnd_series"]
    if series:
        times = [t for t, _cwnd in series]
        end = WARMUP_S + duration
        instants = [end * (k + 1) / _FIG7A_POINTS
                    for k in range(_FIG7A_POINTS)]
        row["cwnd_series"] = [
            (t, series[max(bisect.bisect_right(times, t), 1) - 1][1])
            for t in instants]
    return row


def _exp_sec63_node_to_node(quick: bool, seed: int = 0):
    result = run_node_to_node(seed=seed, duration=_d(quick, 60.0))
    return {"goodput_kbps": result.goodput_kbps,
            "rto_events": result.rto_events}


def _exp_sec4_deaf_ablation(quick: bool, seed: int = 0):
    # the row has always run at simulation seed 1: campaign seed 0 keeps it
    return run_deaf_ablation(seed=seed + 1, duration=_d(quick, 45.0))


def _exp_fig10_daylong_tcp(quick: bool, seed: int = 0):
    return run_fig10_daylong("tcp", hours=6 if quick else 24,
                             seconds_per_hour=150.0, seed=seed)


def _exp_fig10_daylong_coap(quick: bool, seed: int = 0):
    return run_fig10_daylong("coap", hours=6 if quick else 24,
                             seconds_per_hour=150.0, seed=seed)


def _exp_table8(quick: bool, seed: int = 0):
    # the unreliable (nonconfirmable CoAP) rows: the TCP and CoAP rows
    # are read from fig10_daylong_tcp's and _coap's first hours
    hours = 6 if quick else TABLE8_HOURS
    return [table8_row(name, run_fig10_daylong(
                "coap", hours=hours, seconds_per_hour=150.0, seed=seed,
                confirmable=False, batching=batching))
            for name, batching in (("unreliable", False),
                                   ("unreliable+batch", True))]


def _exp_table9_fairness(quick: bool, seed: int = 0):
    return run_table9(seed=seed, duration=_d(quick, 90.0))


def _exp_appendixC_fig13(quick: bool, seed: int = 0):
    dists = run_fig13_rtt_distribution(sleep_interval=2.0, seed=seed,
                                       duration=_d(quick, 240.0))
    return {direction: {"samples": len(samples),
                        "p10": percentile(samples, 10),
                        "p50": percentile(samples, 50),
                        "p90": percentile(samples, 90)}
            for direction, samples in dists.items()}


def _exp_appendixC_adaptive(quick: bool, seed: int = 0):
    return [
        run_adaptive_duty_cycle(uplink=uplink, seed=seed,
                                duration=_d(quick, 45.0))
        for uplink in (True, False)
    ]


#: the process-wide default catalog: the paper's one-run tables and
#: figures, plus the cells the swept figures and the ablation tables
#: are grids over (exp_cells, exp_ablations)
DEFAULT_CATALOG = ExperimentCatalog({
    "static_tables": _exp_static_tables,
    "table7_stacks": _exp_table7_stacks,
    "fig7a_cwnd": _exp_fig7a_cwnd,
    "sec63_node_to_node": _exp_sec63_node_to_node,
    "sec4_deaf_ablation": _exp_sec4_deaf_ablation,
    "fig10_daylong_tcp": _exp_fig10_daylong_tcp,
    "fig10_daylong_coap": _exp_fig10_daylong_coap,
    "table8": _exp_table8,
    "table9_fairness": _exp_table9_fairness,
    "appendixC_fig13": _exp_appendixC_fig13,
    "appendixC_adaptive": _exp_appendixC_adaptive,
    "single_hop_cell": single_hop_cell,
    "retry_delay_cell": retry_delay_cell,
    "app_cell": app_cell,
    "duty_cell": duty_cell,
    "ayadi_energy": ayadi_energy,
    "ablation_cell": ablation_cell,
})


def default_catalog() -> ExperimentCatalog:
    """The process-wide default :class:`ExperimentCatalog`.

    Campaigns that must not see runtime registrations should work on
    ``default_catalog().copy()``.
    """
    return DEFAULT_CATALOG

