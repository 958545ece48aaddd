"""The experiment catalog: the paper's tables and figures as factories.

:data:`DEFAULT_CATALOG` maps one name per table/figure (plus the
parameterised grid cells of :mod:`repro.experiments.exp_cells`) to a
factory ``factory(quick, **params)`` that returns JSON-native rows
(a store hit is their ``json.loads``).  ``quick=False`` is each row's
one definition: ``campaigns/paper.json`` lists the rows, and the paper
suite (``benchmarks/test_*.py``) reads them through that campaign and
asserts the paper's claims on them.  ``quick=True`` runs the same rows
at abbreviated durations.  Campaigns run the catalog: a spec with no
``experiments`` runs all of it, ``tools/campaign.py SPEC.json`` is the
command line, and ``repro.api.run_campaign`` the programmatic entry
(docs/campaigns.md).
"""

from __future__ import annotations

from typing import Dict

from repro.campaign.catalog import ExperimentCatalog
from repro.experiments.exp_ablations import run_ablation_table
from repro.experiments.exp_app import (
    run_fig8_batching,
    run_fig9_loss_sweep,
    run_fig10_daylong,
    run_table8,
)
from repro.experiments.exp_cells import (
    ayadi_energy,
    duty_cell,
    fig9_cell,
    single_hop_cell,
)
from repro.experiments.exp_duty import (
    run_adaptive_duty_cycle,
    run_fig12_sweep,
    run_fig13_rtt_distribution,
)
from repro.experiments.exp_fairness import run_table9
from repro.experiments.exp_retry_delay import (
    run_eq2_validation,
    run_fig6_sweep,
    run_fig7a_cwnd_trace,
)
from repro.experiments.exp_table7 import run_table7
from repro.experiments.exp_throughput import (
    run_deaf_ablation,
    run_fig4_mss_sweep,
    run_fig5_buffer_sweep,
    run_node_to_node,
    run_sec72_hops,
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


def _app_d(quick: bool, full: float) -> float:
    """An application-study row's simulated seconds (400 s quick)."""
    return 400.0 if quick else full


def _exp_static_tables(quick: bool) -> Dict:
    return _static_tables()


def _exp_fig4_mss(quick: bool):
    return run_fig4_mss_sweep(duration=_d(quick, 45.0))


def _exp_fig5_buffer(quick: bool):
    return run_fig5_buffer_sweep(duration=_d(quick, 45.0))


def _exp_table7_stacks(quick: bool):
    return run_table7(duration=_d(quick, 45.0))


#: Figure 6's retry delays d (seconds): five of the paper's nine
_FIG6_DELAYS = (0.0, 0.005, 0.02, 0.04, 0.1)


def _exp_fig6a_one_hop(quick: bool):
    # a touch of ambient interference so link retries exist for d to act on
    return run_fig6_sweep(1, delays=_FIG6_DELAYS, duration=_d(quick, 45.0),
                          ambient_frame_loss=0.03)


def _exp_fig6bcd_three_hops(quick: bool):
    return run_fig6_sweep(3, delays=_FIG6_DELAYS, duration=_d(quick, 60.0))


def _exp_fig7a_cwnd(quick: bool):
    row = run_fig7a_cwnd_trace(duration=_d(quick, 100.0))
    del row["ssthresh_series"]
    series = row["cwnd_series"]
    # the paper's Fig. 7a look: about 24 points of the trace
    row["cwnd_series"] = series[::max(1, len(series) // 24)]
    return row


def _exp_eq2_validation(quick: bool):
    return run_eq2_validation(duration=_d(quick, 60.0))


def _exp_sec72_hops(quick: bool):
    return run_sec72_hops(duration=_d(quick, 60.0))


def _exp_sec63_node_to_node(quick: bool):
    result = run_node_to_node(duration=_d(quick, 60.0))
    return {"goodput_kbps": result.goodput_kbps,
            "rto_events": result.rto_events}


def _exp_sec4_deaf_ablation(quick: bool):
    return run_deaf_ablation(duration=_d(quick, 45.0))


def _exp_fig8_batching(quick: bool):
    return run_fig8_batching(duration=_app_d(quick, 900.0))


def _exp_fig9_loss(quick: bool):
    return run_fig9_loss_sweep(
        loss_rates=(0.0, 0.06, 0.09, 0.12, 0.15, 0.21),
        duration=_app_d(quick, 900.0))


def _exp_fig10_daylong_tcp(quick: bool):
    return run_fig10_daylong("tcp", hours=6 if quick else 24,
                             seconds_per_hour=150.0)


def _exp_fig10_daylong_coap(quick: bool):
    return run_fig10_daylong("coap", hours=6 if quick else 24,
                             seconds_per_hour=150.0)


def _exp_table8(quick: bool):
    return run_table8(hours=6 if quick else 12, seconds_per_hour=150.0)


def _exp_table9_fairness(quick: bool):
    return run_table9(duration=_d(quick, 90.0))


def _exp_appendixC_fig12(quick: bool):
    rows = run_fig12_sweep(intervals=(0.02, 0.1, 0.5, 1.0, 2.0),
                           duration=_d(quick, 45.0))
    for row in rows:
        del row["rtt_samples"]
    return rows


def _exp_appendixC_fig13(quick: bool):
    dists = run_fig13_rtt_distribution(sleep_interval=2.0,
                                       duration=_d(quick, 240.0))
    return {direction: {"samples": len(samples),
                        "p10": percentile(samples, 10),
                        "p50": percentile(samples, 50),
                        "p90": percentile(samples, 90)}
            for direction, samples in dists.items()}


def _exp_appendixC_adaptive(quick: bool):
    return [
        run_adaptive_duty_cycle(uplink=True, duration=_d(quick, 45.0)),
        run_adaptive_duty_cycle(uplink=False, duration=_d(quick, 45.0)),
    ]


def _exp_ablations_clean(quick: bool):
    return run_ablation_table("clean-1hop", duration=_d(quick, 45.0))


def _exp_ablations_lossy(quick: bool):
    return run_ablation_table("lossy-1hop", duration=_d(quick, 60.0))


def _exp_ablations_3hop(quick: bool):
    return run_ablation_table("hidden-3hop", duration=_d(quick, 60.0))


#: the process-wide default catalog: the paper's figures/tables plus
#: the parameterised campaign grid cells (exp_cells)
DEFAULT_CATALOG = ExperimentCatalog({
    "static_tables": _exp_static_tables,
    "fig4_mss": _exp_fig4_mss,
    "fig5_buffer": _exp_fig5_buffer,
    "table7_stacks": _exp_table7_stacks,
    "fig6a_one_hop": _exp_fig6a_one_hop,
    "fig6bcd_three_hops": _exp_fig6bcd_three_hops,
    "fig7a_cwnd": _exp_fig7a_cwnd,
    "eq2_validation": _exp_eq2_validation,
    "sec72_hops": _exp_sec72_hops,
    "sec63_node_to_node": _exp_sec63_node_to_node,
    "sec4_deaf_ablation": _exp_sec4_deaf_ablation,
    "fig8_batching": _exp_fig8_batching,
    "fig9_loss": _exp_fig9_loss,
    "fig10_daylong_tcp": _exp_fig10_daylong_tcp,
    "fig10_daylong_coap": _exp_fig10_daylong_coap,
    "table8": _exp_table8,
    "table9_fairness": _exp_table9_fairness,
    "appendixC_fig12": _exp_appendixC_fig12,
    "appendixC_fig13": _exp_appendixC_fig13,
    "appendixC_adaptive": _exp_appendixC_adaptive,
    "ablations_clean": _exp_ablations_clean,
    "ablations_lossy": _exp_ablations_lossy,
    "ablations_3hop": _exp_ablations_3hop,
    "single_hop_cell": single_hop_cell,
    "fig9_cell": fig9_cell,
    "duty_cell": duty_cell,
    "ayadi_energy": ayadi_energy,
})


def default_catalog() -> ExperimentCatalog:
    """The process-wide default :class:`ExperimentCatalog`.

    Campaigns that must not see runtime registrations should work on
    ``default_catalog().copy()``.
    """
    return DEFAULT_CATALOG

