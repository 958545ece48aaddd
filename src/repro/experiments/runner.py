"""The experiment catalog: the paper's tables and figures as factories.

:data:`DEFAULT_CATALOG` maps one name per table/figure (plus the
parameterised grid cells of :mod:`repro.experiments.exp_cells`) to a
factory ``factory(quick, **params)`` that runs it at benchmark
(``quick=False``) or abbreviated durations and returns JSON-ready
rows.  Campaigns run it: a spec with no ``experiments`` runs the whole
catalog, ``tools/campaign.py SPEC.json`` is the command line, and
``repro.api.run_campaign`` the programmatic entry (docs/campaigns.md).
The pytest benchmarks remain the canonical, asserted reproduction.
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
)
from repro.experiments.exp_fairness import run_table9
from repro.experiments.exp_retry_delay import (
    run_eq2_validation,
    run_fig6_sweep,
    run_fig7a_cwnd_trace,
)
from repro.experiments.exp_table7 import run_table7
from repro.experiments.exp_throughput import (
    run_fig4_mss_sweep,
    run_fig5_buffer_sweep,
    run_sec72_hops,
)
from repro.models.headers import table5_rows, table6_rows
from repro.models.memory import (
    modelled_passive_bytes,
    modelled_tcb_bytes,
)


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
# (module-level so pool and supervised workers can import them)
# ----------------------------------------------------------------------


def _d(quick: bool) -> float:
    return 25.0 if quick else 60.0


def _app_d(quick: bool) -> float:
    return 400.0 if quick else 1500.0


def _hours(quick: bool) -> int:
    return 6 if quick else 24


def _exp_static_tables(quick: bool) -> Dict:
    return _static_tables()


def _exp_fig4_mss(quick: bool):
    return run_fig4_mss_sweep(duration=_d(quick))


def _exp_fig5_buffer(quick: bool):
    return run_fig5_buffer_sweep(duration=_d(quick))


def _exp_table7_stacks(quick: bool):
    return run_table7(duration=_d(quick))


def _exp_fig6a_one_hop(quick: bool):
    return run_fig6_sweep(1, duration=_d(quick), ambient_frame_loss=0.03)


def _exp_fig6bcd_three_hops(quick: bool):
    return run_fig6_sweep(3, duration=_d(quick))


def _exp_fig7a_cwnd(quick: bool):
    return _strip_series(run_fig7a_cwnd_trace(duration=2 * _d(quick)))


def _exp_eq2_validation(quick: bool):
    return run_eq2_validation(duration=_d(quick))


def _exp_sec72_hops(quick: bool):
    return run_sec72_hops(duration=_d(quick))


def _exp_fig8_batching(quick: bool):
    return run_fig8_batching(duration=_app_d(quick))


def _exp_fig9_loss(quick: bool):
    return run_fig9_loss_sweep(
        loss_rates=(0.0, 0.09, 0.15, 0.21) if quick else
        (0.0, 0.03, 0.06, 0.09, 0.12, 0.15, 0.18, 0.21),
        duration=_app_d(quick))


def _exp_fig10_daylong_tcp(quick: bool):
    return run_fig10_daylong("tcp", hours=_hours(quick),
                             seconds_per_hour=150.0)


def _exp_fig10_daylong_coap(quick: bool):
    return run_fig10_daylong("coap", hours=_hours(quick),
                             seconds_per_hour=150.0)


def _exp_table8(quick: bool):
    return run_table8(hours=_hours(quick), seconds_per_hour=150.0)


def _exp_table9_fairness(quick: bool):
    return run_table9(duration=1.5 * _d(quick))


def _exp_appendixC_fig12(quick: bool):
    return _strip_rtt_samples(run_fig12_sweep(duration=_d(quick)))


def _exp_appendixC_adaptive(quick: bool):
    return [
        run_adaptive_duty_cycle(uplink=True, duration=_d(quick)),
        run_adaptive_duty_cycle(uplink=False, duration=_d(quick)),
    ]


def _exp_ablations_lossy(quick: bool):
    return run_ablation_table("lossy-1hop", duration=_d(quick))


def _exp_ablations_3hop(quick: bool):
    return run_ablation_table("hidden-3hop", duration=_d(quick))


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
    "fig8_batching": _exp_fig8_batching,
    "fig9_loss": _exp_fig9_loss,
    "fig10_daylong_tcp": _exp_fig10_daylong_tcp,
    "fig10_daylong_coap": _exp_fig10_daylong_coap,
    "table8": _exp_table8,
    "table9_fairness": _exp_table9_fairness,
    "appendixC_fig12": _exp_appendixC_fig12,
    "appendixC_adaptive": _exp_appendixC_adaptive,
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


def _strip_series(row: Dict) -> Dict:
    out = dict(row)
    for key in ("cwnd_series", "ssthresh_series"):
        series = out.pop(key, None)
        if series:
            out[f"{key}_points"] = len(series)
    return out


def _strip_rtt_samples(rows):
    out = []
    for r in rows:
        r = dict(r)
        samples = r.pop("rtt_samples", [])
        r["rtt_samples_count"] = len(samples)
        out.append(r)
    return out
