"""No paper point is a no-op: two points of one grid entry of
``campaigns/paper.json`` never measure the same thing, unless the
reason is declared here.

A point whose knob cannot act (a retry delay on a link that never
retries) reads exactly like its neighbour; such a point shows nothing
and is either declared with its reason or removed from its grid.
"""

import itertools

import pytest
from conftest import PAPER_SPEC, paper

from repro.api import CampaignSpec

#: the fields each cell copies from its point rather than measures,
#: each with the axes it copies
ECHOES = {
    "single_hop_cell": {"frames": ("frames",), "window": ("window",),
                        "uplink": ("uplink",),
                        "mss_bytes": ("frames", "uplink")},
    "retry_delay_cell": {"hops": ("hops",), "delay_ms": ("delay",)},
    "app_cell": {"protocol": ("protocol",), "batching": ("batching",),
                 "injected_loss": ("loss",)},
    "duty_cell": {"sleep_interval": ("sleep_interval",),
                  "direction": ("uplink",)},
    "ablation_cell": {"ablation": ("ablation",), "scenario": ("scenario",)},
}

_LOSSY = "scenario=lossy-1hop"
#: (entry, point, point) -> why those two points may read alike
DECLARED = {
    ("ablations_clean", "ablation=no SACK, scenario=clean-1hop",
     "ablation=no OOO reassembly, scenario=clean-1hop"):
        "the clean hop loses nothing, so there is no hole to repair "
        "or to hold data behind (no OOO reassembly also drops SACK)",
    ("ablations_lossy", f"ablation=full TCPlp, {_LOSSY}",
     f"ablation=no delayed ACKs, {_LOSSY}"):
        "only the sender is ablated: the unablated cloud receiver "
        "sends every ACK, so the sender's delayed-ACK flag never acts",
    ("ablations_lossy", f"ablation=no SACK, {_LOSSY}",
     f"ablation=no OOO reassembly, {_LOSSY}"):
        "the hop is RTO-bound at a 4-segment window and the sender "
        "receives no data to reassemble, so dropping reassembly on top "
        "of SACK changes nothing",
}

GRIDS = [entry for entry in PAPER_SPEC["experiments"]
         if isinstance(entry, dict)]


def _label(run) -> str:
    return ", ".join(f"{k}={v}" for k, v in run.params)


def _points(entry):
    """Each point's params and result, in grid order."""
    runs = CampaignSpec.from_dict(
        {**PAPER_SPEC, "experiments": [entry]}).expand()
    return runs, paper(entry["name"])


@pytest.mark.parametrize("entry", GRIDS, ids=[e["name"] for e in GRIDS])
def test_the_echoes_are_the_points_own(entry):
    """``ECHOES`` names what each result copies and no more: every
    result holds each echoed field, whose values match its axes' values
    one to one, and no result field named after an axis reads that
    axis's value at every point unless it is listed."""
    runs, results = _points(entry)
    echoes = ECHOES[entry["experiment"]]
    for field, axes in echoes.items():
        assert all(field in result for result in results), field
        pairs = {(tuple(run.params_dict.get(a) for a in axes), result[field])
                 for run, result in zip(runs, results)}
        assert len(pairs) == len({key for key, _ in pairs}) == len(
            {value for _, value in pairs}), field
    # an absent field reads as the run, which equals no axis value
    unlisted = [axis for axis in entry["grid"] if axis not in echoes
                and all(result.get(axis, run) == run.params_dict[axis]
                        for run, result in zip(runs, results))]
    assert unlisted == []


@pytest.mark.parametrize("entry", GRIDS, ids=[e["name"] for e in GRIDS])
def test_no_two_points_of_an_entry_read_alike(entry):
    runs, results = _points(entry)
    echoes = ECHOES[entry["experiment"]]
    measured = [{k: v for k, v in result.items() if k not in echoes}
                for result in results]
    alike = [(entry["name"], _label(runs[i]), _label(runs[j]))
             for i, j in itertools.combinations(range(len(runs)), 2)
             if measured[i] == measured[j]]
    assert [pair for pair in alike if pair not in DECLARED] == []
