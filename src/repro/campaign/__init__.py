"""Declarative sweep campaigns over the experiment catalog.

The campaign engine turns "run these experiments over this parameter
grid, N seeds each, and give me statistics" into one validated
document and one call::

    from repro.api import run_campaign, ResultStore

    report = run_campaign({
        "name": "fig9-loss",
        "experiments": ["app_cell"],
        "grid": {"protocol": ["tcp"], "loss": [0.0, 0.09, 0.15]},
        "seeds": [0, 1, 2],
    }, store=ResultStore("results/store"))

Layers (one module each):

* :mod:`~repro.campaign.spec` — ``CampaignSpec``/``RunSpec``:
  validation and deterministic expansion;
* :mod:`~repro.campaign.catalog` — ``ExperimentCatalog`` and the
  shared name resolver;
* :mod:`~repro.campaign.store` — content-addressed ``ResultStore``
  (code-salted hashes, one append-only segment per salt, free resume);
* :mod:`~repro.campaign.stats` — repetition aggregation of every
  numeric leaf of a result, named by its path, with Student-t
  confidence intervals;
* :mod:`~repro.campaign.engine` — job execution (in-process at a
  worker cap of 1 or for one miss, else fanned out from the first
  run) and the ``run_campaign`` driver;
* :mod:`~repro.campaign.report` — ``CampaignReport``: deterministic
  document, JSONL export, grid tables.

See docs/campaigns.md for the full schema and caching contract.
"""

from repro.campaign.catalog import ExperimentCatalog, resolve_selection
from repro.campaign.engine import plan_campaign, run_campaign
from repro.campaign.report import CampaignReport, CellResult
from repro.campaign.spec import CampaignSpec, RunSpec
from repro.campaign.store import ResultStore, code_salt

__all__ = [
    "CampaignReport",
    "CampaignSpec",
    "CellResult",
    "ExperimentCatalog",
    "ResultStore",
    "RunSpec",
    "code_salt",
    "plan_campaign",
    "resolve_selection",
    "run_campaign",
]
