"""Campaign specs: a validated, declarative description of many runs.

A campaign is a JSON/dict document (eager validation by the rules in
:mod:`repro.checks`, as for ``FaultSchedule``; round-trippable
``to_dict``) declaring
experiments x a parameter grid x seeds x fault schedule, expanded
deterministically into :class:`RunSpec` cells::

    {
      "name": "fig9-loss",
      "experiments": ["fig9_cell"],
      "quick": true,
      "grid": {"protocol": ["tcp", "coap"], "loss": [0.0, 0.09, 0.15]},
      "seeds": [0, 1, 2],
      "faults": null,
      "runner": {"jobs": 4, "timeout_s": null, "retries": 0,
                 "retry_backoff_s": 2.0, "verify": false, "metrics": false},
      "stats": {"confidence": 0.95, "metrics": null}
    }

Expansion order is fixed — experiments in spec order, grid axes in
spec key order, values in spec order, seeds last — so the RunSpec
list (and every content hash derived from it) is identical across
processes and machines.  A *cell* is one ``(experiment, grid
point)``; its seeds are the repetitions the statistics layer
aggregates over.  An optimum over one axis is a grid over it: take
the report's argmin (docs/campaigns.md).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.campaign.catalog import ExperimentCatalog, resolve_selection
from repro.campaign.stats import _T_CONFIDENCES
from repro.checks import check_block, check_fields, is_int

#: most runs (cells x seeds) one campaign may declare, and so the
#: largest ``seeds.count``; checked on the declared sizes, before the
#: seed list or the run list is built
MAX_RUNS = 100_000

#: runner-block defaults: how runs execute, never what they compute,
#: so no run identity includes them
_RUNNER_DEFAULTS = {
    "jobs": None,         # most worker processes; None = every usable core
    "timeout_s": None,    # watchdog per run (supervised mode)
    "retries": 0,         # re-runs of a crashed supervised worker
    "retry_backoff_s": 2.0,  # first retry's backoff, doubled per attempt
    "verify": False,      # live invariant engine; a violation fails the run
    "metrics": False,     # per-run metrics snapshots
}

#: (int or float, rule, nullable); see repro.checks.check_fields
_RUNNER_NUMBERS = {
    "jobs": (int, ">= 1", True),
    "timeout_s": (float, "> 0", True),
    "retries": (int, ">= 0", False),
    "retry_backoff_s": (float, ">= 0", False),
}

_STATS_DEFAULTS = {
    "confidence": 0.95,   # one of the t table's levels
    "metrics": None,      # list of result paths to aggregate; None = auto
}


def _fail(path: str, message: str):
    raise ValueError(f"campaign spec: {path}: {message}")


def _json_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


#: canonical JSON (sorted keys, no whitespace): what identities hash
_canonical_json = json.JSONEncoder(sort_keys=True,
                                   separators=(",", ":")).encode


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined run: the unit of execution and caching.

    ``params`` never includes the seed — the seed is a separate field
    so the statistics layer can group repetitions of the same cell.
    ``seed`` is ``None`` for experiments that do not take one (the
    run is then its cell's only repetition).
    """

    experiment: str
    params: tuple = ()          # sorted ((name, value), ...) pairs
    seed: Optional[int] = None
    quick: bool = True
    faults: Optional[tuple] = None   # canonical JSON string, or None

    @classmethod
    def _build(cls, experiment: str, params: Dict, seed, quick: bool,
               faults: Optional[Dict]) -> "RunSpec":
        return cls(
            experiment=experiment,
            params=tuple(sorted(params.items())),
            seed=seed,
            quick=bool(quick),
            faults=(json.dumps(faults, sort_keys=True),) if faults else None,
        )

    # -- views ---------------------------------------------------------

    @property
    def params_dict(self) -> Dict:
        return dict(self.params)

    @property
    def _faults_dict(self) -> Optional[Dict]:
        return json.loads(self.faults[0]) if self.faults else None

    def call_params(self, accepted: set, var_kw: bool) -> Dict:
        """The kwargs actually passed to the factory.

        The seed rides along when the factory accepts it.
        """
        kwargs = self.params_dict
        if self.seed is not None and (var_kw or "seed" in accepted):
            kwargs["seed"] = self.seed
        return kwargs

    def to_dict(self) -> Dict:
        return {
            "experiment": self.experiment,
            "params": self.params_dict,
            "seed": self.seed,
            "quick": self.quick,
            "faults": self._faults_dict,
        }

    # -- content addressing -------------------------------------------

    @functools.cached_property
    def _identity(self) -> Tuple[str, str]:
        """``(canonical, cell_id)`` from one encode.  Sorted keys put
        ``"seed"``, an int or null, last: the cell id is the canonical
        form with that last ``,"seed":`` member cut off."""
        canonical = _canonical_json(self.to_dict())
        return canonical, canonical[:canonical.rindex(',"seed":')] + "}"

    def run_id(self, salt: str = "") -> str:
        """Content address: sha256(code-version salt + canonical spec)."""
        return hashlib.sha256(
            f"{salt}\x00{self._identity[0]}".encode()).hexdigest()

    def cell_id(self) -> str:
        """Identity of the cell this run repeats (seed excluded)."""
        return self._identity[1]


@dataclass
class CampaignSpec:
    """A validated campaign document (use :meth:`from_dict`)."""

    name: str = ""
    experiments: List[str] = field(default_factory=list)
    quick: bool = True
    grid: Dict[str, List] = field(default_factory=dict)
    seeds: List[int] = field(default_factory=lambda: [0])
    faults: Optional[Dict] = None
    runner: Dict = field(default_factory=lambda: dict(_RUNNER_DEFAULTS))
    stats: Dict = field(default_factory=lambda: dict(_STATS_DEFAULTS))

    _TOP_KEYS = {"name", "experiment", "experiments", "quick", "grid",
                 "seeds", "faults", "runner", "stats"}

    # -- construction --------------------------------------------------

    @classmethod
    def from_dict(cls, spec: Dict) -> "CampaignSpec":
        if not isinstance(spec, dict):
            raise ValueError(
                f"campaign spec must be a dict, got {type(spec).__name__}")
        unknown = set(spec) - cls._TOP_KEYS
        if unknown:
            _fail("top level", f"unknown keys {sorted(unknown, key=str)} "
                               f"(expected a subset of "
                               f"{sorted(cls._TOP_KEYS)})")
        if "experiment" in spec and "experiments" in spec:
            _fail("experiments",
                  "give either 'experiment' or 'experiments', not both")
        raw_exps = spec.get("experiments", spec.get("experiment", []))
        if isinstance(raw_exps, str):
            raw_exps = [raw_exps]
        if not isinstance(raw_exps, list) or not all(
                isinstance(e, str) for e in raw_exps):
            _fail("experiments", f"must be a name or list of names, "
                                 f"got {raw_exps!r}")
        # split comma/space forms through the shared resolver rules
        # (availability is checked later, against the catalog)
        experiments: List[str] = []
        for item in raw_exps:
            for part in item.replace(",", " ").split():
                if part not in experiments:
                    experiments.append(part)
        # an empty selection means "the whole catalog", resolved at
        # expand() time

        quick = spec.get("quick", True)
        if not isinstance(quick, bool):
            _fail("quick", f"must be a boolean, got {quick!r}")

        grid = spec.get("grid") or {}
        if not isinstance(grid, dict):
            _fail("grid", f"must be an object, got {grid!r}")
        for axis, values in grid.items():
            if not isinstance(axis, str):
                _fail("grid", f"axis names must be strings, got {axis!r}")
            if not isinstance(values, list) or not values:
                _fail(f"grid.{axis}",
                      f"must be a non-empty list, got {values!r}")
            for v in values:
                if not _json_scalar(v):
                    _fail(f"grid.{axis}",
                          f"values must be JSON scalars, got {v!r}")
            if len(set(map(repr, values))) != len(values):
                _fail(f"grid.{axis}", f"duplicate values in {values!r}")

        seeds = spec.get("seeds", [0])
        if isinstance(seeds, dict):
            extra = set(seeds) - {"count", "base"}
            if extra:
                _fail("seeds", f"unknown keys {sorted(extra, key=str)}")
            count = seeds.get("count")
            if not is_int(count, 1) or count > MAX_RUNS:
                _fail("seeds.count", f"must be an integer in "
                                     f"1..{MAX_RUNS}, got {count!r}")
            base = seeds.get("base", 0)
            if not is_int(base):
                _fail("seeds.base", f"must be an integer, got {base!r}")
            seeds = list(range(base, base + count))
        if not isinstance(seeds, list) or not seeds or not all(
                is_int(s) for s in seeds):
            _fail("seeds", f"must be a non-empty list of integers "
                           f"(or {{'count': N, 'base': B}}), got {seeds!r}")
        if len(set(seeds)) != len(seeds):
            _fail("seeds", f"duplicate seeds in {seeds!r}")
        cells = _cell_count(grid, experiments)
        if cells * len(seeds) > MAX_RUNS:
            _fail("grid", f"{cells} cells x {len(seeds)} seeds is more "
                          f"than {MAX_RUNS} runs")

        faults = spec.get("faults")
        if faults is not None:
            from repro.faults import FaultSchedule

            faults = FaultSchedule.from_dict(faults).to_dict()

        runner = check_block(spec.get("runner"), _RUNNER_DEFAULTS,
                             "campaign spec: runner")
        check_fields(runner, _RUNNER_NUMBERS, "campaign spec: runner.")
        if runner["retries"] and runner["timeout_s"] is None:
            _fail("runner.retries", "requires runner.timeout_s "
                                    "(supervised mode)")
        for flag in ("verify", "metrics"):
            if not isinstance(runner[flag], bool):
                _fail(f"runner.{flag}", f"must be a boolean, "
                                        f"got {runner[flag]!r}")

        stats = check_block(spec.get("stats"), _STATS_DEFAULTS,
                            "campaign spec: stats")
        if not (isinstance(stats["confidence"], float)
                and stats["confidence"] in _T_CONFIDENCES):
            _fail("stats.confidence", f"must be one of {_T_CONFIDENCES}, "
                                      f"got {stats['confidence']!r}")
        if stats["metrics"] is not None and not (
                isinstance(stats["metrics"], list)
                and all(isinstance(m, str) for m in stats["metrics"])):
            _fail("stats.metrics", f"must be a list of result "
                                   f"paths or null, "
                                   f"got {stats['metrics']!r}")

        return cls(
            name=str(spec.get("name", "")),
            experiments=experiments,
            quick=quick,
            grid={k: list(v) for k, v in grid.items()},
            seeds=list(seeds),
            faults=faults,
            runner=runner,
            stats=stats,
        )

    @classmethod
    def from_json(cls, path) -> "CampaignSpec":
        """Load and validate a JSON campaign file."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -- round trip ----------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "experiments": list(self.experiments),
            "quick": self.quick,
            "grid": {k: list(v) for k, v in self.grid.items()},
            "seeds": list(self.seeds),
            "faults": self.faults,
            "runner": dict(self.runner),
            "stats": dict(self.stats),
        }

    def digest(self) -> str:
        """sha256 of the canonicalized spec (for report provenance).

        ``runner.jobs`` is left out: how many processes ran a campaign
        is not what it computes, so the report's bytes do not depend
        on it.
        """
        document = self.to_dict()
        del document["runner"]["jobs"]
        return hashlib.sha256(
            _canonical_json(document).encode()).hexdigest()

    # -- expansion -----------------------------------------------------

    def expand(self, catalog: Optional[ExperimentCatalog] = None,
               ) -> List[RunSpec]:
        """Deterministic expansion into :class:`RunSpec` cells x seeds.

        With a ``catalog``, experiment names and every grid axis are
        validated against the factory signatures (unknown axes fail
        with close-match suggestions, like unknown experiment names).
        """
        experiments = self.experiments
        if catalog is not None:
            if experiments:
                resolve_selection(experiments, catalog.names())
            else:
                experiments = catalog.names()
        runs: List[RunSpec] = []
        axes = list(self.grid)
        for experiment in experiments:
            accepted, var_kw = (set(), True)
            if catalog is not None:
                accepted, var_kw = catalog.accepted_params(experiment)
                bad = [a for a in axes if a not in accepted] \
                    if not var_kw else []
                if bad:
                    import difflib

                    hints = []
                    for axis in bad:
                        close = difflib.get_close_matches(
                            axis, sorted(accepted), n=3, cutoff=0.5)
                        hints.append(
                            f"{axis!r}"
                            + (f" (did you mean "
                               f"{' or '.join(repr(c) for c in close)}?)"
                               if close else ""))
                    _fail("grid", f"experiment {experiment!r} does not "
                                  f"accept axis {', '.join(hints)}; "
                                  f"it accepts {sorted(accepted)}")
                takes_seed = var_kw or "seed" in accepted
                if not takes_seed and (len(self.seeds) > 1
                                       or self.seeds != [0]):
                    _fail("seeds", f"experiment {experiment!r} does not "
                                   f"accept a seed, so repetition "
                                   f"seeds {self.seeds} cannot apply")
            else:
                takes_seed = True
            seeds = self.seeds if takes_seed else [None]
            for values in itertools.product(*self.grid.values()):
                point = dict(zip(axes, values))
                for seed in seeds:
                    runs.append(RunSpec._build(
                        experiment=experiment, params=point, seed=seed,
                        quick=self.quick, faults=self.faults))
        return runs

    def cells(self) -> int:
        """Number of grid cells (runs / repetitions)."""
        return _cell_count(self.grid, self.experiments)


def _cell_count(grid: Dict[str, List], experiments: List[str]) -> int:
    return (math.prod(len(values) for values in grid.values())
            * max(1, len(experiments)))
