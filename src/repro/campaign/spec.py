"""Campaign specs: a validated, declarative description of many runs.

A campaign is a JSON/dict document (eager validation by the rules in
:mod:`repro.checks`, as for ``FaultSchedule``) declaring
experiments x a parameter grid x seeds x fault schedule, expanded
deterministically into :class:`RunSpec` cells::

    {
      "name": "fig9-loss",
      "experiments": ["app_cell"],
      "quick": true,
      "grid": {"protocol": ["tcp", "coap"], "loss": [0.0, 0.09, 0.15]},
      "seeds": [0, 1, 2],
      "faults": null,
      "runner": {"jobs": 4, "timeout_s": null, "retries": 0,
                 "retry_backoff_s": 2.0, "verify": false, "metrics": false}
    }

An ``experiments`` entry is a catalog name, swept over the top-level
``grid``, or ``{"name": label, "experiment": catalog name, "grid":
{...}}``, swept over a grid of its own; ``name`` labels the entry and
is part of no run's identity.  Expansion order is fixed — entries in
spec order, grid axes in spec key order, values in spec order, seeds
last — so the RunSpec list (and every content hash derived from it)
is identical across processes and machines.  Each distinct run comes
once, at its first entry: a point two entries share runs once.  A
*cell* is one ``(experiment, grid point)``; its seeds are the
repetitions the statistics layer aggregates over.  An optimum over
one axis is a grid over it: take the report's argmin
(docs/campaigns.md).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.campaign.catalog import ExperimentCatalog, close_match_hint
from repro.checks import check_block, check_fields, is_int

#: most runs (cells x seeds) one campaign may declare; checked on the
#: declared sizes, before the run list is built
MAX_RUNS = 100_000

#: runner-block defaults: how runs execute, never what they compute,
#: so no run identity includes them
_RUNNER_DEFAULTS = {
    "jobs": None,         # most worker processes; None = every usable core
    "timeout_s": None,    # watchdog per run (watched runs)
    "retries": 0,         # re-runs of a watched run whose worker died
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


def _fail(path: str, message: str):
    raise ValueError(f"campaign spec: {path}: {message}")


def _json_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


#: canonical JSON (sorted keys, no whitespace): what identities hash
_canonical_json = json.JSONEncoder(sort_keys=True,
                                   separators=(",", ":")).encode


def _member(name: str, value) -> str:
    """One ``"name":value`` member of a run's canonical params object."""
    return f"{_canonical_json(name)}:{_canonical_json(value)}"


def _identity(experiment: str, faults: str, members: str, quick: bool,
              seed: str) -> Tuple[str, str]:
    """A run's ``(canonical form, cell id)`` from its parts, each already
    canonical JSON; ``members`` are its params' :func:`_member` texts
    joined by commas in sorted-name order.

    The canonical form is the canonical JSON of the object
    ``{experiment, faults, params, quick, seed}`` spelled out, so a
    campaign encodes each of its grid values once, not once per run.
    Sorted keys put ``"seed"``, an int or null, last: the cell id is
    the same text without that member.
    """
    cell = (f'{{"experiment":{experiment},"faults":{faults},'
            f'"params":{{{members}}},"quick":{"true" if quick else "false"}')
    return f'{cell},"seed":{seed}}}', cell + "}"


def _faults_parts(faults: Optional[Dict]) -> Tuple[Optional[tuple], str]:
    """``(RunSpec.faults, its canonical JSON)`` of a fault schedule."""
    if not faults:
        return None, "null"
    text = json.dumps(faults, sort_keys=True)
    return (text,), _canonical_json(json.loads(text))


@functools.lru_cache(maxsize=8)
def _salted(salt: str):
    """sha256 fed ``salt + "\\0"``: every run id of that salt copies it."""
    return hashlib.sha256(f"{salt}\x00".encode())


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
    #: ``(canonical form, cell id)``, made with the run (:func:`_identity`)
    _identity: Tuple[str, str] = field(kw_only=True, compare=False,
                                       repr=False)

    # -- views ---------------------------------------------------------

    @property
    def params_dict(self) -> Dict:
        return dict(self.params)

    def call_params(self, accepted: frozenset) -> Dict:
        """The kwargs actually passed to the factory.

        The seed rides along when the factory accepts it.
        """
        kwargs = self.params_dict
        if self.seed is not None and "seed" in accepted:
            kwargs["seed"] = self.seed
        return kwargs

    # -- content addressing -------------------------------------------

    def run_id(self, salt: str = "") -> str:
        """Content address: sha256(code-version salt + canonical spec)."""
        digest = _salted(salt).copy()
        digest.update(self._identity[0].encode())
        return digest.hexdigest()

    def cell_id(self) -> str:
        """Identity of the cell this run repeats (seed excluded)."""
        return self._identity[1]


@dataclass
class CampaignSpec:
    """A validated campaign document (use :meth:`from_dict`)."""

    name: str
    #: catalog names, and entries with a grid of their own
    experiments: List[Union[str, Dict]]
    quick: bool
    grid: Dict[str, List]
    seeds: List[int]
    faults: Optional[Dict]
    runner: Dict

    _TOP_KEYS = {"name", "experiments", "quick", "grid", "seeds",
                 "faults", "runner"}

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
        name = spec.get("name", "")
        if not isinstance(name, str):
            _fail("name", f"must be a string, got {name!r}")

        raw_exps = spec.get("experiments")
        if not isinstance(raw_exps, list) or not raw_exps:
            _fail("experiments", f"must be a non-empty list of catalog "
                                 f"names and entries, got {raw_exps!r}")
        # availability is checked later, against the catalog
        experiments: List[Union[str, Dict]] = []
        labels: List[str] = []
        for index, item in enumerate(raw_exps):
            path = f"experiments[{index}]"
            entry = _check_entry(item, path) if isinstance(item, dict) \
                else _check_name(item, path)
            label = entry if isinstance(entry, str) else entry["name"]
            if label in labels:
                _fail(path, f"duplicate entry name {label!r}")
            labels.append(label)
            experiments.append(entry)

        quick = spec.get("quick", True)
        if not isinstance(quick, bool):
            _fail("quick", f"must be a boolean, got {quick!r}")

        grid = _check_grid(spec.get("grid"), "grid")

        seeds = spec.get("seeds", [0])
        if not isinstance(seeds, list) or not seeds or not all(
                is_int(s) for s in seeds):
            _fail("seeds", f"must be a non-empty list of integers, "
                           f"got {seeds!r}")
        if len(set(seeds)) != len(seeds):
            _fail("seeds", f"duplicate seeds in {seeds!r}")
        cells = _cell_count([e["grid"] if isinstance(e, dict) else grid
                             for e in experiments])
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
                                    "(watched runs)")
        for flag in ("verify", "metrics"):
            if not isinstance(runner[flag], bool):
                _fail(f"runner.{flag}", f"must be a boolean, "
                                        f"got {runner[flag]!r}")

        return cls(
            name=name,
            experiments=experiments,
            quick=quick,
            grid=grid,
            seeds=list(seeds),
            faults=faults,
            runner=runner,
        )

    @classmethod
    def from_json(cls, path) -> "CampaignSpec":
        """Load and validate a JSON campaign file."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -- round trip ----------------------------------------------------

    def _to_dict(self) -> Dict:
        return {
            "name": self.name,
            "experiments": [
                dict(entry, grid=_copy_grid(entry["grid"]))
                if isinstance(entry, dict) else entry
                for entry in self.experiments],
            "quick": self.quick,
            "grid": _copy_grid(self.grid),
            "seeds": list(self.seeds),
            "faults": self.faults,
            "runner": dict(self.runner),
        }

    def digest(self) -> str:
        """sha256 of the canonicalized spec (for report provenance).

        The ``runner`` block is left out: it says how runs execute, not
        what the campaign computes, so the report's bytes do not depend
        on it.
        """
        document = self._to_dict()
        del document["runner"]
        return hashlib.sha256(
            _canonical_json(document).encode()).hexdigest()

    # -- expansion -----------------------------------------------------

    def expand(self, catalog: Optional[ExperimentCatalog] = None,
               ) -> List[RunSpec]:
        """Deterministic expansion into :class:`RunSpec` cells x seeds,
        each distinct run once: a point two entries share comes at the
        first of them.

        With a ``catalog``, experiment names and every grid axis are
        validated against the factory signatures (unknown axes fail
        with close-match suggestions, like unknown experiment names).
        """
        # one loop expands both entry forms: a name is an entry over
        # the top-level grid, as (experiment, grid, its spec path)
        entries = [(entry["experiment"], entry["grid"],
                    f"experiments[{i}].grid")
                   if isinstance(entry, dict) else (entry, self.grid, "grid")
                   for i, entry in enumerate(self.experiments)]
        # every identity part is encoded once here, not once per run
        quick = self.quick
        faults, faults_json = _faults_parts(self.faults)
        seen = set()
        runs: List[RunSpec] = []
        for experiment, grid, path in entries:
            axes = list(grid)
            pairs = [[(axis, v) for v in grid[axis]] for axis in axes]
            members = [[_member(axis, v) for v in grid[axis]]
                       for axis in axes]
            # a point comes in spec axis order; its params sort by name
            order = sorted(range(len(axes)), key=axes.__getitem__)
            by_name = operator.itemgetter(*order) if len(axes) > 1 \
                else tuple
            if catalog is not None:
                accepted = catalog.accepted_params(experiment)
                bad = [close_match_hint(a, accepted)
                       for a in axes if a not in accepted]
                if bad:
                    _fail(path, f"experiment {experiment!r} does not "
                                f"accept axis {', '.join(bad)}; "
                                f"it accepts {sorted(accepted)}")
                takes_seed = "seed" in accepted
                if not takes_seed and (len(self.seeds) > 1
                                       or self.seeds != [0]):
                    _fail("seeds", f"experiment {experiment!r} does not "
                                   f"accept a seed, so repetition "
                                   f"seeds {self.seeds} cannot apply")
            else:
                takes_seed = True
            seeds = [(seed, _canonical_json(seed))
                     for seed in (self.seeds if takes_seed else [None])]
            name = _canonical_json(experiment)
            for point, texts in zip(itertools.product(*pairs),
                                    itertools.product(*members)):
                params = by_name(point)
                text = ",".join(by_name(texts))
                for seed, seed_json in seeds:
                    identity = _identity(name, faults_json, text, quick,
                                         seed_json)
                    if identity[0] in seen:
                        continue
                    seen.add(identity[0])
                    runs.append(RunSpec(
                        experiment=experiment, params=params, seed=seed,
                        quick=quick, faults=faults, _identity=identity))
        return runs


#: the keys of an ``experiments`` entry that sweeps a grid of its own
_ENTRY_KEYS = ("name", "experiment", "grid")


def _check_entry(entry: Dict, path: str) -> Dict:
    """An ``experiments`` entry, validated, with all of its keys."""
    unknown = set(entry) - set(_ENTRY_KEYS)
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown, key=str)} (expected "
                    f"a subset of {list(_ENTRY_KEYS)})")
    name = entry.get("name")
    if not isinstance(name, str) or not name.strip():
        _fail(f"{path}.name", f"must be a non-empty string, got {name!r}")
    return {"name": name,
            "experiment": _check_name(entry.get("experiment"),
                                      f"{path}.experiment"),
            "grid": _check_grid(entry.get("grid"), f"{path}.grid")}


def _check_name(name, path: str) -> str:
    """One catalog name: a string with no separator or space in it."""
    if not isinstance(name, str) or \
            name.replace(",", " ").split() != [name]:
        _fail(path, f"must be one catalog name, got {name!r}")
    return name


def _check_grid(grid, path: str) -> Dict[str, List]:
    """A validated grid (``axis -> non-empty list of distinct JSON
    scalars``; ``None``: the empty grid), copied."""
    if grid is None:
        return {}
    if not isinstance(grid, dict):
        _fail(path, f"must be an object, got {grid!r}")
    for axis, values in grid.items():
        if not isinstance(axis, str):
            _fail(path, f"axis names must be strings, got {axis!r}")
        if not isinstance(values, list) or not values:
            _fail(f"{path}.{axis}",
                  f"must be a non-empty list, got {values!r}")
        for v in values:
            if not _json_scalar(v):
                _fail(f"{path}.{axis}",
                      f"values must be JSON scalars, got {v!r}")
        if len(set(map(repr, values))) != len(values):
            _fail(f"{path}.{axis}", f"duplicate values in {values!r}")
    return _copy_grid(grid)


def _copy_grid(grid: Dict[str, List]) -> Dict[str, List]:
    return {axis: list(values) for axis, values in grid.items()}


def _cell_count(grids: List[Dict[str, List]]) -> int:
    """How many cells ``grids``, one per entry, declare together."""
    return sum(math.prod(len(values) for values in grid.values())
               for grid in grids)
