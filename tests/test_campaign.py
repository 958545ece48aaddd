"""Campaign engine: spec validation, expansion determinism, caching,
verification, statistics, grid optima, the facade and the CLI."""

import functools
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignSpec,
    ExperimentCatalog,
    ResultStore,
    RunSpec,
    plan_campaign,
    run_campaign,
)
from repro.campaign import engine, stats
from repro.campaign.catalog import close_match_hint
from repro.campaign.spec import (
    _canonical_json,
    _faults_parts,
    _identity,
    _member,
)
from repro.campaign.stats import _aggregate, aggregate_cell
from repro.sim import metrics as metrics_mod

SRC = Path(__file__).resolve().parent.parent / "src"
TOOLS = Path(__file__).resolve().parent.parent / "tools"


# ----------------------------------------------------------------------
# the canonical-form oracle: one run built and encoded from its dict
# ----------------------------------------------------------------------


def _build(experiment, params, seed, quick, faults):
    """The :class:`RunSpec` of one run, its identity composed from its
    parts the way ``CampaignSpec.expand`` composes it."""
    pairs = tuple(sorted(params.items()))
    quick = bool(quick)
    faults, faults_json = _faults_parts(faults)
    return RunSpec(
        experiment=experiment, params=pairs, seed=seed, quick=quick,
        faults=faults,
        _identity=_identity(
            _canonical_json(experiment), faults_json,
            ",".join([_member(name, value) for name, value in pairs]),
            quick, _canonical_json(seed)))


def _run_dict(run):
    """The dict whose canonical JSON a run's identity must be."""
    return {"experiment": run.experiment, "params": run.params_dict,
            "seed": run.seed, "quick": run.quick,
            "faults": json.loads(run.faults[0]) if run.faults else None}


# ----------------------------------------------------------------------
# module-level factories (picklable, introspectable)
# ----------------------------------------------------------------------


def linear_cell(quick, x=1, scale=10, seed=0):
    """Deterministic analytic cell: value depends on params + seed."""
    del quick
    return {"value": x * scale + seed, "x": x, "tag": "linear"}


def quadratic_cell(quick, x=0.0, seed=0):
    del quick, seed
    return {"loss_metric": (x - 3.0) ** 2 + 1.0}


def seedless_cell(quick, x=1):
    del quick
    return {"value": x}


def failing_cell(quick, x=1, seed=0):
    del quick, seed
    if x == 2:
        raise RuntimeError("x=2 always fails")
    return {"value": x}


def tagged_cell(quick, x=1, tag="", seed=0):
    """Seeded cell with a string axis and a far outlier at seed 3."""
    del quick
    return {"value": x + 0.25 * seed + (50.0 if seed == 3 else 0.0),
            "tag_len": len(tag), "odd": seed % 2 == 1}


def slow_cell(quick, x=0, seed=0):
    """Slow enough that a campaign over it can be killed part-way."""
    del quick
    time.sleep(0.02)
    return {"value": 3 * x + seed}


def spinning_cell(quick, spin=0.05, seed=0):
    """A cell that burns ``spin`` seconds of its own CPU."""
    del quick
    start = time.process_time()
    while time.process_time() - start < spin:
        pass
    return {"value": seed}


def rows_cell(quick, seed=0):
    """A list of row dicts, the shape of most paper rows (Fig. 9)."""
    del quick
    return [{"loss": 0.0, "reliability": 1.0, "protocol": "tcp"},
            {"loss": 0.21, "reliability": 0.9 + 0.02 * seed,
             "protocol": "tcp", "stable": seed > 0}]


def nested_cell(quick, seed=0):
    """A nested dict, the shape of Fig. 13's RTT percentiles."""
    del quick
    return {direction: {"samples": 10 + seed, "p50": base + 0.1 * seed}
            for direction, base in (("up", 1.1), ("down", 2.0))}


def make_catalog():
    return ExperimentCatalog({
        "linear_cell": linear_cell,
        "quadratic_cell": quadratic_cell,
        "seedless_cell": seedless_cell,
        "failing_cell": failing_cell,
    })


def run_quiet(spec, **kwargs):
    return run_campaign(spec, progress=lambda *_: None, **kwargs)


# ----------------------------------------------------------------------
# selection: an experiments list names catalog entries one by one
# ----------------------------------------------------------------------


class TestResolveSelection:
    def test_close_match_suggestion(self):
        assert close_match_hint("fig9_los", ["fig9_loss", "static"]) \
            == "'fig9_los' (did you mean 'fig9_loss'?)"

    def test_name_without_a_close_match_is_named_alone(self):
        assert close_match_hint("zzz", ["fig9_loss", "fig4_mss"]) == "'zzz'"
        with pytest.raises(ValueError) as err:
            make_catalog().get("zzz")
        assert "unknown experiment 'zzz'; choose from" in str(err.value)
        assert "did you mean" not in str(err.value)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match=r"experiments\[0\]: must be "
                                             r"one catalog name, got ''"):
            CampaignSpec.from_dict({"experiments": [""]})

    def test_non_string_entry_rejected(self):
        with pytest.raises(ValueError, match=r"experiments\[0\]: must be "
                                             r"one catalog name, got 3"):
            CampaignSpec.from_dict({"experiments": [3]})


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------


class TestExperimentCatalog:
    def test_register_and_names_preserve_order(self):
        cat = make_catalog()
        assert cat.names()[:2] == ["linear_cell", "quadratic_cell"]
        assert "linear_cell" in cat and len(cat) == 4

    def test_unknown_name_suggests(self):
        with pytest.raises(ValueError, match="did you mean"):
            make_catalog().get("linear_cel")

    def test_accepted_params_drops_quick(self):
        accepted = make_catalog().accepted_params("linear_cell")
        assert accepted == {"x", "scale", "seed"}

    def test_accepted_params_inspects_once_per_registration(
            self, monkeypatch):
        inspected = []
        real = inspect.signature

        def counting(fn, *args, **kwargs):
            inspected.append(fn)
            return real(fn, *args, **kwargs)

        monkeypatch.setattr(inspect, "signature", counting)
        cat = make_catalog()
        for _ in range(3):
            assert cat.accepted_params("linear_cell") == {
                "x", "scale", "seed"}
        assert inspected == [linear_cell]
        with pytest.raises(ValueError, match="unknown experiment"):
            cat.accepted_params("linear_cel")
        # another catalog of the same entries inspects for itself
        assert make_catalog().accepted_params("linear_cell") == {
            "x", "scale", "seed"}
        assert inspected == [linear_cell, linear_cell]


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------


class TestSpecValidation:
    def test_unknown_top_key(self):
        with pytest.raises(ValueError, match="unknown keys"):
            CampaignSpec.from_dict({"experiments": ["x"], "grids": {}})

    def test_removed_kernel_knob_is_an_unknown_key(self):
        for knob in ({"accel": True}, {"fidelity": "full"}):
            with pytest.raises(ValueError,
                               match=r"unknown keys \['kernel'\]"):
                CampaignSpec.from_dict({"experiments": ["x"],
                                        "kernel": knob})

    @pytest.mark.parametrize("block, path", [
        # the retired seed-count form is refused whole; each row keeps
        # the id it had while its count was a checked number
        pytest.param({"seeds": {"count": 10**9}}, "seeds",
                     id="block0-seeds.count"),
        pytest.param({"seeds": {"count": 10**30}}, "seeds",
                     id="block1-seeds.count"),
        pytest.param({"seeds": {"count": True}}, "seeds",
                     id="block2-seeds.count"),
        ({"seeds": list(range(1000)),
          "grid": {"a": list(range(101))}}, "grid"),
        ({"runner": {"jobs": True}}, "runner.jobs"),
        ({"runner": {"retries": True, "timeout_s": 1.0}}, "runner.retries"),
        ({"runner": {"timeout_s": True}}, "runner.timeout_s"),
        ({"runner": {"timeout_s": float("inf")}}, "runner.timeout_s"),
        # the retired stats block is an unknown key, whatever it holds;
        # each row keeps the id it had while its key was a checked number
        pytest.param({"stats": {"warmup": True}}, "top level",
                     id="block8-stats.warmup"),
        pytest.param({"stats": {"outlier_iqr": True}}, "top level",
                     id="block9-stats.outlier_iqr"),
        pytest.param({"stats": {"method": "bootstrap",
                                "bootstrap_samples": 0}}, "top level",
                     id="block10-stats.bootstrap_samples"),
        pytest.param({"stats": {"method": "bootstrap",
                                "bootstrap_samples": -5}}, "top level",
                     id="block11-stats.bootstrap_samples"),
        pytest.param({"stats": {"bootstrap_samples": "many"}}, "top level",
                     id="block12-stats.bootstrap_samples"),
        pytest.param({"stats": {"bootstrap_samples": 2.5}}, "top level",
                     id="block13-stats.bootstrap_samples"),
        ({"runner": {"retry_backoff_s": "x"}}, "runner.retry_backoff_s"),
        ({"runner": {"retry_backoff_s": -1.0}}, "runner.retry_backoff_s"),
        ({"runner": {"retry_backoff_s": float("inf")}},
         "runner.retry_backoff_s"),
        ({"runner": {"retry_backoff_s": True}}, "runner.retry_backoff_s"),
        # unknown keys of mixed types are listed, not compared
        ({"runner": {1: 0, "x": 0}}, "runner"),
        ({"seeds": {1: 0, "x": 0}}, "seeds"),
        ({1: 0, "x": 0}, "top level"),
        # objective search is retired: a grid and the report's argmin
        ({"objective": {"metric": "m", "axis": "x", "bounds": [0, 10]}},
         "top level"),
        # every interval is a 95 % one: a level is refused as a key
        pytest.param({"stats": {"confidence": 0.97}, "seeds": [0, 1, 2]},
                     "top level", id="block22-stats.confidence"),
    ])
    def test_hostile_numbers_are_refused(self, block, path):
        with pytest.raises(ValueError,
                           match=rf"campaign spec: {re.escape(path)}: "):
            CampaignSpec.from_dict({"experiments": ["x"], **block})

    def test_grid_values_must_be_scalars(self):
        with pytest.raises(ValueError, match="JSON scalars"):
            CampaignSpec.from_dict(
                {"experiments": ["x"], "grid": {"a": [[1]]}})

    def test_duplicate_grid_values(self):
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec.from_dict(
                {"experiments": ["x"], "grid": {"a": [1, 1]}})

    def test_duplicate_seeds(self):
        with pytest.raises(ValueError, match="duplicate seeds"):
            CampaignSpec.from_dict({"experiments": ["x"],
                                    "seeds": [0, 0]})

    @pytest.mark.parametrize("spec, refusal", [
        pytest.param({"experiment": "linear_cell"},
                     r"top level: unknown keys \['experiment'\]",
                     id="experiment-alias"),
        pytest.param({"experiment": "linear_cell",
                      "experiments": ["quadratic_cell"]},
                     r"top level: unknown keys \['experiment'\]",
                     id="experiment-alias-beside-the-list"),
        pytest.param({"experiments": "linear_cell"}, r"experiments: ",
                     id="bare-name"),
        pytest.param({"experiments": {"name": "a",
                                      "experiment": "linear_cell"}},
                     r"experiments: ",
                     id="bare-entry"),
        pytest.param({"experiments": ["linear_cell,quadratic_cell"]},
                     r"experiments\[0\]: must be one catalog name",
                     id="comma-joined"),
        pytest.param({"experiments": ["linear_cell quadratic_cell"]},
                     r"experiments\[0\]: must be one catalog name",
                     id="space-joined"),
        pytest.param({"experiments": ["linear_cell", "linear_cell"]},
                     r"experiments\[1\]: duplicate entry name "
                     r"'linear_cell'", id="name-twice"),
        pytest.param({"experiments": []}, r"experiments: ",
                     id="empty-list"),
        pytest.param({}, r"experiments: ", id="no-experiments"),
        pytest.param({"experiments": ["linear_cell"],
                      "seeds": {"count": 3, "base": 5}}, r"seeds: ",
                     id="seed-count"),
        pytest.param({"experiments": ["linear_cell"],
                      "stats": {"confidence": 0.95}},
                     r"top level: unknown keys \['stats'\]",
                     id="stats-confidence"),
        pytest.param({"experiments": ["linear_cell"],
                      "stats": {"metrics": ["value"]}},
                     r"top level: unknown keys \['stats'\]",
                     id="stats-metrics"),
        # a value of another type is refused, not coerced
        pytest.param({"experiments": ["linear_cell"], "name": None},
                     r"name: must be a string", id="name-not-a-string"),
        pytest.param({"experiments": ["linear_cell"], "grid": []},
                     r"grid: must be an object", id="grid-an-empty-list"),
        pytest.param({"experiments": [{"name": "a", "grid": 0,
                                       "experiment": "linear_cell"}]},
                     r"experiments\[0\]\.grid: must be an object",
                     id="entry-grid-zero"),
    ])
    def test_a_retired_spelling_is_refused_by_its_key(self, spec, refusal):
        """Each spelling no caller writes any more fails when the spec
        is read, naming its key, instead of meaning something."""
        with pytest.raises(ValueError,
                           match=rf"^campaign spec: {refusal}"):
            CampaignSpec.from_dict(spec)

    def test_retries_need_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            CampaignSpec.from_dict({"experiments": ["x"],
                                    "runner": {"retries": 2}})

    def test_unknown_experiment_fails_at_expand(self):
        spec = CampaignSpec.from_dict({"experiments": ["linear_cel"]})
        with pytest.raises(ValueError, match="did you mean"):
            spec.expand(make_catalog())

    def test_unknown_grid_axis_suggests(self):
        spec = CampaignSpec.from_dict(
            {"experiments": ["linear_cell"], "grid": {"scal": [1]}})
        with pytest.raises(ValueError, match="did you mean 'scale'"):
            spec.expand(make_catalog())

    def test_seeds_against_seedless_experiment(self):
        spec = CampaignSpec.from_dict(
            {"experiments": ["seedless_cell"], "seeds": [0, 1]})
        with pytest.raises(ValueError, match="does not accept a seed"):
            spec.expand(make_catalog())

    def test_round_trip(self):
        doc = {"name": "n", "experiments": ["linear_cell"],
               "grid": {"x": [1, 2]}, "seeds": [0, 1]}
        spec = CampaignSpec.from_dict(doc)
        again = CampaignSpec.from_dict(spec._to_dict())
        assert spec._to_dict() == again._to_dict()
        assert spec.digest() == again.digest()


# ----------------------------------------------------------------------
# expansion determinism
# ----------------------------------------------------------------------

_EXPANSION_SPEC = {
    "experiments": ["linear_cell"],
    "grid": {"x": [2, 1], "scale": [10, 100]},
    "seeds": [1, 0],
}

#: a fault schedule whose own "seed" member the encoded run carries
_FAULTS = {"faults": [{"kind": "bursty_loss", "p_good_bad": 0.03,
                       "p_bad_good": 0.3}], "seed": 4}

#: a fault schedule as a spec gives it, with a name an encoder can trip on
_SCHEDULE = {"name": 'lossy é,"seed":1', "faults": [
    {"kind": "bursty_loss", "p_good_bad": 0.03, "p_bad_good": 0.3},
    {"kind": "node_reboot", "node": 1, "at": 25, "outage": 3}]}


class TestExpansion:
    def test_fixed_order(self):
        spec = CampaignSpec.from_dict(_EXPANSION_SPEC)
        runs = spec.expand(make_catalog())
        # grid axes in spec key order (first axis outermost), values
        # in spec order, seeds last
        key = [(r.params_dict["x"], r.params_dict["scale"], r.seed)
               for r in runs]
        assert key == [
            (2, 10, 1), (2, 10, 0), (2, 100, 1), (2, 100, 0),
            (1, 10, 1), (1, 10, 0), (1, 100, 1), (1, 100, 0),
        ]

    def test_seedless_experiment_collapses_to_one_rep(self):
        spec = CampaignSpec.from_dict(
            {"experiments": ["seedless_cell"], "grid": {"x": [2, 1]}})
        runs = spec.expand(make_catalog())
        assert [(r.params_dict["x"], r.seed) for r in runs] == [
            (2, None), (1, None)]

    def test_run_ids_stable_across_processes(self):
        spec = CampaignSpec.from_dict(_EXPANSION_SPEC)
        here = [r.run_id("fixed-salt") for r in spec.expand()]
        script = (
            "import json, sys\n"
            "from repro.campaign import CampaignSpec\n"
            "spec = CampaignSpec.from_dict(json.loads(sys.argv[1]))\n"
            "print(json.dumps([r.run_id('fixed-salt')\n"
            "                  for r in spec.expand()]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(_EXPANSION_SPEC)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert json.loads(out.stdout) == here

    def test_params_order_does_not_change_identity(self):
        a = _build("e", {"a": 1, "b": 2}, 0, True, None)
        b = _build("e", {"b": 2, "a": 1}, 0, True, None)
        assert a.run_id("s") == b.run_id("s")

    def test_seed_changes_run_id_but_not_cell_id(self):
        a = _build("e", {"x": 1}, 0, True, None)
        b = _build("e", {"x": 1}, 1, True, None)
        assert a.run_id("s") != b.run_id("s")
        assert a.cell_id() == b.cell_id()

    @given(experiment=st.text(max_size=8),
           params=st.dictionaries(
               st.sampled_from(["loss", "seed", "x", ',"seed":']),
               st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(), st.text(max_size=8),
                         st.sampled_from([',"seed":', ',"seed":null}'])),
               max_size=4),
           seed=st.one_of(st.none(), st.integers(),
                          st.sampled_from([-1, 10**30, -10**30])),
           quick=st.booleans(),
           faults=st.sampled_from([None, _FAULTS]))
    @settings(max_examples=200, deadline=None)
    def test_cell_id_is_the_canonical_form_without_the_seed(
            self, experiment, params, seed, quick, faults):
        run = _build(experiment, params, seed, quick, faults)
        doc = _run_dict(run)
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        assert run.run_id("s") == hashlib.sha256(
            f"s\x00{encode(doc)}".encode()).hexdigest()
        del doc["seed"]
        assert run.cell_id() == encode(doc)

    @given(experiments=st.lists(
               # one catalog name each: no separator, no space
               st.text(min_size=1, max_size=6).filter(
                   lambda name: name.replace(",", " ").split() == [name]),
               min_size=1, max_size=2, unique=True),
           grid=st.dictionaries(
               st.one_of(st.text(max_size=6),
                         st.sampled_from([',"seed":', "seed", "é☃",
                                          "frame_loss", "frames"])),
               st.lists(st.one_of(
                   st.none(), st.booleans(), st.integers(), st.floats(),
                   st.sampled_from([-0.0, 10**30, -2**70, 1e300]),
                   st.text(max_size=6)), min_size=1, max_size=3,
                   unique_by=repr),
               max_size=3),
           seeds=st.lists(st.one_of(st.integers(),
                                    st.sampled_from([-1, 10**30])),
                          min_size=1, max_size=3, unique=True),
           quick=st.booleans(),
           faults=st.sampled_from([None, _SCHEDULE]))
    @settings(max_examples=100, deadline=None)
    def test_expanded_identities_are_those_of_the_encoded_run(
            self, experiments, grid, seeds, quick, faults):
        """``expand`` composes each run's identity from parts encoded
        once per campaign; every one must equal what encoding the
        run's whole dict gives."""
        spec = CampaignSpec.from_dict({
            "experiments": experiments, "grid": grid, "seeds": seeds,
            "quick": quick, "faults": faults})
        runs = spec.expand()
        assert len(runs) == math.prod(
            len(values) for values in spec.grid.values()) * len(
            spec.experiments) * len(seeds)
        assert len(runs) == len({run.cell_id() for run in runs}) * len(seeds)
        for run in runs:
            doc = _run_dict(run)
            assert run.run_id("s") == hashlib.sha256(
                f"s\x00{_canonical_json(doc)}".encode()).hexdigest()
            del doc["seed"]
            assert run.cell_id() == _canonical_json(doc)


# ----------------------------------------------------------------------
# entries: an experiment swept over a grid of its own
# ----------------------------------------------------------------------


def _entry(name, experiment="linear_cell", **grid):
    return {"name": name, "experiment": experiment, "grid": grid}


class TestEntries:
    def test_unknown_entry_key(self):
        with pytest.raises(ValueError, match=r"experiments\[0\]: unknown "
                                             r"keys \['grids'\]"):
            CampaignSpec.from_dict({"experiments": [
                {"name": "a", "experiment": "linear_cell", "grids": {}}]})

    @pytest.mark.parametrize("entry", [
        {"name": "a"}, {"name": "a", "experiment": 3},
        {"name": "a", "experiment": "linear_cell,quadratic_cell"},
        {"name": "", "experiment": "linear_cell"},
        {"experiment": "linear_cell"},
    ])
    def test_an_entry_has_a_name_and_one_experiment(self, entry):
        with pytest.raises(ValueError, match=r"experiments\[0\]\."
                                             r"(name|experiment): must be"):
            CampaignSpec.from_dict({"experiments": [entry]})

    def test_unknown_entry_experiment_fails_at_expand(self):
        spec = CampaignSpec.from_dict(
            {"experiments": [_entry("a", "linear_cel")]})
        with pytest.raises(ValueError, match="did you mean 'linear_cell'"):
            spec.expand(make_catalog())

    @pytest.mark.parametrize("experiments", [
        [_entry("a"), _entry("a", "quadratic_cell")],
        ["linear_cell", _entry("linear_cell")],
        [_entry("linear_cell", "quadratic_cell"), "linear_cell"],
    ])
    def test_duplicate_entry_name(self, experiments):
        with pytest.raises(ValueError, match="duplicate entry name"):
            CampaignSpec.from_dict({"experiments": experiments})

    @pytest.mark.parametrize("grid, message", [
        ({"x": [1, 1]}, r"\.grid\.x: duplicate values"),
        ({"x": [[1]]}, r"\.grid\.x: values must be JSON scalars"),
        ({"x": []}, r"\.grid\.x: must be a non-empty list"),
        ([1], r"\.grid: must be an object"),
    ])
    def test_an_entry_grid_is_checked_as_the_top_level_one(self, grid,
                                                           message):
        with pytest.raises(ValueError,
                           match=r"campaign spec: experiments\[1\]"
                                 + message):
            CampaignSpec.from_dict({"experiments": [
                "seedless_cell",
                {"name": "a", "experiment": "linear_cell", "grid": grid}]})

    def test_an_axis_the_cell_refuses_suggests(self):
        """The entry is addressed by its index in the document, as a bad
        grid value is."""
        spec = CampaignSpec.from_dict({"experiments": [
            "seedless_cell", _entry("lin", scal=[1])]})
        with pytest.raises(ValueError, match=r"experiments\[1\]\.grid: .*"
                                             r"did you mean 'scale'"):
            spec.expand(make_catalog())

    def test_an_entry_is_a_name_over_its_own_grid(self):
        """``name`` labels the entry and nothing else: a name entry over
        the top-level grid and a grid entry make the same runs."""
        named = CampaignSpec.from_dict(
            {"experiments": ["linear_cell"], "grid": {"x": [1, 2]}})
        entry = CampaignSpec.from_dict(
            {"experiments": [_entry("any label", x=[1, 2])]})
        assert [r.run_id("s") for r in named.expand(make_catalog())] == [
            r.run_id("s") for r in entry.expand(make_catalog())]
        again = CampaignSpec.from_dict(entry._to_dict())
        assert again._to_dict() == entry._to_dict()
        assert again.digest() == entry.digest() != named.digest()

    def test_a_shared_point_runs_once(self, tmp_path):
        spec = {"name": "shared", "seeds": [0, 1], "experiments": [
            _entry("wide", x=[1, 2], scale=[10]),
            # the same point whatever the axis order
            _entry("narrow", scale=[10], x=[2, 3]),
            "quadratic_cell"]}
        runs = CampaignSpec.from_dict(spec).expand(make_catalog())
        assert [(r.experiment, r.params_dict.get("x"), r.seed)
                for r in runs] == [
            ("linear_cell", 1, 0), ("linear_cell", 1, 1),
            ("linear_cell", 2, 0), ("linear_cell", 2, 1),
            ("linear_cell", 3, 0), ("linear_cell", 3, 1),
            ("quadratic_cell", None, 0), ("quadratic_cell", None, 1)]
        store = ResultStore(tmp_path / "store", salt="s")
        report = run_quiet(spec, store=store, catalog=make_catalog())
        assert report.execution["executed"] == len(runs) == len(store)
        assert [(c.params.get("x"), c.seeds) for c in report.cells] == [
            (1, [0, 1]), (2, [0, 1]), (3, [0, 1]), (None, [0, 1])]
        alone = run_quiet(dict(spec, experiments=[spec["experiments"][1]]),
                          store=store, catalog=make_catalog())
        assert alone.execution["cache_hits"] == 4
        assert alone.cells[0].run_ids == report.cells[1].run_ids


# ----------------------------------------------------------------------
# caching: hits, misses, salt invalidation, failures, resume
# ----------------------------------------------------------------------

_CACHE_SPEC = {
    "name": "cache-test",
    "experiments": ["linear_cell"],
    "grid": {"x": [1, 2]},
    "seeds": [0, 1],
}

_RESUME_SPEC = {
    "name": "resume-test",
    "experiments": ["slow_cell"],
    "grid": {"x": list(range(40))},
}

#: what a child process runs until the resume test kills it
_RESUME_SCRIPT = """
import sys
from repro.campaign import ResultStore, run_campaign
from tests.test_campaign import _RESUME_SPEC, _resume_catalog
run_campaign(dict(_RESUME_SPEC), catalog=_resume_catalog(),
             store=ResultStore(sys.argv[1], salt="pinned"),
             progress=lambda *_: None)
"""


def _resume_catalog():
    return ExperimentCatalog({"slow_cell": slow_cell})


def _numbered_runs(count):
    return [_build("e", {"x": x}, 0, True, None)
            for x in range(count)]


def _numbered_record(x, pad=0):
    return {"ok": True, "result": {"v": x, "pad": "p" * pad}}


#: JSON values that parse but are not a record: a cached hit needs an
#: object whose ``ok`` is ``true`` and that has a ``result``
_NOT_A_RECORD = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["ok", "result", "x"]), inner, max_size=3),
    max_leaves=6,
).filter(lambda v: not (isinstance(v, dict) and v.get("ok") is True
                        and "result" in v))


@functools.lru_cache(maxsize=None)
def _clean_cache_store():
    """``_CACHE_SPEC``'s filled segment, its run ids and its report."""
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root, salt="s1")
        report = run_quiet(dict(_CACHE_SPEC), store=store,
                           catalog=make_catalog())
        run_ids = tuple(i for cell in report.cells for i in cell.run_ids)
        return store.segment.read_bytes(), run_ids, report.to_json()


class TestCaching:
    def test_second_run_all_hits_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path / "store", salt="s1")
        first = run_quiet(dict(_CACHE_SPEC), store=store,
                          catalog=make_catalog())
        assert first.execution["cache_misses"] == 4
        assert first.execution["cache_hits"] == 0
        second = run_quiet(dict(_CACHE_SPEC), store=store,
                           catalog=make_catalog())
        assert second.execution["cache_misses"] == 0
        assert second.execution["cache_hits"] == 4
        assert first.to_json() == second.to_json()

    def test_spec_edit_executes_only_delta(self, tmp_path):
        store = ResultStore(tmp_path / "store", salt="s1")
        run_quiet(dict(_CACHE_SPEC), store=store, catalog=make_catalog())
        wider = dict(_CACHE_SPEC, grid={"x": [1, 2, 3]},
                     seeds=[0, 1, 2])
        report = run_quiet(wider, store=store, catalog=make_catalog())
        # 3x3 = 9 runs, 4 already cached from the narrower campaign
        assert report.execution["cache_hits"] == 4
        assert report.execution["cache_misses"] == 5

    def test_salt_change_invalidates_everything(self, tmp_path):
        store1 = ResultStore(tmp_path / "store", salt="s1")
        run_quiet(dict(_CACHE_SPEC), store=store1,
                  catalog=make_catalog())
        store2 = ResultStore(tmp_path / "store", salt="s2")
        report = run_quiet(dict(_CACHE_SPEC), store=store2,
                           catalog=make_catalog())
        assert report.execution["cache_hits"] == 0
        assert report.execution["cache_misses"] == 4

    def test_failed_runs_not_cached(self, tmp_path):
        store = ResultStore(tmp_path / "store", salt="s1")
        spec = {"experiments": ["failing_cell"], "grid": {"x": [1, 2]}}
        first = run_quiet(dict(spec), store=store,
                          catalog=make_catalog())
        assert len(first.execution["errors"]) == 1
        [cell] = [c for c in first.cells if c.params["x"] == 2]
        assert cell.errors and "x=2 always fails" in cell.errors[0]
        # the failure re-executes; the success is a hit
        second = run_quiet(dict(spec), store=store,
                           catalog=make_catalog())
        assert second.execution["cache_hits"] == 1
        assert second.execution["cache_misses"] == 1

    def test_store_roundtrip_and_atomicity(self, tmp_path):
        store = ResultStore(tmp_path / "store", salt="s")
        run = _build("e", {"x": 1}, 0, True, None)
        key = store.key_for(run)
        assert store.load(key) is None
        store.save(key, {"ok": True, "result": {"v": 1}}, run)
        assert store.load(key)["result"] == {"v": 1}
        assert run in store and len(store) == 1
        # corrupt record degrades to a miss, not an exception
        store.segment.write_text(f"{key}\t{{torn\n")
        assert store.load(key) is None
        assert ResultStore(tmp_path / "store", salt="s").load(key) is None

    def test_save_refuses_a_key_that_is_not_a_run_id(self, tmp_path):
        store = ResultStore(tmp_path / "store", salt="s")
        [run] = _numbered_runs(1)
        for key in ("", "short", "g" * 64, "a" * 63 + "\n", "a" * 65):
            with pytest.raises(ValueError, match="not a run id"):
                store.save(key, {"ok": True}, run)
        assert len(store) == 0 and not store.segment.exists()

    def test_torn_tail_is_a_miss_and_never_poisons_a_neighbour(
            self, tmp_path):
        runs = _numbered_runs(6)
        keys = [run.run_id("s") for run in runs]
        intact = [_numbered_record(x) for x in range(4)]

        def first_four(store):
            return [store.load(key) for key in keys[:4]]

        whole = ResultStore(tmp_path / "whole", salt="s")
        for x in range(5):
            whole.save(keys[x], _numbered_record(x), runs[x])
        # the same five records as two-field lines, which name no run
        # and so are misses whole or cut; a cut in the fifth lands in
        # its hit, in its run (three-field lines only) or on its
        # newline alone
        legacy = b"".join(
            keys[x].encode() + b"\t"
            + json.dumps(_numbered_record(x), sort_keys=True).encode()
            + b"\n" for x in range(5))
        for form, data in (("legacy", legacy),
                           ("named", whole.segment.read_bytes())):
            fifth = data.rindex(b"\n", 0, -1) + 1  # where record 5 starts
            assert data[fifth:].startswith(keys[4].encode())
            assert data.count(b"\t", fifth) == (form == "named") + 1
            kept = intact if form == "named" else [None] * 4
            for cut in range(fifth, len(data)):
                root = tmp_path / f"cut-{form}-{cut}"
                root.mkdir()
                (root / whole.segment.name).write_bytes(data[:cut])
                store = ResultStore(root, salt="s")
                assert first_four(store) == kept
                assert store.load(keys[4]) is None and keys[4] not in store
                # the next record starts a line of its own, whatever the
                # tail was, and a fresh open finds it and its neighbours
                store.save(keys[5], _numbered_record(5), runs[5])
                assert store.load(keys[5]) == _numbered_record(5)
                fresh = ResultStore(root, salt="s")
                assert fresh.load(keys[5]) == _numbered_record(5)
                assert first_four(fresh) == kept
                # the fenced record stays a miss wherever the cut fell;
                # saved again, it loads
                assert fresh.load(keys[4]) is None and keys[4] not in fresh
                fresh.save(keys[4], _numbered_record(4), runs[4])
                assert ResultStore(root, salt="s").load(keys[4]) \
                    == _numbered_record(4)

    @given(text=st.text(max_size=12), tag=st.text(max_size=12))
    @example(text="a\tb\nc", tag="\t")
    @example(text="é 雪 \u2028 \x00", tag="\n\r")
    @settings(max_examples=40, deadline=None)
    def test_tabs_newlines_and_non_ascii_round_trip(self, text, tag):
        """No string a result or a run holds can split a line: its hit
        loads as saved and its run still hashes to its id."""
        run = _build("e", {"tag": tag}, 0, True, None)
        key = run.run_id("s")
        hit = {"ok": True, "result": {"text": text, text: [text]},
               "wall_s": 0.5}
        with tempfile.TemporaryDirectory() as root:
            store = ResultStore(root, salt="s")
            store.save(key, hit, run)
            assert store.load(key) == hit
            assert ResultStore(root, salt="s").load(key) == hit
            [line] = store.segment.read_bytes().split(b"\n")[:-1]
            assert line.startswith(key.encode() + b"\t")
            assert store.unnamed_line() == ""

    def test_unnamed_line_finds_a_line_that_does_not_name_its_run(
            self, tmp_path):
        store = ResultStore(tmp_path / "store", salt="s")
        assert store.unnamed_line() == ""  # no segment yet
        runs = _numbered_runs(3)
        for x, run in enumerate(runs):
            store.save(run.run_id("s"), _numbered_record(x), run)
        assert store.unnamed_line() == ""
        data = store.segment.read_bytes()
        other = runs[2]._identity[0].encode()
        second = data.index(b"\n") + 1
        third = data.index(b"\n", second) + 1
        for bad, message in [
            # its run is another run's
            (data[:third - len(other) - 1] + other + b"\n" + data[third:],
             "line 2: its run does not hash to its id"),
            # a line with no run, as older stores hold them
            (data[:second] + data[second:third].rsplit(b"\t", 1)[0]
             + b"\n", "line 2 has 2 fields, not 3"),
            # a torn line, fenced off before the next record
            (data[:third - 5] + b"\t\n" + data[third:],
             "line 2 has 4 fields, not 3"),
        ]:
            store.segment.write_bytes(bad)
            assert ResultStore(tmp_path / "store", salt="s").unnamed_line() \
                == message
        store.segment.write_bytes(data)
        assert ResultStore(tmp_path / "store", salt="s").unnamed_line() == ""
        # under another salt no line names its run
        ResultStore(tmp_path / "store", salt="t").segment.write_bytes(data)
        assert ResultStore(tmp_path / "store", salt="t").unnamed_line() \
            == "line 1: its run does not hash to its id"

    @pytest.mark.parametrize("extra, asked", [
        ({}, set()),
        ({"faults": _SCHEDULE, "runner": {"metrics": True, "verify": True}},
         {"metrics_snapshots", "fault_injections", "violations"}),
    ], ids=["plain", "extras"])
    def test_each_line_holds_its_hit_and_names_its_run(self, tmp_path,
                                                       extra, asked):
        spec = dict(_CACHE_SPEC, **extra)
        store = ResultStore(tmp_path / "store", salt="s1")
        first = run_quiet(dict(spec), store=store, catalog=make_catalog())
        lines = store.segment.read_bytes().splitlines()
        assert len(lines) == first.execution["runs"] == 4
        assert store.unnamed_line() == ""
        named = set()
        for line in lines:
            _run_id, hit, canonical = line.split(b"\t")
            assert set(json.loads(hit)) == {"ok", "result", "wall_s"} | asked
            named.add(canonical.decode())
        assert named == {_canonical_json(_run_dict(run)) for run in
                         CampaignSpec.from_dict(dict(spec)).expand(
                             make_catalog())}
        again = run_quiet(dict(spec), catalog=make_catalog(),
                          store=ResultStore(tmp_path / "store", salt="s1"))
        assert again.execution["cache_hits"] == 4
        assert again.to_json() == first.to_json()

    @given(body=st.binary(max_size=48) | _NOT_A_RECORD.map(
               lambda v: json.dumps(v).encode()),
           victim=st.integers(0, 3))
    @example(body=b"[]", victim=0)
    @example(body=b'{"x":1}', victim=1)
    @example(body=b'{"ok":true}', victim=2)
    @example(body=b"1e999", victim=3)
    @example(body=b'{"ok":false,"result":{"value":1}}', victim=0)
    @example(body=b"[" * 100000, victim=1)
    @settings(max_examples=60, deadline=None)
    def test_a_line_that_is_not_a_record_is_a_miss(self, body, victim):
        """Whatever a line holds in place of its hit, the campaign
        re-executes exactly that run and reports the clean store's
        bytes."""
        segment, run_ids, canonical = _clean_cache_store()
        start = segment.index(run_ids[victim].encode() + b"\t") + 65
        end = segment.index(b"\t", start)  # the line keeps its run
        with tempfile.TemporaryDirectory() as root:
            ResultStore(root, salt="s1").segment.write_bytes(
                segment[:start] + body + segment[end:])
            store = ResultStore(root, salt="s1")
            plan = plan_campaign(CampaignSpec.from_dict(dict(_CACHE_SPEC)),
                                 store=store, catalog=make_catalog())
            assert [e["run_id"] for e in plan["plan"]
                    if not e["cached"]] == [run_ids[victim]]
            report = run_quiet(dict(_CACHE_SPEC), store=store,
                               catalog=make_catalog())
            assert report.execution["cache_misses"] == 1
            assert report.execution["cache_hits"] == 3
            assert report.to_json() == canonical
            assert ResultStore(root, salt="s1").load(run_ids[victim])[
                "ok"] is True

    def test_two_stores_interleave_saves_on_one_root(self, tmp_path):
        root = tmp_path / "store"
        writers = [ResultStore(root, salt="s"), ResultStore(root, salt="s")]
        runs = _numbered_runs(200)
        keys = [run.run_id("s") for run in runs]
        for x, key in enumerate(keys):
            writers[x % 2].save(key, _numbered_record(x, pad=x), runs[x])
        for x, key in enumerate(keys):
            # own writes are visible at once (the offsets a store keeps
            # survive the other's appends), the other's on the next open
            assert writers[x % 2].load(key) == _numbered_record(x, pad=x)
            assert writers[1 - x % 2].load(key) is None
        fresh = ResultStore(root, salt="s")
        assert len(fresh) == 200
        assert [fresh.load(key) for key in keys] == [
            _numbered_record(x, pad=x) for x in range(200)]
        assert [path.name for path in root.iterdir()] == [
            fresh.segment.name]

    def test_concurrent_writers_lose_no_record(self, tmp_path):
        """More writers than this host has cores, each with its own
        store on one root, appending records of up to several pages."""
        root = tmp_path / "store"
        runs = _numbered_runs(240)
        keys = [run.run_id("s") for run in runs]
        failures = []

        def writer(share):
            try:
                store = ResultStore(root, salt="s")
                for x in share:
                    store.save(keys[x], _numbered_record(x, pad=97 * x),
                               runs[x])
                for x in share:
                    assert store.load(keys[x]) == _numbered_record(
                        x, pad=97 * x)
            except BaseException as exc:  # reported by the main thread
                failures.append(exc)
                raise

        threads = [threading.Thread(target=writer,
                                    args=(range(k, 240, 4),))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not failures
        fresh = ResultStore(root, salt="s")
        assert len(fresh) == 240
        for x, key in enumerate(keys):
            assert fresh.load(key) == _numbered_record(x, pad=97 * x)

    def test_run_id_is_hashed_once_per_run(self, tmp_path, monkeypatch):
        hashed = []
        real = RunSpec.run_id

        def counting(run, salt=""):
            hashed.append(run)
            return real(run, salt)

        monkeypatch.setattr(RunSpec, "run_id", counting)
        store = ResultStore(tmp_path / "store", salt="s1")
        for hits in (0, 4):  # cold, then fully cached
            del hashed[:]
            report = run_quiet(dict(_CACHE_SPEC), store=store,
                               catalog=make_catalog())
            assert report.execution["cache_hits"] == hits
            assert len(hashed) == len(set(hashed)) == 4

    def test_killed_campaign_resumes_with_what_landed(self, tmp_path):
        root = tmp_path / "store"
        segment = ResultStore(root, salt="pinned").segment
        child = subprocess.Popen(
            [sys.executable, "-c", _RESUME_SCRIPT, str(root)],
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join([str(SRC), str(SRC.parent)])})
        try:
            deadline = time.monotonic() + 60
            while not (segment.exists()
                       and segment.read_bytes().count(b"\n") >= 10):
                assert child.poll() is None, "ended before the kill"
                assert time.monotonic() < deadline
                time.sleep(0.005)
        finally:
            child.kill()  # SIGKILL: no handler, no flush, no goodbye
            child.wait(timeout=60)
        landed = len(ResultStore(root, salt="pinned"))
        assert 10 <= landed < 40
        resumed = run_quiet(dict(_RESUME_SPEC), catalog=_resume_catalog(),
                            store=ResultStore(root, salt="pinned"))
        assert resumed.execution["cache_hits"] == landed
        assert resumed.execution["cache_misses"] == 40 - landed
        assert not resumed.execution["errors"]
        uninterrupted = run_quiet(
            dict(_RESUME_SPEC), catalog=_resume_catalog(),
            store=ResultStore(tmp_path / "uninterrupted", salt="pinned"))
        assert uninterrupted.execution["cache_misses"] == 40
        assert resumed.to_json() == uninterrupted.to_json()

    def test_plan_campaign_reports_cache_status(self, tmp_path):
        store = ResultStore(tmp_path / "store", salt="s1")
        narrow = dict(_CACHE_SPEC, seeds=[0])
        run_quiet(narrow, store=store, catalog=make_catalog())
        plan = plan_campaign(CampaignSpec.from_dict(dict(_CACHE_SPEC)),
                             store=store, catalog=make_catalog())
        assert plan["runs"] == 4
        assert plan["cached"] == 2
        assert plan["to_execute"] == 2
        # misses get a wall estimate from the cached runs' history
        for entry in plan["plan"]:
            if not entry["cached"]:
                assert entry["wall_estimate_s"] >= 0


# ----------------------------------------------------------------------
# runner.verify and the per-run extras
# ----------------------------------------------------------------------


class TestVerify:
    def test_a_violation_fails_the_run_and_is_never_cached(self, tmp_path):
        from repro.experiments.runner import default_catalog
        from tests.test_runner_supervision import (_kernel_corruptor,
                                                   with_entries)

        catalog = with_entries(default_catalog(),
                               clock_rollback=_kernel_corruptor)
        store = ResultStore(tmp_path / "store", salt="s1")
        for _ in range(2):
            report = run_quiet({"experiments": ["clock_rollback"],
                                "runner": {"verify": True}},
                               store=store, catalog=catalog)
            [error] = report.execution["errors"].values()
            assert re.fullmatch(r"[1-9]\d* invariant violation\(s\), "
                                r"first probe_kernel: .*backwards.*", error)
            assert report.execution["cache_hits"] == 0
            assert report.cells[0].results == [None]
        assert len(store) == 0

    def test_a_run_stored_without_verification_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store", salt="s1")
        plain = {"experiments": ["linear_cell"], "grid": {"x": [1, 2]}}
        run_quiet(dict(plain), store=store, catalog=make_catalog())
        asked = dict(plain, runner={"verify": True, "metrics": True})
        lines = []
        for misses in (2, 0):  # then a hit reads its extras from the store
            report = run_quiet(dict(asked), catalog=make_catalog(), store=(
                ResultStore(tmp_path / "store", salt="s1")))
            assert report.execution["cache_misses"] == misses
            report.write_jsonl(tmp_path / "runs.jsonl")
            lines.append((tmp_path / "runs.jsonl").read_bytes())
        assert lines[0] == lines[1]
        runs = [json.loads(line) for line in lines[0].splitlines()][:2]
        assert [(r["violations"], r["metrics_snapshots"]) for r in runs] \
            == [([], [])] * 2
        # a spec that asks for nothing still hits, with bare run lines
        bare = run_quiet(dict(plain), store=store, catalog=make_catalog())
        assert bare.execution["cache_hits"] == 2 and bare.run_extras == {}


# ----------------------------------------------------------------------
# execution: one rule decides where misses run
# ----------------------------------------------------------------------

#: three misses: over three workers unless a guard keeps them here
_THREE_MISSES = {"name": "three-misses", "experiments": ["linear_cell"],
                 "seeds": [0, 1, 2]}


@pytest.fixture
def pools(monkeypatch):
    """Four usable cores whatever the host, and the worker count of
    every fan-out the engine enters."""
    opened = []
    real = engine._fan_out

    def counting(jobs, workers, *args):
        opened.append(workers)
        return real(jobs, workers, *args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(engine, "_fan_out", counting)
    return opened


def _run_in_daemon(spec, queue):
    try:
        report = run_quiet(spec, catalog=make_catalog())
        queue.put((report.execution["workers"],
                   report.execution["in_process"],
                   report.execution["errors"]))
    except Exception as exc:  # e.g. a daemon refused a worker
        queue.put(repr(exc))


def _daemon_result(spec):
    """What :func:`_run_in_daemon` reports from a daemonic child."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_run_in_daemon, args=(spec, queue),
                        daemon=True)
    child.start()
    result = queue.get(timeout=30)
    child.join(timeout=30)
    assert not child.is_alive()
    return result


class TestFanOut:
    def test_one_miss_runs_in_process(self, pools):
        report = run_quiet({"experiments": ["linear_cell"]},
                           catalog=make_catalog())
        assert pools == [] and report.execution["workers"] == 1
        assert report.execution["in_process"] == 1

    def test_two_cheap_misses_fan_out_from_the_first_run(self, pools):
        """However cheap the runs, two misses go to two workers from
        the first run on, and the report is a ``jobs: 1`` run's."""
        spec = {"experiments": ["linear_cell"], "seeds": [0, 1]}
        lines = []
        report = run_campaign(dict(spec), catalog=make_catalog(),
                              progress=lines.append)
        assert pools == [2]
        assert report.execution["workers"] == 2
        assert report.execution["in_process"] == 0
        assert not any("running" in line for line in lines)
        assert not report.execution["errors"]
        assert [c.seeds for c in report.cells] == [[0, 1]]
        serial = run_quiet(dict(spec, runner={"jobs": 1}),
                           catalog=make_catalog())
        assert report.to_json() == serial.to_json()

    @pytest.mark.parametrize("guard, known", [
        pytest.param("jobs-1", False, id="jobs-1"),
        pytest.param("metrics-armed", False, id="metrics-armed"),
        pytest.param("jobs-1", True, id="jobs-1-known"),
        pytest.param("metrics-armed", True, id="metrics-armed-known")])
    def test_guards_never_fork(self, pools, guard, known):
        """Only the guard keeps three misses in-process; ``known``: an
        unguarded campaign of the same runs fanned out on this catalog
        first."""
        spec = dict(_THREE_MISSES)
        catalog = make_catalog()
        if known:
            run_quiet(dict(spec), catalog=catalog)
            assert pools == [3]
            pools.clear()
        if guard == "jobs-1":
            spec["runner"] = {"jobs": 1}
        else:
            metrics_mod.auto_attach(True)
        try:
            report = run_quiet(spec, catalog=catalog)
        finally:
            metrics_mod.auto_attach(False)
        assert pools == [] and report.execution["workers"] == 1
        assert report.execution["executed"] == 3
        assert report.execution["in_process"] == 3

    def test_daemonic_parent_never_forks(self, pools):
        assert _daemon_result(dict(_THREE_MISSES)) == (1, 3, {})

    def test_no_pool_on_the_host_runs_the_rest_here(self, pools,
                                                     monkeypatch):
        import multiprocessing

        def no_processes(*args, **kwargs):
            raise OSError("fork: Resource temporarily unavailable")

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Process",
                            no_processes)
        report = run_quiet(dict(_THREE_MISSES), catalog=make_catalog())
        assert pools == [3]
        assert report.execution["workers"] == 1
        assert report.execution["executed"] == 3
        assert report.execution["in_process"] == 3
        assert not report.execution["errors"]

    def test_supervised_runs_with_the_default_cap(self):
        report = run_quiet({"experiments": ["linear_cell"],
                            "seeds": [0, 1],
                            "runner": {"timeout_s": 30.0}},
                           catalog=make_catalog())
        assert report.execution["errors"] == {}
        assert report.execution["completed"] == 2
        assert report.execution["workers"] == min(
            2, len(os.sched_getaffinity(0)))

    def test_report_bytes_do_not_depend_on_scheduling(self):
        """A 2 x 2 grid of real bulk cells serializes the same at jobs 1,
        the default and 2, and watched over two workers."""
        from repro.experiments.runner import default_catalog

        spec = {"name": "scheduling", "experiments": ["single_hop_cell"],
                "grid": {"frames": [1, 3], "duration": [1.0]},
                "seeds": [0, 1]}
        reports = {jobs: run_quiet(dict(spec, runner={"jobs": jobs}),
                                   catalog=default_catalog())
                   for jobs in (1, None, 2)}
        assert reports[1].execution["workers"] == 1
        assert reports[2].execution["workers"] == 2
        assert reports[None].execution["workers"] == min(
            4, len(os.sched_getaffinity(0)))
        first = reports[1].to_json()
        for jobs in (None, 2):
            assert not reports[jobs].execution["errors"]
            assert reports[jobs].to_json() == first, jobs
        watched = run_quiet(dict(spec, runner={"jobs": 2, "timeout_s": 30}),
                            catalog=default_catalog())
        assert watched.execution["workers"] == 2
        assert watched.execution["in_process"] == 0
        assert not watched.execution["errors"]
        assert watched.to_json() == first

    def test_cpu_s_counts_the_reaped_workers(self, pools):
        """Four pooled runs that each burn 50 ms of CPU: the parent
        idles, so the sidecar's CPU is its workers'."""
        report = run_quiet({"experiments": ["spinning_cell"],
                            "seeds": [0, 1, 2, 3]},
                           catalog=ExperimentCatalog(
                               {"spinning_cell": spinning_cell}))
        assert pools == [4] and report.execution["in_process"] == 0
        assert report.execution["cpu_s"] >= 0.15


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


class TestStats:
    @pytest.mark.parametrize("df, t", [
        # every interval is a 95 % one; the ids keep that level
        pytest.param(11, 2.201, id="11-0.95-2.201"),
        pytest.param(200, 1.972, id="200-0.95-1.972"),
        pytest.param(10**6, 1.960, id="1000000-0.95-1.96"),
    ])
    def test_t_critical_off_the_table(self, df, t):
        """df between two table rows, or past the last, interpolates on
        1/df; a 12-seed cell (df 11) takes the first branch.  Expected:
        published two-sided Student-t quantiles."""
        assert stats._t_critical(df) == pytest.approx(t, abs=0.002)

    def test_t_critical_refuses_what_it_has_no_value_for(self):
        with pytest.raises(ValueError, match="df >= 1"):
            stats._t_critical(0)

    def test_t_interval_hand_checked(self):
        # mean 3, stdev sqrt(2.5); t(0.95, df=4) = 2.776
        agg = _aggregate([1, 2, 3, 4, 5])
        assert agg["n"] == 5
        assert agg["mean"] == pytest.approx(3.0)
        half = 2.776 * (2.5 ** 0.5) / (5 ** 0.5)
        assert agg["ci_low"] == pytest.approx(3.0 - half, rel=1e-3)
        assert agg["ci_high"] == pytest.approx(3.0 + half, rel=1e-3)

    def test_single_sample_degenerate_interval(self):
        agg = _aggregate([7.0])
        assert agg["ci_low"] == agg["ci_high"] == 7.0

    @pytest.mark.parametrize("confidence", [0.95], ids=["t"])
    def test_huge_samples_do_not_overflow(self, confidence):
        # deviations of 1e200 cannot be squared in a float; the spread
        # itself (1e200) is representable and must come back finite
        agg = _aggregate([1e200, 2e200, 3e200])
        assert agg["confidence"] == confidence
        assert agg["mean"] == pytest.approx(2e200)
        assert agg["stdev"] == pytest.approx(1e200)
        assert agg["ci_low"] <= agg["mean"] <= agg["ci_high"] < math.inf
        # a spread beyond the float range reads inf, never an exception
        agg = _aggregate([-1.7e308, 1.7e308])
        assert agg["stdev"] == math.inf

    def test_auto_metrics_numeric_common_fields(self):
        results = [{"a": 1, "b": True, "c": "x", "d": 2.5},
                   {"a": 2, "b": False, "c": "y", "d": 0.5, "e": 9}]
        assert list(aggregate_cell(results)) == ["a", "d"]

    @pytest.mark.parametrize("policy", [{}], ids=["policy0"])
    @pytest.mark.parametrize("results", [
        [{"c": 2.5, "s": "x", "b": -0.0, "flag": True, "a": 3}],
        [{"a": a, "c": 0.5 * a, "flag": False} for a in (4, 1, 2, 3, 90)],
        [{"a": 1, "c": 2.0, "s": "y"}, ["not", "a", "dict"]],
        [],
        [[{"loss": 0.0, "r": r, "up": True}, {"loss": 0.21, "r": r - 0.1}]
         for r in (0.9, 1.0, 0.95)],
        [{"up": {"p50": p, "n": 3}, "c": p, "a": [p, -p]}
         for p in (1.0, 2.5)] + [{"up": {"p50": 4}, "c": 0, "a": (7,)}],
    ], ids=["lone", "repeated", "non-dict", "empty", "rows", "nested"])
    def test_aggregate_cell_is_aggregate_per_metric(self, results, policy):
        def paths(node, prefix=""):
            """The reference naming: every numeric leaf by its path."""
            items = node.items() if isinstance(node, dict) \
                else enumerate(node)
            for key, v in items:
                if isinstance(v, (dict, list, tuple)):
                    yield from paths(v, f"{prefix}{key}.")
                elif isinstance(v, (int, float)) \
                        and not isinstance(v, bool):
                    yield f"{prefix}{key}", v

        flat = [dict(paths(r)) for r in results]
        metrics = sorted(set.intersection(*map(set, flat))) if flat else []
        expected = {name: _aggregate([f[name] for f in flat])
                    for name in metrics}
        got = aggregate_cell(results, **policy)
        # compared as the report's bytes: -0.0 == 0.0 would hide a sign
        assert json.dumps(got) == json.dumps(expected)

    def test_cell_aggregation_in_report(self, tmp_path):
        report = run_quiet(dict(_CACHE_SPEC), catalog=make_catalog())
        [cell] = [c for c in report.cells if c.params["x"] == 1]
        agg = cell.metrics["value"]  # seeds 0,1 -> values 10, 11
        assert agg["n"] == 2
        assert agg["mean"] == pytest.approx(10.5)
        assert agg["ci_low"] <= 10.5 <= agg["ci_high"]

    def test_rows_and_nested_results_get_t_intervals_by_path(self, capsys):
        """The paper's two result shapes, a list of row dicts and a
        nested dict, aggregate over seeds under path names, and the
        CLI prints their intervals."""
        report = run_quiet({"experiments": ["rows_cell", "nested_cell"],
                            "seeds": [0, 1, 2]},
                           catalog=ExperimentCatalog({
                               "rows_cell": rows_cell,
                               "nested_cell": nested_cell}))
        rows, nested = report.cells
        assert sorted(rows.metrics) == [
            "0.loss", "0.reliability", "1.loss", "1.reliability"]
        assert sorted(nested.metrics) == [
            "down.p50", "down.samples", "up.p50", "up.samples"]
        # reliability 0.90, 0.92, 0.94: mean 0.92, stdev 0.02, t(2) 4.303
        agg = rows.metrics["1.reliability"]
        half = 4.303 * 0.02 / 3 ** 0.5
        assert agg["n"] == 3
        assert agg["mean"] == pytest.approx(0.92)
        assert (agg["ci_low"], agg["ci_high"]) == pytest.approx(
            (0.92 - half, 0.92 + half), rel=1e-9)
        assert nested.metrics["up.p50"]["mean"] == pytest.approx(1.2)
        assert nested.metrics["up.p50"]["ci_low"] < 1.2

        sys.path.insert(0, str(TOOLS))
        try:
            from campaign import _print_report
        finally:
            sys.path.remove(str(TOOLS))
        _print_report(report)
        out = capsys.readouterr().out
        assert "(no metrics)" not in out
        assert "1.reliability=0.92 [0.8703, 0.9697] n=3" in out
        assert "up.p50=1.2 [" in out


# ----------------------------------------------------------------------
# report surfaces
# ----------------------------------------------------------------------


class TestReport:
    def test_spec_file_gives_the_report_of_its_dict(self, tmp_path):
        spec = {"name": "from-file", "experiments": ["linear_cell"],
                "grid": {"x": [1, 2]}, "seeds": [0, 1]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        want = run_quiet(dict(spec), catalog=make_catalog()).to_json()
        for form in (path, str(path)):
            assert run_quiet(form, catalog=make_catalog()).to_json() == want

    def test_execution_sidecar_excluded_from_canonical(self):
        report = run_quiet(dict(_CACHE_SPEC), catalog=make_catalog())
        doc = report._to_dict()
        assert "execution" not in doc
        assert report.execution["runs"] == 4
        assert "execution" in report._to_dict(include_execution=True)

    def test_run_id_and_report_bytes_are_pinned(self, tmp_path):
        """Golden values: a change to either re-keys every store or
        changes every cached report's bytes."""
        run = _build("fig9_cell", {"loss": 0.12, "seed": 5,
                                          "tag": ',"seed":7'}, -3, True,
                            _FAULTS)
        assert run.run_id("pinned") == (
            "876e78eb051d809e5699c85298787af8"
            "13860b1abc6da1f33849829d68b438d1")
        report = run_quiet(
            {"name": "golden", "experiments": ["tagged_cell"],
             "grid": {"tag": ["plain", 'a,"seed":1'], "x": [1, 2]},
             "seeds": [-2, -1, 0, 1, 2, 3]},
            store=ResultStore(tmp_path / "store", salt="pinned"),
            catalog=ExperimentCatalog({"tagged_cell": tagged_cell}))
        value = report.cells[0].metrics["value"]
        assert (value["n"], value["confidence"]) == (6, 0.95)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
            "50855e94510db2b830274ed6e96c0f90"
            "c530035ad074f27de20e0af4402f2c2a")

    @pytest.mark.parametrize("spec, catalog, sha", [
        ({"name": "lone", "experiments": ["ayadi_energy"],
          "grid": {"frames": [1, 3, 5], "frame_loss": [0.02, 0.1]}},
         None,
         "60ed93750e5e4b4c6b14ba1008a2ab74"
         "81cda7f523495afffe17b47de6cb0d6b"),
    ], ids=["auto-metrics"])
    def test_lone_sample_report_bytes_are_pinned(self, tmp_path, spec,
                                                 catalog, sha):
        """A single-seed grid takes aggregate_cell's lone-sample path;
        its report bytes are pinned like the repeated golden's."""
        report = run_quiet(
            spec, store=ResultStore(tmp_path / "store", salt="pinned"),
            catalog=catalog)
        assert all(len(cell.seeds) == 1 for cell in report.cells)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == sha

    def test_grid_table_two_axes_and_hidden_axis_clash(self):
        spec = {"experiments": ["linear_cell"],
                "grid": {"x": [1, 2], "scale": [10, 100]}}
        report = run_quiet(spec, catalog=make_catalog())
        two = report.grid_table("value", rows="x", cols="scale")
        assert "x\\scale" in two and "200" in two
        # collapsing to one axis hides `scale`; averaging across a
        # hidden axis silently would lie, so it raises instead
        with pytest.raises(ValueError, match="multiple cells"):
            report.grid_table("value", rows="x")

    def test_grid_table_single_axis(self):
        report = run_quiet({"experiments": ["linear_cell"],
                            "grid": {"x": [1, 2]}},
                           catalog=make_catalog())
        one = report.grid_table("value", rows="x")
        assert "value" in one and "20" in one

    def test_grid_table_without_a_matching_cell_says_so(self):
        """``tools/campaign.py --grid`` takes the metric and axes from
        the command line, so a typo must name what matched nothing."""
        report = run_quiet({"experiments": ["linear_cell"],
                            "grid": {"x": [1, 2]}},
                           catalog=make_catalog())
        assert report.grid_table("valu", rows="x") == (
            "(no cells with metric 'valu' on axes 'x' x None)")

    def test_write_jsonl(self, tmp_path):
        report = run_quiet(dict(_CACHE_SPEC), catalog=make_catalog())
        path = tmp_path / "runs.jsonl"
        lines = report.write_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == len(rows) == 4 + 2  # 4 runs + 2 cells
        kinds = [r["kind"] for r in rows]
        assert kinds == ["run"] * 4 + ["cell"] * 2


# ----------------------------------------------------------------------
# an optimum is a grid's argmin
# ----------------------------------------------------------------------


class TestGridOptimum:
    def test_ayadi_energy_optimum_is_five_frames(self):
        """The paper-grounded case: over a grid of segment sizes, the
        Eq. 2 energy per byte is least at the paper's 5 frames."""
        report = run_quiet({"experiments": ["ayadi_energy"],
                            "grid": {"frames": list(range(1, 17))}})
        assert len(report.cells) == 16
        best = min(report.cells,
                   key=lambda c: c.metrics["energy_per_byte_uj"]["mean"])
        assert best.params == {"frames": 5}


# ----------------------------------------------------------------------
# the paper's Fig. 9 shape as a campaign (CI-gated loss sweep)
# ----------------------------------------------------------------------


class TestFig9Campaign:
    def test_loss_sweep_three_seeds_stable_cis(self):
        report = run_quiet({
            "name": "fig9-loss-sweep",
            "experiments": ["app_cell"],
            "grid": {"loss": [0.0, 0.12], "duration": [200]},
            "seeds": [0, 1, 2],
        })
        assert not report.execution["errors"]
        assert len(report.cells) == 2
        by_loss = {c.params["loss"]: c.metrics["reliability"]
                   for c in report.cells}
        for agg in by_loss.values():
            assert agg["n"] == 3
            assert agg["ci_low"] <= agg["mean"] <= agg["ci_high"]
            assert 0.0 <= agg["mean"] <= 1.05
        # TCP stays reliable at moderate loss (Fig. 9a's left half)
        assert by_loss[0.0]["mean"] > 0.9
        assert by_loss[0.12]["mean"] > 0.6
        table = report.grid_table("reliability", rows="loss")
        assert "0.12" in table


# ----------------------------------------------------------------------
# the facade and the default catalog
# ----------------------------------------------------------------------


class TestLegacyShim:
    def test_api_facade_exports(self):
        import repro.api as api

        for name in ("CampaignSpec", "run_campaign",
                     "ResultStore", "ExperimentCatalog",
                     "CampaignReport", "RunSpec", "default_catalog"):
            assert name in api.__all__ and hasattr(api, name)

    def test_default_catalog_superset_of_registry(self):
        from repro.experiments.runner import DEFAULT_CATALOG, default_catalog

        cat = default_catalog()
        for name in DEFAULT_CATALOG.names():
            assert name in cat
        for cell in ("single_hop_cell", "retry_delay_cell", "app_cell",
                     "duty_cell", "ayadi_energy"):
            assert cell in cat

    def test_every_catalog_cell_runs_at_its_smallest_size(self):
        """A cell that raises never caches (``single_hop_cell`` did, on
        a misnamed result attribute): run each grid cell once, quick."""
        from repro.experiments import exp_cells
        from repro.experiments.runner import default_catalog

        cat = default_catalog()
        cells = [name for name in cat.names()
                 if cat.get(name).__module__ == exp_cells.__name__]
        assert cells == ["single_hop_cell", "retry_delay_cell", "app_cell",
                         "duty_cell", "ayadi_energy"]
        report = run_quiet({"name": "every-cell", "experiments": cells,
                            "seeds": [0], "quick": True})
        assert not report.execution["errors"]
        assert [c.experiment for c in report.cells] == cells
        for cell in report.cells:
            assert not cell.errors
            (result,) = cell.results
            assert isinstance(result, dict) and result, cell.experiment


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCampaignCli:
    def _run(self, *args, cwd):
        return subprocess.run(
            [sys.executable, str(TOOLS / "campaign.py"), *args],
            capture_output=True, text=True, cwd=cwd,
            env={**os.environ, "PYTHONPATH": str(SRC)})

    def test_smoke_gate(self, tmp_path):
        out = self._run("--smoke", "--store", str(tmp_path / "store"),
                        cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert "byte-identical report" in out.stdout
        assert "store: 8 records / 1 segments / " in out.stdout
        assert "pass 3: 8 runs, 1 executed, 7 cached" in out.stdout

    def test_smoke_leaves_a_store_it_does_not_own_alone(self, tmp_path):
        """The gate rewrites a line of its store, so it runs in a
        temporary one, or in ``--store`` only while that holds no
        record: a foreign record still loads after either."""
        root = tmp_path / "results" / "campaign_store"
        [run] = CampaignSpec.from_dict(
            {"experiments": ["ayadi_energy"]}).expand()
        hit = {"ok": True, "result": {"value": 1.0}, "wall_s": 0.5}
        store = ResultStore(root)
        store.save(store.key_for(run), hit, run)
        store.close()
        before = {path.name: path.read_bytes() for path in root.iterdir()}
        out = self._run("--smoke", cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        out = self._run("--smoke", "--store", str(root), cwd=tmp_path)
        assert out.returncode == 1
        assert "already holds records" in out.stderr
        assert {path.name: path.read_bytes()
                for path in root.iterdir()} == before
        assert ResultStore(root).load(store.key_for(run)) == hit

    def test_dry_run_plan(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "experiments": ["ayadi_energy"],
            "grid": {"frames": [3, 5]},
        }))
        out = self._run(str(spec_path), "--dry-run", "--store",
                        str(tmp_path / "store"), cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert "2 runs in 2 cells" in out.stdout
        assert "2 to execute" in out.stdout

    @staticmethod
    def _main(*args) -> int:
        """``tools/campaign.py``'s ``main`` in this process."""
        sys.path.insert(0, str(TOOLS))
        try:
            from campaign import main
        finally:
            sys.path.remove(str(TOOLS))
        return main([str(arg) for arg in args])

    def test_plan_run_and_exports_in_process(self, tmp_path, capsys):
        spec_path, store = tmp_path / "spec.json", tmp_path / "store"
        spec_path.write_text(json.dumps({
            "name": "cli", "experiments": ["ayadi_energy"],
            "grid": {"frames": [3, 5], "window": [2, 4]},
        }))
        assert self._main(spec_path, "--dry-run", "--store", store) == 0
        out = capsys.readouterr().out
        assert ("4 runs in 4 cells: 0 cached, 4 to execute "
                "(~0.0s estimated, 4 with no history)") in out
        report, jsonl = tmp_path / "report.json", tmp_path / "runs.jsonl"
        assert self._main(spec_path, "--store", store, "--grid",
                          "energy_per_byte_uj", "frames", "window",
                          "--report", report, "--jsonl", jsonl) == 0
        out = capsys.readouterr().out
        assert "frames\\window  2" in out
        assert f"wrote {report}\nwrote {jsonl} (8 lines)\n" in out
        document = json.loads(report.read_text())
        assert document["execution"]["cache_misses"] == 4
        assert [cell["params"] for cell in document["cells"]] == [
            {"frames": 3, "window": 2}, {"frames": 3, "window": 4},
            {"frames": 5, "window": 2}, {"frames": 5, "window": 4}]
        kinds = [json.loads(line)["kind"]
                 for line in jsonl.read_text().splitlines()]
        assert kinds == ["run"] * 4 + ["cell"] * 4
        assert self._main(spec_path, "--dry-run", "--store", store) == 0
        assert "4 cached, 0 to execute" in capsys.readouterr().out

    def test_invalid_spec_is_loud(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"experiments": ["x"],
                                         "grids": {}}))
        out = self._run(str(spec_path), cwd=tmp_path)
        assert out.returncode == 2
        assert "unknown keys" in out.stderr
