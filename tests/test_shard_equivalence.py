"""Sharded tier: planning, refusals, and oracle equivalence.

The heavyweight contract — byte-identical merged traces, metrics and
flow outcomes at any shard count — is enforced in CI by the
``shard-equivalence`` job at full gate durations; the equivalence tests
here run the same machinery at shorter horizons so the contract is also
exercised by plain ``pytest``.
"""

import pytest

from repro.api import ShardedSimulator, ShardRecipe, make_simulator
from repro.experiments.workload import FlowSpec
from repro.sim.engine import Simulator
from repro.sim.shard import (
    ShardError,
    _WorkerSim,
    default_gate_recipe,
    equivalence_report,
    plan_shards,
    recipe_positions,
)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def grid_positions(rows, cols, spacing=8.0):
    return {r * cols + c: (c * spacing, r * spacing)
            for r in range(rows) for c in range(cols)}


def test_plan_covers_every_node_exactly_once():
    positions = grid_positions(4, 10)
    for shards in (1, 2, 3, 4):
        plan = plan_shards(positions, 10.0, shards)
        assert len(plan) == shards
        flat = [n for band in plan for n in band]
        assert sorted(flat) == sorted(positions)


def test_plan_cuts_along_cell_columns():
    # spacing 8, comm_range 10 -> spatial cells hold whole grid columns;
    # a band boundary must never split one cell column.
    positions = grid_positions(4, 10)
    plan = plan_shards(positions, 10.0, 2)
    for band in plan:
        cells = {int(positions[n][0] // 10.0) for n in band}
        for other in plan:
            if other is band:
                continue
            assert not (cells & {int(positions[n][0] // 10.0)
                                 for n in other})


def test_plan_is_roughly_balanced():
    positions = grid_positions(5, 20)
    plan = plan_shards(positions, 10.0, 4)
    sizes = [len(band) for band in plan]
    assert min(sizes) > 0
    assert max(sizes) <= 1.6 * (len(positions) / 4)


def test_plan_rejects_bad_counts():
    positions = grid_positions(2, 2)
    with pytest.raises(ShardError):
        plan_shards(positions, 10.0, 0)
    with pytest.raises(ShardError):
        plan_shards(positions, 10.0, 5)


def test_recipe_positions_match_grid_builder():
    recipe = ShardRecipe(builder="grid",
                         builder_kwargs={"rows": 3, "cols": 4, "seed": 1})
    assert recipe_positions(recipe) == grid_positions(3, 4)


# ----------------------------------------------------------------------
# refusals
# ----------------------------------------------------------------------
def gate_kwargs(**overrides):
    kw = {"rows": 4, "cols": 5, "seed": 3}
    kw.update(overrides)
    return kw


@pytest.mark.parametrize("mutate, match", [
    (dict(builder="chain"), "not shardable"),
    (dict(builder_kwargs=gate_kwargs(with_cloud=True)), "cloud"),
    (dict(builder_kwargs=gate_kwargs(node_config=object())), "node_config"),
    (dict(builder_kwargs=gate_kwargs(fidelity="full")), "fidelity"),
    (dict(tx_turnaround=0.0), "tx_turnaround"),
    (dict(flows=[FlowSpec(src=0, dst=1, dst_is_cloud=True)]), "cloud"),
    (dict(flows=[FlowSpec(src=3, dst=3)]), "src == dst"),
    (dict(chaos={"name": "x", "faults": [
        {"kind": "bursty_loss", "p_good_bad": 0.03,
         "p_bad_good": 0.3}]}), "global RNG"),
])
def test_unshardable_recipes_are_refused(mutate, match):
    recipe = default_gate_recipe()
    for key, value in mutate.items():
        setattr(recipe, key, value)
    with pytest.raises(ShardError, match=match):
        recipe.validate()


def test_make_simulator_shard_surface():
    with pytest.raises(ValueError, match="ShardRecipe"):
        make_simulator(shards=2)
    recipe = default_gate_recipe()
    sharded = make_simulator(shards=2, recipe=recipe)
    try:
        assert isinstance(sharded, ShardedSimulator)
        assert sharded.shards == 2
    finally:
        sharded.close()


# ----------------------------------------------------------------------
# the window primitive: run_exclusive is run()'s loop with a strict bound
# ----------------------------------------------------------------------
def test_run_exclusive_leaves_events_at_the_limit_queued():
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "event<")
    sim.schedule_unref(1.5, order.append, "slim<")
    sim.schedule(2.0, order.append, "event=")
    sim.schedule_unref(2.0, order.append, "slim=")
    sim.run_exclusive(2.0)
    assert order == ["event<", "slim<"]
    assert (sim.now, sim.pending_count()) == (2.0, 2)
    sim.run(until=2.0)  # the inclusive bound takes both shapes
    assert order == ["event<", "slim<", "event=", "slim="]


# ----------------------------------------------------------------------
# ghost tie ordering (the _WorkerSim seq-key machinery)
# ----------------------------------------------------------------------
def test_ghost_seq_key_orders_at_commit_instant():
    # A ghost committed at t=1.2 must dispatch after events scheduled
    # at instants <= 1.2 and before events scheduled later, even when
    # all of them fire at the same time — the oracle's tie order,
    # against Event and slim local entries alike.
    for name in ("schedule", "schedule_unref"):
        sim = Simulator()
        sim.__class__ = _WorkerSim
        sim._init_shard_log()
        order = []
        local = getattr(sim, name)
        local(1.0, local, 4.0, order.append, "a")
        local(1.5, local, 3.5, order.append, "b")
        sim.begin_seqlog()
        sim.run_exclusive(2.0)
        sim.schedule_ghost(5.0, 1.2, order.append, "ghost")
        sim.begin_seqlog()
        sim.run(until=6.0)
        assert order == ["a", "ghost", "b"], name


def test_ghost_keys_stay_unique_and_monotone():
    sim = Simulator()
    sim.__class__ = _WorkerSim
    sim._init_shard_log()
    sim.begin_seqlog()
    sim.run_exclusive(1.0)
    first = sim.schedule_ghost(2.0, 0.5, lambda: None)
    second = sim.schedule_ghost(2.0, 0.5, lambda: None)
    assert first.seq < second.seq  # delivery order preserved
    assert first.seq != second.seq


# ----------------------------------------------------------------------
# oracle equivalence (short-horizon version of the CI gate)
# ----------------------------------------------------------------------
def test_sharded_matches_oracle_byte_for_byte():
    report = equivalence_report(default_gate_recipe(), warmup=0.4,
                                duration=0.8, shard_counts=[1, 2])
    assert report["ok"], report["failures"]
    for run in report["runs"]:
        assert run["identical"]
        assert run["trace_events"] == report["oracle"]["trace_events"]


def test_sharded_matches_oracle_under_chaos():
    # Horizon covers the link flap (1.2), reboot (1.6) and the drift.
    report = equivalence_report(default_gate_recipe(chaos=True),
                                warmup=0.5, duration=1.3,
                                shard_counts=[2])
    assert report["ok"], report["failures"]
