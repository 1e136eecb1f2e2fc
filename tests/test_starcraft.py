"""Build-order world: token automaton, dynamics, disruptions, audits."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid.errors import EpisodeDone, SpawnInfeasible
from flowgrid.generators import gen_build_tree, gen_starcraft
from flowgrid.instructions import N_BUILDINGS, N_UNITS, BuildTree, Instruction, ScLine
from flowgrid.rngtools import substream
from flowgrid.starcraft import (
    CELL_INDEX,
    CELLS,
    GRID,
    N_PROBES,
    ActionToken,
    StarcraftWorld,
    classify_assembly,
    enumerate_command_space,
    legal_train_commands,
    spawn,
)

TREE = BuildTree(
    prerequisite={2: 1, 1: 0, 5: 2},
    producer={0: 2, 1: 0, 2: 5},
)


def simple_world(required_units=(0,), grid=None, disruptions=False, rng=None):
    ins = Instruction(tuple(ScLine.unit(u) for u in required_units))
    world = StarcraftWorld(
        tree=TREE,
        instruction=ins,
        grid=dict(grid or {(0, 0): 0}),
        probes=[(0, 0)] * N_PROBES,
        disruptions_enabled=disruptions,
        rng=rng,
    )
    return world


def feed(world, *tokens):
    outcome = None
    for token in tokens:
        outcome = world.step_token(token)
    return outcome


# --- token automaton ---------------------------------------------------------------


def test_partial_assemblies_do_not_advance_time():
    world = simple_world()
    assert world.step_token(ActionToken.probe(0)) is None
    assert world.step_count == 0
    assert world.step_token(ActionToken.building(1)) is None
    assert world.step_count == 0


def test_build_command_resolves_and_places_on_arrival():
    world = simple_world(grid={(0, 0): 0})
    outcome = feed(
        world,
        ActionToken.probe(0),
        ActionToken.building(1),  # prereq of 1 is nexus, alive
        ActionToken.coord(CELL_INDEX[(0, 2)]),
    )
    assert outcome is not None and not outcome.noop
    assert outcome.command["op"] == "build"
    assert (0, 2) not in world.grid  # probe still walking
    feed(world, ActionToken.commit())  # noop advances time; probe arrives
    assert world.grid.get((0, 2)) == 1
    assert world.probes[0] == (0, 2)


def test_build_without_prerequisite_is_noop():
    world = simple_world(grid={(0, 0): 0})
    outcome = feed(
        world,
        ActionToken.probe(0),
        ActionToken.building(2),  # needs building 1, not alive
        ActionToken.coord(CELL_INDEX[(3, 3)]),
    )
    assert outcome.noop and outcome.command is None
    assert world.step_count == 1  # illegal commands still cost a step
    assert not world.pending_build


def test_build_on_occupied_cell_is_noop():
    world = simple_world(grid={(0, 0): 0, (1, 1): 1})
    outcome = feed(
        world,
        ActionToken.probe(0),
        ActionToken.building(1),
        ActionToken.coord(CELL_INDEX[(1, 1)]),
    )
    assert outcome.noop


def test_goto_reassignment_abandons_pending_build():
    world = simple_world(grid={(0, 0): 0})
    feed(
        world,
        ActionToken.probe(0),
        ActionToken.building(1),
        ActionToken.coord(CELL_INDEX[(0, 5)]),
    )
    assert 0 in world.pending_build
    outcome = feed(world, ActionToken.probe(0), ActionToken.coord(CELL_INDEX[(5, 0)]))
    assert outcome.command["op"] == "goto"
    assert 0 not in world.pending_build
    for _ in range(12):
        if world.done:
            break
        feed(world, ActionToken.commit())
    assert (0, 5) not in world.grid  # the abandoned building never lands


def test_train_requires_matching_producer():
    world = simple_world(required_units=(1,), grid={(0, 0): 0})
    outcome = feed(
        world, ActionToken.coord(CELL_INDEX[(0, 0)]), ActionToken.unit(1)
    )
    assert not outcome.noop and outcome.command == {"op": "train", "unit": 1}
    # completes at the next time step
    assert world.units.get(1, 0) == 1  # _advance ran within the same resolution
    assert world.done and world.cause == "success" and world.reward == 1


def test_train_from_wrong_building_is_noop():
    world = simple_world(required_units=(0,), grid={(0, 0): 0})
    outcome = feed(
        world, ActionToken.coord(CELL_INDEX[(0, 0)]), ActionToken.unit(0)
    )  # unit 0 needs building 2
    assert outcome.noop
    assert world.units == {}


def test_coord_on_empty_cell_opens_nothing():
    world = simple_world()
    outcome = world.step_token(ActionToken.coord(CELL_INDEX[(5, 5)]))
    assert outcome is not None and outcome.noop


def test_commit_from_start_is_explicit_pass():
    world = simple_world()
    outcome = world.step_token(ActionToken.commit())
    assert outcome.noop and world.step_count == 1


def test_illegal_token_resolves_assembly_as_noop():
    world = simple_world()
    world.step_token(ActionToken.probe(0))
    outcome = world.step_token(ActionToken.unit(3))  # unit after probe: illegal
    assert outcome is not None and outcome.noop
    assert world.assembly == ("start",)


def test_step_after_done_raises():
    world = simple_world(required_units=(1,))
    feed(world, ActionToken.coord(CELL_INDEX[(0, 0)]), ActionToken.unit(1))
    assert world.done
    with pytest.raises(EpisodeDone):
        world.step_token(ActionToken.commit())


# --- probe movement ----------------------------------------------------------------


def test_probe_movement_sequence():
    world = simple_world()
    feed(world, ActionToken.probe(1), ActionToken.coord(CELL_INDEX[(2, 1)]))
    seen = [world.probes[1]]
    for _ in range(4):
        if world.done:
            break
        feed(world, ActionToken.commit())
        seen.append(world.probes[1])
    # from (0,0) to (2,1): row gap dominates, then alternation favours rows
    assert seen[:4] == [(1, 0), (2, 0), (2, 1), (2, 1)]


def test_build_cancelled_if_cell_occupied_at_arrival():
    world = simple_world(grid={(0, 0): 0})
    feed(
        world,
        ActionToken.probe(0),
        ActionToken.building(1),
        ActionToken.coord(CELL_INDEX[(0, 2)]),
    )
    # a second probe trains nothing; meanwhile occupy (0, 2) by a faster build
    world.grid[(0, 2)] = 13  # simulate interference before arrival
    feed(world, ActionToken.commit())
    assert world.grid[(0, 2)] == 13  # original occupant survives
    assert 0 not in world.pending_build  # construction cancelled, not queued


# --- success and timeout ----------------------------------------------------------


def test_success_requires_all_required_types_alive_simultaneously():
    world = simple_world(required_units=(1, 1), grid={(0, 0): 0})
    feed(world, ActionToken.coord(CELL_INDEX[(0, 0)]), ActionToken.unit(1))
    assert world.done and world.cause == "success"


def test_timeout_after_thirty_steps_per_line():
    world = simple_world(required_units=(0,), grid={(0, 0): 0})
    assert world.time_limit == 30
    for _ in range(30):
        feed(world, ActionToken.commit())
    assert world.done and world.cause == "timeout" and world.reward == 0


def test_success_takes_precedence_over_timeout():
    world = simple_world(required_units=(1,), grid={(0, 0): 0})
    for _ in range(29):
        feed(world, ActionToken.commit())
    outcome = feed(world, ActionToken.coord(CELL_INDEX[(0, 0)]), ActionToken.unit(1))
    assert world.step_count == 30
    assert outcome.cause == "success" and outcome.reward == 1


# --- disruptions -------------------------------------------------------------------


def test_attacks_spare_the_root_building():
    rng = substream(0, "attack-exempt")
    world = simple_world(
        required_units=(0,),
        grid={(0, 0): 0, (1, 1): 1, (2, 2): 2, (3, 3): 3},
        disruptions=True,
        rng=rng,
    )
    saw_attack = False
    for _ in range(200):
        world.grid.update({(1, 1): 1, (2, 2): 2, (3, 3): 3})  # repopulate targets
        report = world.roll_disruptions()
        if report.attack and report.destroyed:
            saw_attack = True
            assert (0, 0) not in report.destroyed
            assert all(cell in ((1, 1), (2, 2), (3, 3)) for cell in report.destroyed)
    assert saw_attack
    assert world.grid.get((0, 0)) == 0


def test_attack_destroys_nonempty_subsets_only():
    rng = substream(1, "attack-subset")
    world = simple_world(grid={(0, 0): 0, (1, 1): 1}, disruptions=True, rng=rng)
    for _ in range(300):
        world.grid[(1, 1)] = 1
        report = world.roll_disruptions()
        if report.attack:
            assert report.destroyed == ((1, 1),)  # the only possible subset


def test_ambush_removes_one_unit_and_posts_message():
    rng = substream(2, "ambush")
    world = simple_world(grid={(0, 0): 0}, disruptions=True, rng=rng)
    saw = False
    for _ in range(300):
        world.units = {3: 2, 7: 1}
        world.ambush_message = None
        report = world.roll_disruptions()
        if report.ambush and report.ambushed is not None:
            saw = True
            assert report.ambushed in (3, 7)
            assert world.ambush_message == report.ambushed
            total = sum(world.units.values())
            assert total == 2
    assert saw


def test_ambush_message_resets_next_step():
    rng = substream(3, "ambush-reset")
    world = simple_world(
        required_units=(0,) * 7, grid={(0, 0): 0}, disruptions=True, rng=rng
    )
    world.units = {3: 500}
    # wait for an ambush, then advance once more: the message must reflect
    # only the latest step, never a stale hit
    for _ in range(150):
        feed(world, ActionToken.commit())
        if world.ambush_message is not None:
            break
    else:
        pytest.fail("no ambush in 150 steps")
    assert world.ambush_message == 3
    feed(world, ActionToken.commit())
    if world.last_disruption.ambush:
        assert world.ambush_message == 3
    else:
        assert world.ambush_message is None


def test_disruption_rates_rough():
    rng = substream(4, "rates")
    world = simple_world(grid={(0, 0): 0, (1, 1): 1}, disruptions=True, rng=rng)
    attacks = ambushes = 0
    n = 20_000
    for _ in range(n):
        world.grid[(1, 1)] = 1
        world.units = {0: 1}
        report = world.roll_disruptions()
        attacks += report.attack
        ambushes += report.ambush
    for hits in (attacks, ambushes):
        assert abs(hits / n - 0.1) < 4 * (0.1 * 0.9 / n) ** 0.5


# --- audits -----------------------------------------------------------------------


def test_command_space_circumference():
    counts = enumerate_command_space()
    assert counts == {"build": 1512, "goto": 108, "train": 576}


def test_classify_assembly_rejects_malformed():
    assert classify_assembly([ActionToken.commit()]) is None
    assert classify_assembly([ActionToken.probe(0), ActionToken.unit(0)]) is None
    assert (
        classify_assembly(
            [ActionToken.probe(0), ActionToken.building(0), ActionToken.coord(0), ActionToken.coord(1)]
        )
        is None
    )


def test_legal_train_pairs_bounded_by_grammar():
    rng = substream(6, "train-audit")
    for trial in range(30):
        tree, ins = gen_starcraft(rng, max_len=10)
        try:
            world = spawn(rng, tree, ins, disruptions=False, seed=trial)
        except SpawnInfeasible:
            continue
        legal = legal_train_commands(world)
        assert 0 <= legal <= 576
        assert legal <= len(world.grid) * 16


# --- spawning ----------------------------------------------------------------------


def test_spawn_places_root_probes_and_endowment():
    rng = substream(7, "sc-spawn")
    for trial in range(40):
        tree, ins = gen_starcraft(rng, max_len=8)
        world = spawn(rng, tree, ins, disruptions=False, seed=trial)
        assert 0 in world.grid.values()
        assert len(world.probes) == N_PROBES
        nexus_cells = [c for c, b in world.grid.items() if b == 0]
        assert all(p == nexus_cells[0] for p in world.probes)
        assert 0 <= world.endowment <= 36
        assert len(world.grid) <= 36
        assert not world.done


def test_observation_hides_the_tree():
    world = simple_world()
    obs = world.observe()
    assert obs.building_grid.shape == (GRID, GRID)
    assert obs.building_grid[0, 0] == 0
    assert (obs.unit_counts == 0).all()
    assert not hasattr(obs, "tree")
    assert len(obs.probes) == N_PROBES


def test_token_value_validation():
    with pytest.raises(ValueError):
        ActionToken.probe(3)
    with pytest.raises(ValueError):
        ActionToken.coord(36)
    with pytest.raises(ValueError):
        ActionToken("commit", 1)
    with pytest.raises(ValueError):
        ActionToken("select_unit", None)


# --- digest -------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    tree_seed=st.integers(0, 2**32),
    grid=st.dictionaries(st.sampled_from(CELLS), st.integers(0, N_BUILDINGS - 1)),
    probes=st.lists(st.sampled_from(CELLS), min_size=N_PROBES, max_size=N_PROBES),
    units=st.dictionaries(st.integers(0, N_UNITS - 1), st.integers(0, 5)),
    step=st.integers(0, 10**6),
    seed=st.none() | st.integers(0, 2**63),
)
def test_digest_is_hash_of_sorted_snapshot_json_on_any_state(
    tree_seed, grid, probes, units, step, seed
):
    world = StarcraftWorld(
        tree=gen_build_tree(substream(tree_seed, "tree")),
        instruction=Instruction((ScLine.unit(0),)),
        grid=grid,
        probes=probes,
        units=units,
        step_count=step,
        seed=seed,
    )
    blob = json.dumps(world.snapshot(), sort_keys=True, separators=(",", ":"))
    assert world.digest() == hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _snapshot_render(world):
    """``render`` as it was when it drew from the snapshot's state dict."""
    snap = world.snapshot()
    rows = [list(row) for row in snap["grid"]]
    for r, c in world.probes:
        if rows[r][c] == ".":
            rows[r][c] = "p"
    units = " ".join(f"{name}:{n}" for name, n in snap["units"].items()) or "-"
    status = world.cause if world.done else "running"
    lines = ["".join(row) for row in rows]
    lines.append(f"step {world.step_count} units {units} [{status}]")
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(
    grid=st.dictionaries(st.sampled_from(CELLS), st.integers(0, N_BUILDINGS - 1)),
    probes=st.lists(st.sampled_from(CELLS), min_size=N_PROBES, max_size=N_PROBES),
    units=st.dictionaries(st.integers(0, N_UNITS - 1), st.integers(0, 5)),
    step=st.integers(0, 10**6),
    ending=st.sampled_from([(False, None), (True, "success"), (True, "timeout")]),
)
def test_render_matches_the_snapshot_drawing_on_any_state(grid, probes, units, step, ending):
    done, cause = ending
    world = StarcraftWorld(
        tree=gen_build_tree(substream(0, "tree")),
        instruction=Instruction((ScLine.unit(0),)),
        grid=grid,
        probes=probes,
        units=units,
        step_count=step,
        done=done,
        cause=cause,
    )
    assert world.render() == _snapshot_render(world)
