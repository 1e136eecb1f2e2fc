"""Build-order world: token automaton, dynamics, disruptions, audits."""

import dataclasses
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid import starcraft
from flowgrid.errors import EpisodeDone, SpawnInfeasible
from flowgrid.generators import gen_build_tree, gen_starcraft
from flowgrid.harness import (EpisodeSpec, OracleStarcraftPolicy, RandomStarcraftPolicy,
                              spawn_episode_world)
from flowgrid.instructions import N_BUILDINGS, N_UNITS, BuildTree, Instruction, ScLine
from flowgrid.rngtools import draws, substream
from flowgrid.starcraft import (
    CELL_INDEX,
    CELLS,
    GRID,
    N_PROBES,
    TOKEN_KINDS,
    TOKEN_LIMITS,
    TOKENS,
    ActionToken,
    DisruptionReport,
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


def simple_world(required_units=(0,), grid=None, rng=None):
    """A world on TREE; ``rng`` is its disruption stream, and without one it has none."""
    ins = Instruction(tuple(ScLine.unit(u) for u in required_units))
    world = StarcraftWorld(
        tree=TREE,
        instruction=ins,
        grid=dict(grid or {(0, 0): 0}),
        probes=[(0, 0)] * N_PROBES,
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
    assert world.step_token(TOKENS["select_probe"][0]) is None
    assert world.step_count == 0
    assert world.step_token(TOKENS["select_building"][1]) is None
    assert world.step_count == 0


def test_build_command_resolves_and_places_on_arrival():
    world = simple_world(grid={(0, 0): 0})
    outcome = feed(
        world,
        TOKENS["select_probe"][0],
        TOKENS["select_building"][1],  # prereq of 1 is nexus, alive
        TOKENS["select_coord"][CELL_INDEX[(0, 2)]],
    )
    assert outcome is not None and not outcome.noop
    assert world.pending_build == {0: (1, (0, 2))}
    assert world.probe_dest[0] == (0, 2)
    assert (0, 2) not in world.grid  # probe still walking
    feed(world, TOKENS["commit"][0])  # noop advances time; probe arrives
    assert world.grid.get((0, 2)) == 1
    assert world.probes[0] == (0, 2)


def test_build_without_prerequisite_is_noop():
    world = simple_world(grid={(0, 0): 0})
    outcome = feed(
        world,
        TOKENS["select_probe"][0],
        TOKENS["select_building"][2],  # needs building 1, not alive
        TOKENS["select_coord"][CELL_INDEX[(3, 3)]],
    )
    assert outcome.noop
    assert world.step_count == 1  # illegal commands still cost a step
    assert not world.pending_build
    assert world.probe_dest == [None] * N_PROBES


def test_build_on_occupied_cell_is_noop():
    world = simple_world(grid={(0, 0): 0, (1, 1): 1})
    outcome = feed(
        world,
        TOKENS["select_probe"][0],
        TOKENS["select_building"][1],
        TOKENS["select_coord"][CELL_INDEX[(1, 1)]],
    )
    assert outcome.noop


def test_goto_reassignment_abandons_pending_build():
    world = simple_world(grid={(0, 0): 0})
    feed(
        world,
        TOKENS["select_probe"][0],
        TOKENS["select_building"][1],
        TOKENS["select_coord"][CELL_INDEX[(0, 5)]],
    )
    assert 0 in world.pending_build
    outcome = feed(world, TOKENS["select_probe"][0], TOKENS["select_coord"][CELL_INDEX[(5, 0)]])
    assert not outcome.noop
    assert world.probe_dest[0] == (5, 0)
    assert 0 not in world.pending_build
    for _ in range(12):
        if world.done:
            break
        feed(world, TOKENS["commit"][0])
    assert (0, 5) not in world.grid  # the abandoned building never lands


def test_train_requires_matching_producer():
    world = simple_world(required_units=(1,), grid={(0, 0): 0})
    outcome = feed(
        world, TOKENS["select_coord"][CELL_INDEX[(0, 0)]], TOKENS["select_unit"][1]
    )
    assert not outcome.noop
    assert world.pending_train == []  # queued, then trained within the resolution
    # completes at the next time step
    assert world.units.get(1, 0) == 1  # _advance ran within the same resolution
    assert world.done and world.cause == "success" and world.reward == 1


def test_train_from_wrong_building_is_noop():
    world = simple_world(required_units=(0,), grid={(0, 0): 0})
    outcome = feed(
        world, TOKENS["select_coord"][CELL_INDEX[(0, 0)]], TOKENS["select_unit"][0]
    )  # unit 0 needs building 2
    assert outcome.noop
    assert world.units == {}


def test_coord_on_empty_cell_opens_nothing():
    world = simple_world()
    outcome = world.step_token(TOKENS["select_coord"][CELL_INDEX[(5, 5)]])
    assert outcome is not None and outcome.noop


def test_commit_from_start_is_explicit_pass():
    world = simple_world()
    outcome = world.step_token(TOKENS["commit"][0])
    assert outcome.noop and world.step_count == 1


def test_illegal_token_resolves_assembly_as_noop():
    world = simple_world()
    world.step_token(TOKENS["select_probe"][0])
    outcome = world.step_token(TOKENS["select_unit"][3])  # unit after probe: illegal
    assert outcome is not None and outcome.noop
    assert world.assembly == ("start",)


def test_step_after_done_raises():
    world = simple_world(required_units=(1,))
    feed(world, TOKENS["select_coord"][CELL_INDEX[(0, 0)]], TOKENS["select_unit"][1])
    assert world.done
    with pytest.raises(EpisodeDone):
        world.step_token(TOKENS["commit"][0])


# --- probe movement ----------------------------------------------------------------


def test_probe_movement_sequence():
    world = simple_world()
    feed(world, TOKENS["select_probe"][1], TOKENS["select_coord"][CELL_INDEX[(2, 1)]])
    seen = [world.probes[1]]
    for _ in range(4):
        if world.done:
            break
        feed(world, TOKENS["commit"][0])
        seen.append(world.probes[1])
    # from (0,0) to (2,1): row gap dominates, then alternation favours rows
    assert seen[:4] == [(1, 0), (2, 0), (2, 1), (2, 1)]


def test_build_cancelled_if_cell_occupied_at_arrival():
    world = simple_world(grid={(0, 0): 0})
    feed(
        world,
        TOKENS["select_probe"][0],
        TOKENS["select_building"][1],
        TOKENS["select_coord"][CELL_INDEX[(0, 2)]],
    )
    # a second probe trains nothing; meanwhile occupy (0, 2) by a faster build
    world.grid[(0, 2)] = 13  # simulate interference before arrival
    feed(world, TOKENS["commit"][0])
    assert world.grid[(0, 2)] == 13  # original occupant survives
    assert 0 not in world.pending_build  # construction cancelled, not queued


# --- success and timeout ----------------------------------------------------------


def test_success_requires_all_required_types_alive_simultaneously():
    world = simple_world(required_units=(1, 1), grid={(0, 0): 0})
    feed(world, TOKENS["select_coord"][CELL_INDEX[(0, 0)]], TOKENS["select_unit"][1])
    assert world.done and world.cause == "success"


def test_timeout_after_thirty_steps_per_line():
    world = simple_world(required_units=(0,), grid={(0, 0): 0})
    assert world.time_limit == 30
    for _ in range(30):
        feed(world, TOKENS["commit"][0])
    assert world.done and world.cause == "timeout" and world.reward == 0


def test_success_takes_precedence_over_timeout():
    world = simple_world(required_units=(1,), grid={(0, 0): 0})
    for _ in range(29):
        feed(world, TOKENS["commit"][0])
    outcome = feed(world, TOKENS["select_coord"][CELL_INDEX[(0, 0)]], TOKENS["select_unit"][1])
    assert world.step_count == 30
    assert outcome.cause == "success" and outcome.reward == 1


class _AllUnitsWorld(StarcraftWorld):
    """A world that tests every required unit after every step, as it used to."""

    def _refresh_done(self, trained=True):
        if self.done:
            return
        if all(self.units.get(u, 0) > 0 for u in self.required):
            self.done, self.cause, self.reward = True, "success", 1
        elif self.step_count >= self.time_limit:
            self.done, self.cause = True, "timeout"


# tokens that can train TREE's units 0-2 on a grid of its buildings 0, 2 and 5
_TRAINING_TOKENS = (
    [TOKENS["select_coord"][CELL_INDEX[(0, c)]] for c in range(4)]
    + [TOKENS["select_unit"][u] for u in range(3)]
    + [TOKENS["commit"][0], TOKENS["select_probe"][0]]
)


@settings(max_examples=200, deadline=None)
@given(
    required=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    row=st.lists(st.sampled_from([0, 2, 5]), min_size=1, max_size=4),
    units=st.dictionaries(st.integers(0, 3), st.integers(0, 2)),
    tokens=st.lists(st.sampled_from(_TRAINING_TOKENS), max_size=150),
    seed=st.integers(0, 2**32),
)
def test_success_test_after_training_only_ends_as_the_full_test(required, row, units, tokens, seed):
    """Zero-count ``units`` entries included; disruptions remove units and buildings."""
    worlds = [
        cls(
            tree=TREE,
            instruction=Instruction(tuple(ScLine.unit(u) for u in required)),
            grid={(0, c): b for c, b in enumerate(row)},
            probes=[(0, 0)] * N_PROBES,
            units=dict(units),
            rng=draws(seed, "disruptions"),
        )
        for cls in (StarcraftWorld, _AllUnitsWorld)
    ]
    for token in tokens:
        states = [(w.done, w.cause, w.reward, w.step_count, w.units) for w in worlds]
        assert states[0] == states[1]
        if worlds[0].done:
            break
        for world in worlds:
            world.apply(token)


def test_tokens_table_holds_every_validated_token():
    assert set(TOKENS) == set(TOKEN_KINDS)
    assert TOKENS["commit"] == (ActionToken("commit"),)
    for kind, limit in TOKEN_LIMITS.items():
        assert TOKENS[kind] == tuple(ActionToken(kind, v) for v in range(limit))


def _constructed_act(rng):
    """``RandomStarcraftPolicy.act`` as it was, building each token."""
    kind = TOKEN_KINDS[int(rng.integers(len(TOKEN_KINDS)))]
    if kind == "commit":
        return TOKENS["commit"][0]
    return ActionToken(kind, int(rng.integers(TOKEN_LIMITS[kind])))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_random_policy_draws_the_tokens_it_used_to_build(seed):
    policy = RandomStarcraftPolicy(draws(seed, "policy"))
    rng = substream(seed, "policy")
    assert [policy.act(None, None) for _ in range(300)] == [
        _constructed_act(rng) for _ in range(300)
    ]


# --- disruptions -------------------------------------------------------------------


def test_attacks_spare_the_root_building():
    rng = draws(0, "attack-exempt")
    world = simple_world(
        required_units=(0,),
        grid={(0, 0): 0, (1, 1): 1, (2, 2): 2, (3, 3): 3},
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
    rng = draws(1, "attack-subset")
    world = simple_world(grid={(0, 0): 0, (1, 1): 1}, rng=rng)
    for _ in range(300):
        world.grid[(1, 1)] = 1
        report = world.roll_disruptions()
        if report.attack:
            assert report.destroyed == ((1, 1),)  # the only possible subset


def test_ambush_removes_one_unit_and_posts_message():
    rng = draws(2, "ambush")
    world = simple_world(grid={(0, 0): 0}, rng=rng)
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
    rng = draws(3, "ambush-reset")
    world = simple_world(
        required_units=(0,) * 7, grid={(0, 0): 0}, rng=rng
    )
    world.units = {3: 500}
    # wait for an ambush, then advance once more: the message must reflect
    # only the latest step, never a stale hit
    for _ in range(150):
        feed(world, TOKENS["commit"][0])
        if world.ambush_message is not None:
            break
    else:
        pytest.fail("no ambush in 150 steps")
    assert world.ambush_message == 3
    feed(world, TOKENS["commit"][0])
    if world.last_disruption.ambush:
        assert world.ambush_message == 3
    else:
        assert world.ambush_message is None


def test_calm_steps_share_one_frozen_report():
    world = simple_world(grid={(0, 0): 0, (1, 1): 1}, rng=draws(5, "calm"))
    reports = [world.roll_disruptions() for _ in range(50)]
    calm = [r for r in reports if not (r.attack or r.ambush)]
    assert len(calm) > 1 and all(r is calm[0] for r in calm)
    assert calm[0] == DisruptionReport()
    with pytest.raises(dataclasses.FrozenInstanceError):
        calm[0].attack = True


def test_disruption_rates_rough():
    rng = draws(4, "rates")
    world = simple_world(grid={(0, 0): 0, (1, 1): 1}, rng=rng)
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


def _weighted_shapes():
    """Every token-kind sequence of length 1 to 3 that ``classify_assembly``
    calls a command, weighted by the tokens each of its kinds offers."""
    counts = {}
    for seq in (seq for n in range(1, 4) for seq in itertools.product(TOKEN_KINDS, repeat=n)):
        shape = classify_assembly([TOKENS[kind][0] for kind in seq])
        if shape is not None:
            ways = 1
            for kind in seq:
                ways *= len(TOKENS[kind])
            counts[shape] = counts.get(shape, 0) + ways
    return counts


def test_command_space_walk_counts_every_sequence_the_grammar_classifies():
    assert enumerate_command_space() == _weighted_shapes()


def test_command_space_walk_counts_a_command_added_to_the_grammar(monkeypatch):
    # a probe then a unit: a hand-listed audit of build, goto and train misses it
    monkeypatch.setitem(starcraft.GRAMMAR, ("probe", "select_unit"), "escort")
    counts = enumerate_command_space()
    assert counts == {"build": 1512, "escort": N_PROBES * N_UNITS, "goto": 108, "train": 576}
    monkeypatch.setattr(starcraft, "COMMANDS", starcraft.COMMANDS | {"escort"})
    assert counts == _weighted_shapes()


def test_classify_assembly_rejects_malformed():
    assert classify_assembly([TOKENS["commit"][0]]) is None
    assert classify_assembly([TOKENS["select_probe"][0], TOKENS["select_unit"][0]]) is None
    probe, building, coord = (TOKENS[kind] for kind in ("select_probe", "select_building",
                                                           "select_coord"))
    assert classify_assembly([probe[0], building[0], coord[0], coord[1]]) is None


def _chain_classify(tokens):
    """``classify_assembly`` as it was, before it walked ``GRAMMAR``."""
    state = "start"
    for pos, token in enumerate(tokens):
        last = pos == len(tokens) - 1
        if state == "start":
            if token.kind == "select_probe":
                state = "probe"
            elif token.kind == "select_coord":
                state = "train_from"
            else:
                return None
        elif state == "probe":
            if token.kind == "select_building":
                state = "build"
            elif token.kind == "select_coord":
                return "goto" if last else None
            else:
                return None
        elif state == "build":
            if token.kind == "select_coord":
                return "build" if last else None
            return None
        elif state == "train_from":
            if token.kind == "select_unit":
                return "train" if last else None
            return None
    return None


def test_classify_assembly_matches_the_state_chain_on_every_kind_sequence():
    shapes = set()
    for seq in (seq for n in range(5) for seq in itertools.product(TOKEN_KINDS, repeat=n)):
        tokens = [TOKENS[kind][0] for kind in seq]
        shapes.add(classify_assembly(tokens))
        assert classify_assembly(tokens) == _chain_classify(tokens), seq
    assert shapes == {None, "build", "goto", "train"}


def _chain_apply(world, token):
    """``StarcraftWorld.apply`` as it was, one branch per open assembly.

    Returns None while the assembly is open, else whether the step was a no-op.
    """
    state = world.assembly
    kind = token.kind
    if state[0] == "start":
        if kind == "select_probe":
            world.assembly = ("probe", token.value)
            return None
        if kind == "select_coord":
            cell = CELLS[token.value]
            if cell in world.grid:
                world.assembly = ("train_from", cell)
                return None
            resolved = ("noop", "coordinate holds no building")
        else:
            resolved = ("noop", f"{kind} opens nothing")
    elif state[0] == "probe":
        i = state[1]
        if kind == "select_building":
            world.assembly = ("build", i, token.value)
            return None
        if kind == "select_coord":
            resolved = ("goto", i, CELLS[token.value])
        else:
            resolved = ("noop", f"{kind} after a probe")
    elif state[0] == "build":
        _, i, b = state
        if kind == "select_coord":
            cell = CELLS[token.value]
            prereq = world.tree.prerequisite.get(b)
            if cell in world.grid:
                resolved = ("noop", "target cell occupied")
            elif prereq is not None and prereq not in world.grid.values():
                resolved = ("noop", "prerequisite not alive")
            else:
                resolved = ("build", i, b, cell)
        else:
            resolved = ("noop", f"{kind} closes no build")
    else:  # train_from
        cell = state[1]
        if kind == "select_unit":
            producer = world.grid.get(cell)
            if producer is not None and world.tree.producer.get(token.value) == producer:
                resolved = ("train", token.value)
            else:
                resolved = ("noop", "building does not train that unit")
        else:
            resolved = ("noop", f"{kind} closes no train")
    world.assembly = ("start",)
    if resolved[0] == "goto":
        _, i, cell = resolved
        world.probe_dest[i] = cell
        world.pending_build.pop(i, None)
    elif resolved[0] == "build":
        _, i, b, cell = resolved
        world.pending_build[i] = (b, cell)
        world.probe_dest[i] = cell
    elif resolved[0] == "train":
        world.pending_train.append(resolved[1])
    world._advance()
    return resolved[0] == "noop"


def _world_state(world):
    return (world.assembly == ("start",), list(world.probe_dest), dict(world.pending_build),
            list(world.pending_train), dict(world.grid), world.digest())


# whole build, go-to and train shapes, so that streams reach every world check,
# and every single token kind, so that they also break assemblies off anywhere
_PHRASES = [("select_probe", "select_building", "select_coord"),
            ("select_probe", "select_coord"), ("select_coord", "select_unit")]
_PHRASES += [(kind,) for kind in TOKEN_KINDS]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    disruptions=st.booleans(),
    phrases=st.lists(st.tuples(st.sampled_from(_PHRASES),
                               st.lists(st.integers(0, GRID * GRID - 1), min_size=3,
                                        max_size=3)), max_size=150),
)
def test_apply_matches_the_state_chain_on_random_token_streams(seed, disruptions, phrases):
    spec = EpisodeSpec("starcraft", max_len=6, disruptions=disruptions)
    world, chain = (spawn_episode_world(spec, seed) for _ in range(2))
    tokens = [TOKENS[kind][v % len(TOKENS[kind])]
              for kinds, values in phrases for kind, v in zip(kinds, values)]
    for token in tokens:
        if world.done:
            break
        noop = world.apply(token)
        assert noop == _chain_apply(chain, token)
        assert _world_state(world) == _world_state(chain)
        assert (world.done, world.cause, world.reward) == (chain.done, chain.cause, chain.reward)


def test_legal_train_pairs_bounded_by_grammar():
    rng = draws(6, "train-audit")
    for trial in range(30):
        tree, ins = gen_starcraft(rng, max_len=10)
        try:
            world = spawn(rng, tree, ins, seed=trial)
        except SpawnInfeasible:
            continue
        legal = legal_train_commands(world)
        assert 0 <= legal <= 576
        assert legal <= len(world.grid) * 16


# --- spawning ----------------------------------------------------------------------


def test_spawn_places_root_probes_and_endowment():
    rng = draws(7, "sc-spawn")
    for trial in range(40):
        tree, ins = gen_starcraft(rng, max_len=8)
        world = spawn(rng, tree, ins, seed=trial)
        assert 0 in world.grid.values()
        assert len(world.probes) == N_PROBES
        nexus_cells = [c for c, b in world.grid.items() if b == 0]
        assert all(p == nexus_cells[0] for p in world.probes)
        assert 0 <= world.endowment <= 36
        assert len(world.grid) <= 36
        assert not world.done


def test_disruptions_are_drawn_only_from_their_own_stream():
    tree, ins = gen_starcraft(draws(7, "sc-spawn"), max_len=8)
    spawning, twin, rolls = draws(7, "spawning"), draws(7, "spawning"), draws(7, "disruptions")
    world = spawn(spawning, tree, ins, disruption_rng=rolls, seed=7)
    assert world.rng is rolls
    assert spawn(twin, tree, ins, seed=7).rng is None
    for _ in range(20):
        world.roll_disruptions()
    assert spawning.random() == twin.random()  # the rolls left the spawning reader alone
    assert rolls.random() != draws(7, "disruptions").random()


def test_disruptions_are_switched_by_their_stream():
    """Off, an episode's world has no stream and never rolls; on, it rolls from
    the "disruptions" stream of its seed and from nothing else."""
    reports = []
    for seed in range(4):
        off = spawn_episode_world(EpisodeSpec("starcraft", max_len=6, disruptions=False), seed)
        on = spawn_episode_world(EpisodeSpec("starcraft", max_len=6), seed)
        twin = spawn_episode_world(EpisodeSpec("starcraft", max_len=6, disruptions=False), seed)
        assert off.rng is None and on.rng is not None
        twin.rng = draws(seed, "disruptions")
        assert _world_state(on) == _world_state(off)  # the switch moves no spawn draw
        policies = [OracleStarcraftPolicy() for _ in range(3)]
        while not on.done:
            noop = on.apply(policies[0].act(None, on))
            assert twin.apply(policies[1].act(None, twin)) == noop
            assert twin.last_disruption == on.last_disruption
            assert _world_state(twin) == _world_state(on)
            if noop is not None:  # the step resolved, so time passed and the world rolled
                reports.append(on.last_disruption)
        assert (twin.done, twin.cause) == (on.done, on.cause)
        with pytest.raises(ValueError, match="no disruption stream"):
            off.roll_disruptions()
        while not off.done:
            off.apply(policies[2].act(None, off))
            assert off.last_disruption is None
    assert any(r.attack for r in reports) and any(r.ambush for r in reports)


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
        ActionToken("select_probe", 3)
    with pytest.raises(ValueError):
        ActionToken("select_coord", 36)
    with pytest.raises(ValueError):
        ActionToken("commit", 1)
    with pytest.raises(ValueError):
        ActionToken("select_unit", None)


# --- digest -------------------------------------------------------------------------


def _snapshot_digest(world):
    blob = json.dumps(world.snapshot(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


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
        tree=gen_build_tree(draws(tree_seed, "tree")),
        instruction=Instruction((ScLine.unit(0),)),
        grid=grid,
        probes=probes,
        units=units,
        step_count=step,
        seed=seed,
    )
    assert world.digest() == _snapshot_digest(world)


def test_digest_follows_in_place_grid_edits():
    world = simple_world()
    digests = [world.digest()]
    for edit in ("add", "replace", "delete"):
        if edit == "delete":
            del world.grid[(3, 4)]
        else:
            world.grid[(3, 4)] = 1 if edit == "add" else 2
        digests.append(world.digest())
        assert digests[-1] == _snapshot_digest(world)
    assert len(set(digests)) == 3 and digests[0] == digests[-1]


def test_digest_follows_in_place_unit_edits():
    world = simple_world()
    digests = [world.digest()]
    for edit in ("add", "bump", "zero", "delete"):
        if edit == "delete":
            del world.units[3]
        else:
            world.units[3] = {"add": 1, "bump": 2, "zero": 0}[edit]
        digests.append(world.digest())
        assert digests[-1] == _snapshot_digest(world)
    # a count of 0 lays out as no unit at all
    assert len(set(digests)) == 3 and digests[0] == digests[3] == digests[4]


_IN_PLACE_EDITS = (
    st.tuples(st.just("grid"), st.sampled_from(CELLS), st.none() | st.integers(0, N_BUILDINGS - 1))
    | st.tuples(st.just("units"), st.integers(0, N_UNITS - 1), st.none() | st.integers(0, 3))
)


@settings(max_examples=200, deadline=None)
@given(tree_seed=st.integers(0, 2**32), edits=st.lists(_IN_PLACE_EDITS, max_size=40))
def test_digest_follows_any_run_of_in_place_edits_on_one_world(tree_seed, edits):
    """Each edit sets (or, with None, deletes) one grid cell or unit count, and the
    digest after it is laid out partly from what the digest before it kept."""
    world = StarcraftWorld(
        tree=gen_build_tree(draws(tree_seed, "tree")),
        instruction=Instruction((ScLine.unit(0),)),
        grid={},
        probes=[CELLS[0]] * N_PROBES,
    )
    assert world.digest() == _snapshot_digest(world)
    for field, key, value in edits:
        mapping = getattr(world, field)
        if value is None:
            mapping.pop(key, None)
        else:
            mapping[key] = value
        assert world.digest() == _snapshot_digest(world)


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
        tree=gen_build_tree(draws(0, "tree")),
        instruction=Instruction((ScLine.unit(0),)),
        grid=grid,
        probes=probes,
        units=units,
        step_count=step,
        done=done,
        cause=cause,
    )
    assert world.render() == _snapshot_render(world)
