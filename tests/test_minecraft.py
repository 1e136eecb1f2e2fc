"""Resource gridworld dynamics, routing and spawning.

Routing is verified against a networkx shortest-path oracle over the
layered (cell, water-used) state graph, which shares no code with the
library's hand-rolled search.
"""

import hashlib
import itertools
import json
from collections import deque
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid import minecraft
from flowgrid.errors import EpisodeDone, SpawnInfeasible
from flowgrid.generators import gen_longjump, gen_minecraft
from flowgrid.instructions import COMPARANDS, CfLine, Instruction
from flowgrid.minecraft import (
    CELLS,
    ENTITY_CHARS,
    GRID,
    Command,
    MinecraftWorld,
    required_stream_feasible,
    spawn,
    spawn_longjump,
)
from flowgrid.rngtools import draws, substream

S = CfLine.subtask


def mc(*lines):
    return Instruction(tuple(lines))


def world_from(rows, instruction, inventory=None, worker=None):
    """Build a world from an ASCII grid: i/g/w/m entities, # wall, ~ water,
    @ worker (overrides ``worker``), . open."""
    entities = {}
    water = set()
    walls = set()
    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            if ch == "@":
                worker = (r, c)
            elif ch == "#":
                walls.add((r, c))
            elif ch == "~":
                water.add((r, c))
            elif ch in "igwm":
                entities[(r, c)] = {
                    "i": "iron",
                    "g": "gold",
                    "w": "wood",
                    "m": "merchant",
                }[ch]
    world = MinecraftWorld(
        instruction=instruction,
        entities=entities,
        water=water,
        walls=frozenset(walls),
        worker=worker,
        inventory=dict({r: 0 for r in ("iron", "gold", "wood")}, **(inventory or {})),
    )
    world.normalize()
    return world


def drive(world, command, max_steps=200):
    """Repeat one command until the episode ends or the pc advances."""
    start_pc = world.pc
    for _ in range(max_steps):
        world.step(command)
        if world.done or world.pc != start_pc:
            return
    raise AssertionError("command made no progress")


# --- single-command dynamics -------------------------------------------------------


def test_mine_removes_entity_and_fills_inventory():
    world = world_from(["@.i...", "......"] + ["......"] * 4, mc(S("mine", "iron")))
    world.step(Command("mine", "iron"))  # move right
    assert world.worker == (0, 1)
    obs, reward, done, cause = world.step(Command("mine", "iron"))  # arrive + mine
    assert world.worker == (0, 2)
    assert reward == 1 and done and cause == "success"
    assert world.inventory["iron"] == 1
    assert (0, 2) not in world.entities


def test_sell_consumes_inventory_at_merchant():
    world = world_from(
        ["@m....", "......"] + ["......"] * 4,
        mc(S("sell", "gold")),
        inventory={"gold": 2},
    )
    obs, reward, done, cause = world.step(Command("sell", "gold"))
    assert reward == 1 and done and cause == "success"
    assert world.inventory["gold"] == 1
    assert world.entities[(0, 1)] == "merchant"  # merchants persist


def test_sell_auto_mines_when_inventory_empty():
    world = world_from(["@.g.m.", "......"] + ["......"] * 4, mc(S("sell", "gold")))
    for _ in range(2):
        world.step(Command("sell", "gold"))
    assert world.inventory["gold"] == 1  # collected the target first
    assert (0, 2) not in world.entities
    assert not world.done
    for _ in range(2):
        obs, reward, done, cause = world.step(Command("sell", "gold"))
    assert done and cause == "success" and reward == 1
    assert world.inventory["gold"] == 0


def test_inspect_mutates_nothing_and_never_terminates():
    world = world_from(
        ["@i....", "......"] + ["......"] * 4,
        mc(S("mine", "iron")),
    )
    before = dict(world.entities)
    obs, reward, done, cause = world.step(Command("inspect", "iron"))
    assert world.entities == before and not done and reward == 0
    assert world.inventory["iron"] == 0
    # inspecting while a mine is demanded does not advance the stream
    assert world.pc == 0


def test_inspect_advances_when_demanded():
    world = world_from(["@i....", "......"] + ["......"] * 4, mc(S("inspect", "iron")))
    obs, reward, done, cause = world.step(Command("inspect", "iron"))
    assert reward == 1 and done and cause == "success"
    assert world.entities  # nothing consumed


def test_out_of_order_mine_fails_episode():
    world = world_from(
        ["@ig...", "......"] + ["......"] * 4,
        mc(S("mine", "iron"), S("mine", "gold")),
    )
    world.step(Command("mine", "gold"))  # heads for gold instead of iron
    obs, reward, done, cause = world.step(Command("mine", "gold"))
    assert done and cause == "out_of_order" and reward == 0
    assert world.reward == 0


def test_out_of_order_sell_fails_episode():
    world = world_from(
        ["@m....", "......"] + ["......"] * 4,
        mc(S("mine", "iron")),
        inventory={"gold": 1},
    )
    obs, reward, done, cause = world.step(Command("sell", "gold"))
    assert done and cause == "out_of_order"


# an arrival's (interaction, whether the demanded line names it) -> (pc, cause)
# after one step, from a first line demanded twice over; an auto_mine is the
# mining leg of a sell made empty-handed, named by a demanded sell line
_ARRIVAL = {
    ("mine", True): (1, None), ("mine", False): (0, "out_of_order"),
    ("sell", True): (1, None), ("sell", False): (0, "out_of_order"),
    ("auto_mine", True): (0, None), ("auto_mine", False): (0, "out_of_order"),
    ("inspect", True): (1, None), ("inspect", False): (0, None),
}
# the worker at (1, 1) with one entity of each kind next to it
_NEIGHBOURS = {(0, 1): "iron", (1, 0): "gold", (1, 2): "wood", (2, 1): "merchant"}
_SUBTASKS = [(verb, target) for verb in ("mine", "sell", "inspect")
             for target in ("iron", "gold", "wood")]


@pytest.mark.parametrize("verb, target", _SUBTASKS)
@pytest.mark.parametrize("held", [0, 1])
def test_arrival_rule_against_a_table(verb, target, held):
    for line in _SUBTASKS:
        world = world_from([".i....", "g@w...", ".m...."] + ["......"] * 3, mc(S(*line), S(*line)),
                           inventory={r: held for r in ("iron", "gold", "wood")})
        world.apply(Command(verb, target))
        interaction = "auto_mine" if (verb, held) == ("sell", 0) else verb
        named = (line[0] == ("sell" if interaction == "auto_mine" else verb)
                 and line[1] == target)
        pc, cause = _ARRIVAL[interaction, named]
        inventory = {r: held for r in ("iron", "gold", "wood")}
        entities = dict(_NEIGHBOURS)
        if interaction in ("mine", "auto_mine"):
            inventory[target] += 1
            del entities[next(c for c, kind in _NEIGHBOURS.items() if kind == target)]
        elif interaction == "sell":
            inventory[target] -= 1
        case = (verb, target, held, line)
        assert (world.pc, world.cause, world.done) == (pc, cause, cause is not None), case
        assert (world.inventory, world.entities) == (inventory, entities), case
        assert world.step_count == 1 and world.reward == 0, case


def test_sell_whose_last_wood_bridges_onto_the_merchant_retries():
    # only a hand-built world puts a merchant in water: the bridge spends the
    # wood to be sold, so the arrival neither advances nor ends the episode
    world = world_from(["@mw...", "......"] + ["......"] * 4, mc(S("sell", "wood")),
                       inventory={"wood": 1})
    world.water.add((0, 1))
    world.apply(Command("sell", "wood"))
    assert world.worker == (0, 1) and not world.water
    assert (world.pc, world.done, world.inventory["wood"]) == (0, False, 0)
    assert world._route is None  # the arrival dropped the route to the merchant
    world.apply(Command("sell", "wood"))  # empty-handed: mines the wood first
    assert world.worker == (0, 2) and (0, 2) not in world.entities
    assert (world.pc, world.done, world.inventory["wood"]) == (0, False, 1)
    world.apply(Command("sell", "wood"))
    assert world.worker == (0, 1) and world.entities[(0, 1)] == "merchant"
    assert (world.done, world.cause, world.inventory["wood"]) == (True, "success", 0)


def test_missing_goal_stalls_into_timeout():
    world = world_from(["@.....", "......"] + ["......"] * 4, mc(S("mine", "iron")))
    while not world.done:
        world.step(Command("mine", "iron"))
    assert world.cause == "timeout"
    assert world.step_count == world.time_limit == 30


def test_step_after_done_raises():
    world = world_from(["@i....", "......"] + ["......"] * 4, mc(S("mine", "iron")))
    drive(world, Command("mine", "iron"))
    assert world.done
    with pytest.raises(EpisodeDone):
        world.step(Command("mine", "iron"))


# --- water and walls ---------------------------------------------------------------


def test_bridging_spends_wood_and_opens_cell():
    rows = [
        "@.....",
        "~~~~~~",
        "i.....",
    ] + ["......"] * 3
    world = world_from(rows, mc(S("mine", "iron")), inventory={"wood": 1})
    world.step(Command("mine", "iron"))  # steps into the water line
    assert world.worker == (1, 0)
    assert world.inventory["wood"] == 0
    assert (1, 0) not in world.water  # bridged for good
    obs, reward, done, cause = world.step(Command("mine", "iron"))  # arrive + mine
    assert done and cause == "success"


def test_no_wood_means_no_bridge():
    rows = [
        "@.....",
        "~~~~~~",
        "i.....",
    ] + ["......"] * 3
    world = world_from(rows, mc(S("mine", "iron")))
    world.step(Command("mine", "iron"))
    assert world.worker == (0, 0)  # no route within a zero wood budget
    assert world.water == {(1, c) for c in range(GRID)}


def test_router_bridges_when_strictly_shorter():
    # the dry route around the water column costs six moves, bridging costs
    # four moves and a wood; the shorter route wins and spends exactly one
    rows = [
        "@~....",
        ".~....",
        ".~i...",
    ] + ["......"] * 3
    world = world_from(rows, mc(S("mine", "iron")), inventory={"wood": 5})
    steps = 0
    while not world.done:
        world.step(Command("mine", "iron"))
        steps += 1
    assert world.cause == "success"
    assert world.inventory["wood"] == 4  # one bridge beats the detour
    assert steps == 4


def test_walls_block_movement():
    rows = [
        "@#i...",
        ".#....",
        "......",
    ] + ["......"] * 3
    world = world_from(rows, mc(S("mine", "iron")))
    while not world.done:
        world.step(Command("mine", "iron"))
    assert world.cause == "success"
    # forced around the wall column: down, down, right, right, up, up;
    # the sixth move arrives and mines in the same step
    assert world.step_count == 6


# --- routing against networkx ----------------------------------------------------


def _route_oracle(world, goal_kind):
    """Shortest distance and row-major best goal via networkx.

    Directed graph: spending wood to enter water is one-way, so the walk
    cannot "unspend" by traversing an edge backwards.
    """
    graph = nx.DiGraph()
    budget = world.inventory["wood"]
    for r in range(GRID):
        for c in range(GRID):
            if (r, c) in world.walls:
                continue
            for used in range(budget + 1):
                graph.add_node(((r, c), used))
    for ((r, c), used) in list(graph.nodes):
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if not (0 <= nb[0] < GRID and 0 <= nb[1] < GRID) or nb in world.walls:
                continue
            fwd = used + (1 if nb in world.water else 0)
            if fwd <= budget:
                graph.add_edge(((r, c), used), (nb, fwd))
    start = (world.worker, 0)
    lengths = nx.single_source_shortest_path_length(graph, start)
    best = None
    goals = sorted(c for c, k in world.entities.items() if k == goal_kind)
    for cell in goals:
        dists = [lengths[(cell, u)] for u in range(budget + 1) if (cell, u) in lengths]
        if dists:
            cand = (min(dists), cell)
            if best is None or cand < best:
                best = cand
    return best  # None when unreachable


def _path_is_valid(world, path):
    budget = world.inventory["wood"]
    used = 0
    here = world.worker
    for cell in path:
        assert abs(cell[0] - here[0]) + abs(cell[1] - here[1]) == 1
        assert cell not in world.walls
        assert 0 <= cell[0] < GRID and 0 <= cell[1] < GRID
        if cell in world.water:
            used += 1
        here = cell
    assert used <= budget
    return True


@given(seed=st.integers(0, 1_000_000))
@settings(max_examples=150, deadline=None)
def test_bfs_matches_networkx(seed):
    rng = substream(seed, "route-oracle")
    rows = ["".join(rng.choice(list(".....igwm#~")) for _ in range(GRID)) for _ in range(GRID)]
    grid = [list(row) for row in rows]
    r, c = int(rng.integers(GRID)), int(rng.integers(GRID))
    grid[r][c] = "@"
    wood = int(rng.integers(0, 4))
    world = world_from(
        ["".join(row) for row in grid],
        mc(S("mine", "iron")),
        inventory={"wood": wood},
    )
    goal_kind = ["iron", "gold", "wood", "merchant"][int(rng.integers(4))]
    goals = {cell for cell, k in world.entities.items() if k == goal_kind}
    if world.worker in goals:
        return
    path = world._bfs(goals)
    oracle = _route_oracle(world, goal_kind)
    if oracle is None:
        assert path is None
    else:
        assert path is not None
        assert _path_is_valid(world, path)
        assert len(path) == oracle[0]
        assert path[-1] == oracle[1]


def _full_bfs(world, goals):
    """The router without its early exit: search every reachable state, then
    pick the least (dist, cell, used) goal state."""
    start = world.worker
    budget = world.inventory["wood"]
    start_state = (start, 0)
    dist = {start_state: 0}
    parent = {}
    queue = deque([start_state])
    while queue:
        state = queue.popleft()
        (r, c), used = state
        d = dist[state]
        for nb in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)):
            if not (0 <= nb[0] < GRID and 0 <= nb[1] < GRID):
                continue
            if nb in world.walls:
                continue
            nused = used + (1 if nb in world.water else 0)
            if nused > budget:
                continue
            nstate = (nb, nused)
            if nstate in dist:
                continue
            dist[nstate] = d + 1
            parent[nstate] = state
            queue.append(nstate)
    best = None
    for cell in sorted(goals):
        for used in range(budget + 1):
            state = (cell, used)
            if state in dist:
                cand = (dist[state], cell, used)
                if best is None or cand < best:
                    best = cand
    if best is None:
        return None
    path = []
    state = (best[1], best[2])
    while state != start_state:
        path.append(state[0])
        state = parent[state]
    path.reverse()
    return path


@given(seed=st.integers(0, 1_000_000))
@settings(max_examples=400, deadline=None)
def test_bfs_route_equals_full_search(seed):
    rng = substream(seed, "route-reference")
    cells = list(rng.choice(list("....igwm##~~~"), GRID * GRID))
    cells[int(rng.integers(GRID * GRID))] = "@"
    rows = ["".join(cells[r * GRID:(r + 1) * GRID]) for r in range(GRID)]
    wood = int(rng.integers(0, 4))
    world = world_from(rows, mc(S("mine", "iron")), inventory={"wood": wood})
    goal_kind = ["iron", "gold", "wood", "merchant"][int(rng.integers(4))]
    goals = {cell for cell, k in world.entities.items() if k == goal_kind}
    assert world._bfs(goals) == _full_bfs(world, goals)


def test_bfs_equidistant_goals_resolve_by_cell_before_water_used():
    # (0, 0) lies two steps away across one water cell, (2, 2) two dry steps
    world = world_from(["i~@...", "......", "..i...", "......", "......", "......"],
                       mc(S("mine", "iron")), inventory={"wood": 1})
    goals = {(0, 0), (2, 2)}
    assert world._bfs(goals) == _full_bfs(world, goals) == [(0, 1), (0, 0)]


@pytest.mark.parametrize(
    "rows, wood",
    [
        (["i#....", "#.....", "..@...", "......", "......", "......"], 0),
        (["i~....", "~~....", "..@...", "......", "......", "......"], 0),
        (["i~~...", "~~~...", "~~@...", "......", "......", "......"], 1),
    ],
    ids=["walled-off", "across-water", "water-beyond-wood"],
)
def test_bfs_unreachable_goal_is_none(rows, wood):
    world = world_from(rows, mc(S("mine", "iron")), inventory={"wood": wood})
    assert world._bfs({(0, 0)}) is None
    assert _full_bfs(world, {(0, 0)}) is None


# --- spawn gate --------------------------------------------------------------------


def _full_dry_run(world):
    """The gate without its stall exit: play the oracle until the world ends."""
    sim = world.clone()
    while not sim.done:
        line = sim.required_subtask()
        sim.apply(Command(line.verb, line.target))
    return sim.cause == "success"


@pytest.fixture
def apply_calls(monkeypatch):
    """Commands passed to MinecraftWorld.apply while the test runs."""
    calls = []
    apply = MinecraftWorld.apply

    def counted(self, command):
        calls.append(command)
        return apply(self, command)

    monkeypatch.setattr(MinecraftWorld, "apply", counted)
    return calls


@given(seed=st.integers(0, 1_000_000), max_len=st.integers(1, 20))
@settings(max_examples=200, deadline=None)
def test_gate_matches_full_dry_run(seed, max_len):
    rng = draws(seed, "gate-oracle")
    ins = gen_minecraft(rng, (1, max_len))
    try:
        # the gate passes every placement, so a world it would reject is tested too
        with mock.patch.object(minecraft, "oracle_completes", lambda world: True):
            world = spawn(rng, ins, seed=seed)
    except SpawnInfeasible:
        return
    assert minecraft.oracle_completes(world) == _full_dry_run(world)


@pytest.mark.parametrize(
    "rows, instruction",
    [
        (["i#....", "#.....", "..@...", "......", "......", "......"],
         mc(S("mine", "iron"))),
        (["i~....", "~~....", "..@...", "......", "......", "......"],
         mc(S("mine", "iron"))),
        (["@.....", "......", "......", "......", "......", "......"],
         mc(S("inspect", "gold"))),
    ],
    ids=["walled-off", "across-water-no-wood", "absent"],
)
def test_gate_rejects_at_first_stall(apply_calls, rows, instruction):
    world = world_from(rows, instruction)
    assert not world.done and world.time_limit == 30
    assert not minecraft.oracle_completes(world)
    assert len(apply_calls) == 1
    assert world.step_count == 0  # the dry run plays a copy


def test_gate_does_not_stop_on_steps_that_keep_the_pc(apply_calls):
    # a long walk: every step but the last leaves pc where it was
    world = world_from(["@.....", "......", "......", "......", "......", ".....i"],
                       mc(S("mine", "iron")))
    assert minecraft.oracle_completes(world)
    assert len(apply_calls) == 10


# --- conservation and observation ---------------------------------------------


def test_entity_conservation_under_oracle():
    rng = draws(99, "conserve")
    for trial in range(20):
        ins = gen_minecraft(rng, (1, 8))
        try:
            world = spawn(rng, ins, seed=trial)
        except SpawnInfeasible:
            continue
        def tally(w):
            counts = dict.fromkeys(("iron", "gold", "wood"), 0)
            for kind in w.entities.values():
                if kind in counts:
                    counts[kind] += 1
            return counts
        start = tally(world)
        start_inv = dict(world.inventory)
        sold = 0
        bridged = 0
        while not world.done:
            water_before = len(world.water)
            line = world.required_subtask()
            _, reward, _, _ = world.step(Command(line.verb, line.target))
            bridged += water_before - len(world.water)
        end = tally(world)
        end_inv = dict(world.inventory)
        for res in ("iron", "gold"):
            # map + inventory only shrinks by sales
            assert start[res] + start_inv[res] >= end[res] + end_inv[res]
        # wood additionally funds bridges, one unit per opened cell
        assert (
            start["wood"] + start_inv["wood"]
            >= end["wood"] + end_inv["wood"] + bridged
        )
        assert world.cause == "success"


def test_observation_channels():
    rows = [
        "@i....",
        "#.....",
        "~.....",
    ] + ["......"] * 3
    world = world_from(rows, mc(S("mine", "iron")), inventory={"gold": 2})
    obs = world.observe()
    assert obs.channels.shape == (7, GRID, GRID)
    assert obs.channels[0, 0, 1]  # iron
    assert obs.channels[4, 1, 0]  # wall
    assert obs.channels[5, 2, 0]  # water
    assert obs.channels[6, 0, 0]  # worker
    assert obs.inventory == (0, 2, 0)
    assert obs.instruction == ((0, 0, 0),)
    # no hidden task progress anywhere in the observation
    assert not hasattr(obs, "pc")


def test_observation_is_pc_independent():
    # same map, different task progress: observations must be identical
    ins = mc(S("inspect", "iron"), S("mine", "iron"))
    world = world_from(["@i....", "......"] + ["......"] * 4, ins)
    ahead = world.clone()
    ahead.pc = 1
    first, second = world.observe(), ahead.observe()
    assert (first.channels == second.channels).all()
    assert first.inventory == second.inventory
    assert first.instruction == second.instruction


def test_clone_is_independent():
    world = world_from(["@i....", "......"] + ["......"] * 4, mc(S("mine", "iron")))
    copy = world.clone()
    drive(copy, Command("mine", "iron"))
    assert copy.done and not world.done
    assert (0, 1) in world.entities
    # mid-route, with water and wood in hand: the route must bridge the water line
    world = world_from(["@.....", "~~~~~~", "......", "....i."] + ["......"] * 2,
                       mc(S("mine", "iron")), inventory={"wood": 2, "gold": 1})
    world.spawn_attempts = [minecraft.SpawnAttempt(0, "accepted", True)]
    command = Command("mine", "iron")
    world.apply(command)
    assert world._route and world.water and not world.done
    before = (world.digest(), set(world.water), dict(world.inventory), list(world._route))
    copy = world.clone()
    assert copy.spawn_attempts is None and copy._route is None
    assert copy.digest() == world.digest()
    trajectory = []
    while not copy.done:
        copy.apply(command)
        trajectory.append(copy.digest())
    assert copy.cause == "success" and copy.inventory["wood"] < before[2]["wood"]
    assert (world.digest(), world.water, world.inventory, world._route) == before
    for digest in trajectory:  # the original then walks its own route the same way
        world.apply(command)
        assert world.digest() == digest
    assert world.cause == "success"


# --- spawning ----------------------------------------------------------------------


def test_spawn_statistics_and_invariants():
    rng = draws(5, "spawn-props")
    seen_water = False
    for trial in range(120):
        ins = gen_minecraft(rng, (1, 6))
        try:
            world = spawn(rng, ins, seed=trial)
        except SpawnInfeasible:
            continue
        attempts = world.spawn_attempts
        n = attempts[-1].n
        assert 1 <= len(attempts) <= 51  # the first placement and up to 50 resamples
        assert [a.stage == "accepted" for a in attempts] == [False] * (len(attempts) - 1) + [True]
        assert len({id(attempt) for attempt in attempts}) == len(attempts)  # SpawnAttempt is mutable
        for attempt in attempts:
            assert attempt.n == n
            if attempt.stage != "static_reject":  # water drawn after the type check
                assert attempt.water_placed == (attempt.n <= 30)
        # walls only on even-even cells, never over anything else
        for (r, c) in world.walls:
            assert r % 2 == 0 and c % 2 == 0
        occupied = set(world.entities) | world.water | {world.worker}
        assert not (world.walls & occupied)
        assert len(world.entities) == n  # nothing is mined before the first step
        if world.water:
            seen_water = True
            assert attempts[-1].water_placed and not attempts[-1].water_removed
            rows = {r for r, _ in world.water}
            cols = {c for _, c in world.water}
            assert len(rows) == 1 or len(cols) == 1  # a straight full line
        assert minecraft.oracle_completes(world)
    assert seen_water


class _ScriptedReader:
    """A "spawning" reader that draws ``n`` and then repeats one attempt's
    draws: the entity kinds, the water line's index and axis, and the order
    of the open cells."""

    def __init__(self, n, attempt_draws):
        self._next = itertools.chain([n], itertools.cycle(attempt_draws))

    def integers(self, *args, **kwargs):
        return next(self._next)

    permutation = integers


# feasible for any counts: mining iron is demanded only while iron outnumbers gold
_ANY_COUNTS_PASS = mc(CfLine.if_("iron", "gold"), S("mine", "iron"), CfLine.endif())


@pytest.mark.parametrize("axis, index", [(axis, i) for axis in range(2) for i in range(GRID)])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_spawn_removes_the_water_iff_it_cuts_the_worker_off_from_all_wood(axis, index, data):
    # axis 0 lays the water along row ``index``, axis 1 down column ``index``
    open_count = len(CELLS) - GRID
    n = data.draw(st.integers(0, open_count - 1), label="n")  # n entities and the worker
    kinds = data.draw(st.lists(st.integers(0, len(COMPARANDS) - 1), min_size=n, max_size=n))
    order = data.draw(st.permutations(range(open_count)), label="order")
    try:
        first = spawn(_ScriptedReader(n, [kinds, index, axis, order]),
                      _ANY_COUNTS_PASS).spawn_attempts[0]
    except SpawnInfeasible as exc:  # the gate refused every attempt
        first = exc.attempts[0]
    water = {cell for cell in CELLS if cell[axis] == index}
    open_cells = [cell for cell in CELLS if cell not in water]
    chosen = [open_cells[i] for i in order[: n + 1]]
    woods = [cell for cell, kind in zip(chosen, kinds) if COMPARANDS[kind] == "wood"]
    dry = nx.grid_2d_graph(GRID, GRID)
    dry.remove_nodes_from(water)
    assert first.stage != "placement_reject" and first.water_placed
    assert first.water_removed == (not any(nx.has_path(dry, chosen[n], w) for w in woods))


def test_spawn_longjump_leaves_guard_comparand_absent():
    rng = draws(8, "longjump-spawn")
    for block in (1, 7, 40):
        ins = gen_longjump(rng, block)
        world = spawn_longjump(rng, ins, seed=block)
        assert world.spawn_attempts is None  # one permutation, nothing resampled
        a, _ = ins.lines[0].condition
        assert world.counts()[a] == 0
        assert world.pc == len(ins) - 1  # demand jumped past the block
        assert not world.done


def test_required_stream_feasible_counts():
    # counts in COMPARANDS order: iron, gold, wood, merchant
    assert COMPARANDS == ("iron", "gold", "wood", "merchant")
    ins = mc(S("mine", "iron"), S("mine", "iron"))
    assert required_stream_feasible(ins, (2, 0, 0, 0))
    assert not required_stream_feasible(ins, (1, 0, 0, 0))
    sell = mc(S("sell", "gold"))
    assert not required_stream_feasible(sell, (0, 1, 0, 0))  # no merchant
    assert required_stream_feasible(sell, (0, 1, 0, 1))
    assert not required_stream_feasible(sell, (0, 0, 0, 1))  # nothing to sell
    inspect = mc(S("inspect", "wood"))
    assert required_stream_feasible(inspect, (0, 0, 1, 0))
    assert not required_stream_feasible(inspect, (0, 0, 0, 0))


# --- digest -------------------------------------------------------------------------


ANY_STATE = dict(
    entities=st.dictionaries(st.sampled_from(CELLS), st.sampled_from(COMPARANDS)),
    water=st.sets(st.sampled_from(CELLS)),
    walls=st.frozensets(st.sampled_from(CELLS)),
    worker=st.sampled_from(CELLS),
    inventory=st.fixed_dictionaries(
        {r: st.integers(0, 10**9) for r in ("iron", "gold", "wood")}
    ),
    step=st.integers(0, 10**6),
    seed=st.none() | st.integers(0, 2**63),
)


@settings(max_examples=200, deadline=None)
@given(**ANY_STATE)
def test_digest_is_hash_of_sorted_snapshot_json_on_any_state(
    entities, water, walls, worker, inventory, step, seed
):
    world = MinecraftWorld(
        instruction=mc(S("mine", "iron")),
        entities=entities,
        water=water,
        walls=walls,
        worker=worker,
        inventory=inventory,
        step_count=step,
        seed=seed,
    )
    # each cell shows its wall, else its water, else its entity
    grid = [
        "".join(
            "#" if (r, c) in walls
            else "~" if (r, c) in water
            else ENTITY_CHARS[entities[(r, c)]] if (r, c) in entities
            else "."
            for c in range(GRID)
        )
        for r in range(GRID)
    ]
    assert world.snapshot() == {
        "grid": grid,
        "worker": list(worker),
        "inventory": inventory,
        "step": step,
        "seed": seed,
    }
    blob = json.dumps(world.snapshot(), sort_keys=True, separators=(",", ":"))
    assert world.digest() == hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _snapshot_render(world):
    """``render`` as it was when it drew from the snapshot dict."""
    rows = [list(row) for row in world.snapshot()["grid"]]
    rows[world.worker[0]][world.worker[1]] = "@"
    inv = " ".join(f"{r}:{world.inventory[r]}" for r in ("iron", "gold", "wood"))
    status = world.cause if world.done else "running"
    lines = ["".join(row) for row in rows]
    lines.append(f"step {world.step_count} inv {inv} [{status}]")
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(**ANY_STATE, ending=st.sampled_from([(False, None), (True, "success"), (True, "timeout")]))
def test_render_matches_the_snapshot_drawing_on_any_state(
    entities, water, walls, worker, inventory, step, seed, ending
):
    done, cause = ending
    world = MinecraftWorld(
        instruction=mc(S("mine", "iron")),
        entities=entities,
        water=water,
        walls=walls,
        worker=worker,
        inventory=inventory,
        step_count=step,
        seed=seed,
        done=done,
        cause=cause,
    )
    assert world.render() == _snapshot_render(world)
