"""The compiled block structure against the walkers it replaced.

``compile_flow`` turns an instruction's if/else/while structure into jump
tables once; ``validate``, ``cf_step``, ``required_stream_feasible`` and
``spawn`` read those tables.  The functions below are the earlier
implementations, which rebuilt a peer map and dispatched on line kinds on
every call, and ``spawn`` without its early exit at n = 36, judging the water
cut by breadth-first search rather than by the side of the line: it makes every
draw through numpy.  They stay here as the oracles the property tests compare
against.
"""

from collections import deque
from typing import List, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid.errors import SpawnInfeasible, StructuralError
from flowgrid.generators import gen_minecraft
from flowgrid.instructions import (
    COMPARANDS,
    ELSE,
    ENDIF,
    ENDWHILE,
    IF,
    RESOURCES,
    SUBTASK,
    VERBS,
    WHILE,
    CfLine,
    Instruction,
    Verdict,
    compile_flow,
    validate,
)
from flowgrid.interpreter import cf_step
from flowgrid.minecraft import (
    CELLS,
    GRID,
    TIME_LIMIT_FACTOR,
    WATER_MAX_ENTITIES,
    MinecraftWorld,
    SpawnAttempt,
    oracle_completes,
    required_stream_feasible,
    spawn,
)
from flowgrid.rngtools import draws, substream

# --- the earlier walkers ------------------------------------------------------------


def _old_validate(instruction: Instruction) -> Verdict:
    stack = []  # entries: [kind, opener_index, has_else]
    for i, line in enumerate(instruction.lines):
        kind = line.kind
        if kind == SUBTASK:
            continue
        if kind in (IF, WHILE):
            stack.append([kind, i, False])
        elif kind == ELSE:
            if not stack or stack[-1][0] != IF or stack[-1][2]:
                return Verdict(False, i, "else outside an open if-clause")
            stack[-1][2] = True
        elif kind == ENDIF:
            if not stack or stack[-1][0] != IF:
                return Verdict(False, i, "endif without an open if")
            stack.pop()
        elif kind == ENDWHILE:
            if not stack or stack[-1][0] != WHILE:
                return Verdict(False, i, "endwhile without an open while")
            stack.pop()
    if stack:
        kind, i, _ = stack[-1]
        return Verdict(False, i, f"{kind} never closed")
    return Verdict(True)


def _old_block_map(instruction: Instruction) -> dict:
    peers = {}
    stack = []
    for i, line in enumerate(instruction.lines):
        kind = line.kind
        if kind in (IF, WHILE):
            stack.append([kind, i, None])
        elif kind == ELSE:
            if not stack or stack[-1][0] != IF or stack[-1][2] is not None:
                raise StructuralError(f"line {i}: stray else")
            stack[-1][2] = i
        elif kind == ENDIF:
            if not stack or stack[-1][0] != IF:
                raise StructuralError(f"line {i}: stray endif")
            _, opener, else_i = stack.pop()
            peers[opener] = (else_i, i)
            peers[i] = opener
            if else_i is not None:
                peers[else_i] = opener
        elif kind == ENDWHILE:
            if not stack or stack[-1][0] != WHILE:
                raise StructuralError(f"line {i}: stray endwhile")
            _, opener, _ = stack.pop()
            peers[opener] = (None, i)
            peers[i] = opener
    if stack:
        raise StructuralError(f"line {stack[-1][1]}: block never closed")
    return peers


def _old_cf_step(instruction, pc, cond_eval, peers=None) -> int:
    length = len(instruction)
    if not 0 <= pc <= length:
        raise ValueError(f"pc {pc} out of range 0..{length}")
    if peers is None:
        peers = _old_block_map(instruction)
    budget = 4 * length + 8
    for _ in range(budget):
        if pc == length:
            return pc
        line = instruction.lines[pc]
        kind = line.kind
        if kind == SUBTASK:
            return pc
        if kind == IF:
            else_i, close_i = peers[pc]
            if cond_eval(line.condition):
                pc += 1
            else:
                pc = (else_i + 1) if else_i is not None else (close_i + 1)
        elif kind == ELSE:
            _, close_i = peers[peers[pc]]
            pc = close_i + 1
        elif kind == ENDIF:
            pc += 1
        elif kind == WHILE:
            _, close_i = peers[pc]
            pc = pc + 1 if cond_eval(line.condition) else close_i + 1
        elif kind == ENDWHILE:
            pc = peers[pc]
    raise StructuralError("resolution budget exceeded (vacuous loop?)")


def _old_required_stream_feasible(instruction: Instruction, type_counts) -> bool:
    counts = {kind: 0 for kind in COMPARANDS}
    for kind, value in dict(type_counts).items():
        counts[kind] = value
    inventory = {r: 0 for r in RESOURCES}
    try:
        peers = _old_block_map(instruction)
    except StructuralError:
        return False
    limit = TIME_LIMIT_FACTOR * len(instruction)
    pc = 0
    emitted = 0
    while True:
        try:
            pc = _old_cf_step(
                instruction, pc, lambda cond: counts[cond[0]] > counts[cond[1]], peers
            )
        except StructuralError:
            return False
        if pc == len(instruction):
            return True
        emitted += 1
        if emitted > limit:
            return False
        line = instruction.lines[pc]
        verb, resource = line.verb, line.target
        if verb == "mine":
            if counts[resource] < 1:
                return False
            counts[resource] -= 1
            inventory[resource] += 1
        elif verb == "sell":
            if counts["merchant"] < 1:
                return False
            if inventory[resource] == 0:
                if counts[resource] < 1:
                    return False
                counts[resource] -= 1
            else:
                inventory[resource] -= 1
        else:  # inspect
            if counts[resource] < 1:
                return False
        pc += 1


def _wall_cells(occupied: set) -> frozenset:
    # walls fill open cells whose row and column indices are both even
    return frozenset(
        (r, c)
        for r in range(0, GRID, 2)
        for c in range(0, GRID, 2)
        if (r, c) not in occupied
    )


def _old_wood_reachable(entities: dict, worker: tuple, water: set) -> bool:
    woods = {cell for cell, kind in entities.items() if kind == "wood"}
    if not woods:
        return False
    seen = {worker}
    queue = deque([worker])
    while queue:
        r, c = queue.popleft()
        if (r, c) in woods:
            return True
        for nb in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)):
            if (
                0 <= nb[0] < GRID
                and 0 <= nb[1] < GRID
                and nb not in water
                and nb not in seen
            ):
                seen.add(nb)
                queue.append(nb)
    return False


def _old_spawn(rng, instruction, max_resamples=50, feasibility_gate=True, seed=None):
    n = int(rng.integers(0, 37))
    attempts: List[SpawnAttempt] = []
    for _ in range(max_resamples + 1):
        kinds = [COMPARANDS[i] for i in rng.integers(0, len(COMPARANDS), size=n)]
        if n + 1 > len(CELLS):  # room is judged before kinds: no cell for the worker
            attempts.append(SpawnAttempt(n, "placement_reject"))
            continue
        type_counts = {kind: kinds.count(kind) for kind in COMPARANDS}
        if not _old_required_stream_feasible(instruction, type_counts):
            attempts.append(SpawnAttempt(n, "static_reject"))
            continue
        water_placed = n <= WATER_MAX_ENTITIES
        water: Set[tuple] = set()
        if water_placed:
            index = int(rng.integers(GRID))
            if int(rng.integers(2)) == 0:
                water = {(index, c) for c in range(GRID)}
            else:
                water = {(r, index) for r in range(GRID)}
        open_cells = [cell for cell in CELLS if cell not in water]
        if len(open_cells) < n + 1:
            attempts.append(SpawnAttempt(n, "placement_reject", water_placed))
            continue
        order = rng.permutation(len(open_cells))
        chosen = [open_cells[i] for i in order[: n + 1]]
        entities = dict(zip(chosen[:n], kinds))
        worker = chosen[n]
        water_removed = False
        if water and not _old_wood_reachable(entities, worker, water):
            water = set()
            water_removed = True
        occupied = set(entities) | set(water) | {worker}
        world = MinecraftWorld(
            instruction=instruction,
            entities=entities,
            water=water,
            walls=_wall_cells(occupied),
            worker=worker,
            inventory={r: 0 for r in RESOURCES},
            seed=seed,
        )
        world.normalize()
        if feasibility_gate and not oracle_completes(world):
            attempts.append(SpawnAttempt(n, "gate_reject", water_placed, water_removed))
            continue
        attempts.append(SpawnAttempt(n, "accepted", water_placed, water_removed))
        world.spawn_attempts = attempts
        return world
    raise SpawnInfeasible(
        f"no feasible placement for n={n} in {max_resamples} resamples",
        attempts=attempts,
    )


# --- instruction strategies -----------------------------------------------------------

conditions = st.sampled_from(
    [(a, b) for a in COMPARANDS for b in COMPARANDS if a != b]
)
subtasks = st.builds(CfLine.subtask, st.sampled_from(VERBS), st.sampled_from(RESOURCES))


@st.composite
def blocks(draw, depth=0):
    """Well-formed lines; bodies may be empty, so vacuous loops occur."""
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        shape = draw(st.sampled_from(
            ("subtask", "if", "if-else", "while") if depth < 3 else ("subtask",)
        ))
        if shape == "subtask":
            lines.append(draw(subtasks))
            continue
        cond = draw(conditions)
        body = draw(blocks(depth + 1))
        if shape == "while":
            lines += [CfLine(WHILE, condition=cond), *body, CfLine.endwhile()]
        elif shape == "if":
            lines += [CfLine(IF, condition=cond), *body, CfLine.endif()]
        else:
            other = draw(blocks(depth + 1))
            lines += [CfLine(IF, condition=cond), *body, CfLine.else_(), *other,
                      CfLine.endif()]
    return lines


any_line = st.one_of(
    subtasks,
    conditions.map(lambda c: CfLine(IF, condition=c)),
    conditions.map(lambda c: CfLine(WHILE, condition=c)),
    st.sampled_from([CfLine.else_(), CfLine.endif(), CfLine.endwhile()]),
)


@st.composite
def programs(draw):
    """Well-formed programs, some broken by one edit, and random line soup."""
    if draw(st.integers(0, 3)) == 0:
        lines = draw(st.lists(any_line, min_size=1, max_size=10))
    else:
        lines = draw(blocks())
        edit = draw(st.sampled_from(("none", "none", "drop", "insert", "swap")))
        if edit == "drop" and lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif edit == "insert":
            lines.insert(draw(st.integers(0, len(lines))), draw(any_line))
        elif edit == "swap" and len(lines) > 1:
            i = draw(st.integers(0, len(lines) - 2))
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        if not lines:
            lines = [draw(subtasks)]
    return Instruction(tuple(lines))


def _outcome(fn):
    """(result, None) or (None, (error type, message))."""
    try:
        return fn(), None
    except (StructuralError, ValueError) as exc:
        return None, (type(exc), str(exc))


# --- agreement with the earlier walkers ---------------------------------------------------


@given(ins=programs())
@settings(max_examples=300, deadline=None)
def test_validate_matches_the_earlier_walk(ins):
    assert validate(ins) == _old_validate(ins)


@given(ins=programs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_cf_step_matches_the_earlier_walk_from_every_pc(ins, data):
    for pc in range(-1, len(ins) + 2):
        outcomes = data.draw(st.lists(st.booleans(), max_size=12))
        default = data.draw(st.booleans())
        seen = {"new": [], "old": []}

        def scripted(side):
            it = iter(outcomes)

            def cond_eval(condition):
                # the earlier walk passed comparand names, cf_step passes their indexes
                if side == "old":
                    condition = tuple(map(COMPARANDS.index, condition))
                seen[side].append(condition)
                return next(it, default)

            return cond_eval

        new = _outcome(lambda: cf_step(ins, pc, scripted("new")))
        old = _outcome(lambda: _old_cf_step(ins, pc, scripted("old")))
        assert new == old
        assert seen["new"] == seen["old"]


def test_vacuous_while_exhausts_the_budget_like_the_earlier_walk():
    ins = Instruction((
        CfLine.subtask("mine", "iron"),
        CfLine.while_("iron", "gold"),
        CfLine.if_("wood", "gold"),
        CfLine.endif(),
        CfLine.endwhile(),
    ))
    calls = {"new": 0, "old": 0}

    def counting(side):
        def cond_eval(_condition):
            calls[side] += 1
            return True
        return cond_eval

    new = _outcome(lambda: cf_step(ins, 1, counting("new")))
    old = _outcome(lambda: _old_cf_step(ins, 1, counting("old")))
    assert new == old == (None, (StructuralError, "resolution budget exceeded (vacuous loop?)"))
    assert calls["new"] == calls["old"] > 0


# one count per comparand, in COMPARANDS order
type_counts = st.tuples(*(st.integers(0, 36) for _ in COMPARANDS))


@given(ins=programs(), counts=type_counts)
@settings(max_examples=500, deadline=None)
def test_static_check_matches_the_earlier_walk(ins, counts):
    assert required_stream_feasible(ins, counts) == _old_required_stream_feasible(
        ins, dict(zip(COMPARANDS, counts)))


@given(seed=st.integers(0, 1_000_000), max_len=st.integers(1, 25), counts=type_counts)
@settings(max_examples=300, deadline=None)
def test_static_check_matches_the_earlier_walk_on_generated(seed, max_len, counts):
    ins = gen_minecraft(draws(seed, "flow-static"), (1, max_len))
    assert required_stream_feasible(ins, counts) == _old_required_stream_feasible(
        ins, dict(zip(COMPARANDS, counts)))


@pytest.mark.parametrize("verb, counts, expected", [
    ("mine", (3, 0, 1, 0), True),  # iron, gold, wood, merchant
    ("sell", (3, 0, 1, 1), True),
    ("inspect", (3, 0, 1, 0), False),
])
def test_static_check_of_an_inspect_met_again_in_a_loop(verb, counts, expected):
    # the inspect repeats each pass; only a mine or sell in between changes
    # the counts, so only then may the loop end
    ins = Instruction((
        CfLine.while_("iron", "gold"),
        CfLine.subtask("inspect", "wood"),
        CfLine.subtask(verb, "iron"),
        CfLine.endwhile(),
    ))
    assert required_stream_feasible(ins, counts) is expected
    assert _old_required_stream_feasible(ins, dict(zip(COMPARANDS, counts))) is expected


def test_compiled_jumps_of_a_nested_program():
    ins = Instruction((
        CfLine.if_("iron", "gold"),      # 0
        CfLine.subtask("mine", "iron"),  # 1
        CfLine.else_(),                  # 2
        CfLine.while_("wood", "gold"),   # 3
        CfLine.subtask("sell", "wood"),  # 4
        CfLine.endwhile(),               # 5
        CfLine.endif(),                  # 6
    ))
    flow = compile_flow(ins)
    assert flow.verdict == Verdict(True)
    assert [t is not None for t in flow.tasks] == [False, True, False, False, True, False, False]
    assert flow.conditions[0] == (0, 1) and flow.conditions[3] == (2, 1)
    assert flow.tasks[1] == ("mine", 0) and flow.tasks[4] == ("sell", 2)
    assert (flow.on_true[0], flow.on_false[0]) == (1, 3)
    assert flow.on_true[2] == flow.on_false[2] == 7
    assert (flow.on_true[3], flow.on_false[3]) == (4, 6)
    assert flow.on_true[5] == flow.on_false[5] == 3
    assert flow.on_true[6] == flow.on_false[6] == 7
    assert ins.flow == flow  # cached on the instruction


def test_malformed_world_raises_the_earlier_structural_error():
    ins = Instruction((CfLine.subtask("mine", "iron"), CfLine.else_()))
    with pytest.raises(StructuralError, match=r"^line 1: stray else$"):
        MinecraftWorld(ins, {}, set(), frozenset(), (0, 0), {r: 0 for r in RESOURCES})


# --- spawn against the earlier spawn ------------------------------------------------


def _same_spawn(make_ins, seed):
    ins = make_ins()
    # the old spawn draws through numpy on the same key: the oracle of the Draws reader
    new_rng, old_rng = draws(seed, "flow-spawn"), substream(seed, "flow-spawn")
    try:
        new = spawn(new_rng, ins, seed=seed)
    except SpawnInfeasible as exc:
        new = exc
    try:
        old = _old_spawn(old_rng, ins, seed=seed)
    except SpawnInfeasible as exc:
        old = exc
    assert type(new) is type(old)
    assert new_rng.random() == old_rng.random()  # the same draws were made
    if isinstance(new, SpawnInfeasible):
        assert new.attempts == old.attempts
        return
    assert new.spawn_attempts == old.spawn_attempts
    for name in ("entities", "water", "walls", "worker", "pc", "done", "cause", "reward"):
        assert getattr(new, name) == getattr(old, name), name


@given(seed=st.integers(0, 1_000_000), max_len=st.integers(1, 25))
@settings(max_examples=150, deadline=None)
def test_spawn_matches_the_earlier_spawn(seed, max_len):
    _same_spawn(lambda: gen_minecraft(draws(seed, "flow-gen"), (1, max_len)), seed)


@given(seed=st.integers(0, 1_000_000), ins=programs())
@settings(max_examples=150, deadline=None)
def test_spawn_matches_the_earlier_spawn_on_any_program(seed, ins):
    _same_spawn(lambda: ins, seed)


def _seed_drawing(n: int) -> int:
    """The first seed whose "stage" stream draws ``n`` entities."""
    return next(seed for seed in range(10_000) if draws(seed, "stage").integers(0, 37) == n)


def test_spawn_without_room_for_the_worker_records_distinct_placement_rejects():
    # n = 36 fills every cell, so room fails before kinds are judged, on every
    # attempt: no 36 kinds could mine 37 iron, yet no attempt is a static_reject
    ins = Instruction((CfLine.subtask("mine", "iron"),) * 37)
    seed = _seed_drawing(36)
    new_rng, old_rng = draws(seed, "stage"), substream(seed, "stage")
    with pytest.raises(SpawnInfeasible) as caught:
        spawn(new_rng, ins, seed=seed)
    attempts = caught.value.attempts
    assert attempts == [SpawnAttempt(36, "placement_reject")] * 51
    assert len({id(attempt) for attempt in attempts}) == 51  # SpawnAttempt is mutable
    int(old_rng.integers(0, 37))
    for _ in range(51):
        old_rng.integers(0, len(COMPARANDS), size=36)
    assert new_rng.random() == old_rng.random()  # the skipped draws are the sized ones


def test_spawn_with_room_only_before_water_judges_kinds_first():
    # n = 30 leaves room until the water line takes six cells, which is drawn
    # only for kinds that pass the static check: nine iron of thirty pass about
    # a third of the time
    ins = Instruction((CfLine.subtask("mine", "iron"),) * 9)
    seed = _seed_drawing(30)
    with pytest.raises(SpawnInfeasible) as caught:
        spawn(draws(seed, "stage"), ins, seed=seed)
    stages = {(a.stage, a.water_placed) for a in caught.value.attempts}
    assert stages == {("static_reject", False), ("placement_reject", True)}
