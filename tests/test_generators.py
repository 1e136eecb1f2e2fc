"""Instruction generators: lengths, filters, budgets, and determinism."""

from typing import List
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid import generators
from flowgrid.errors import GenerationError
from flowgrid.generators import (
    FLOW_FILTERS,
    LONGJUMP_FRAME_LINES,
    LONGJUMP_MAX_BLOCK,
    MAX_LINES,
    assemble_starcraft,
    gen_build_tree,
    gen_longjump,
    gen_minecraft,
    gen_starcraft,
)
from flowgrid.instructions import (
    COMPARANDS,
    ELSE,
    ENDIF,
    ENDWHILE,
    IF,
    NEXUS,
    N_UNITS,
    RESOURCES,
    SUBTASK,
    VERBS,
    WHILE,
    BuildTree,
    CfLine,
    Instruction,
    ScLine,
    flow_kinds,
    validate,
)
from flowgrid.interpreter import sc_decode
from flowgrid.rngtools import draws, substream


def rng_for(name, seed=0):
    return draws(seed, name)


# --- minecraft ----------------------------------------------------------------------


def test_lengths_stay_in_range():
    rng = rng_for("lens")
    for _ in range(200):
        ins = gen_minecraft(rng, (3, 9))
        assert 3 <= len(ins) <= 9
        assert validate(ins).ok


def test_exact_length_is_attainable():
    rng = rng_for("exact")
    for target in (1, 2, 6, 13):
        for _ in range(20):
            assert len(gen_minecraft(rng, (target, target))) == target


def test_single_filter_never_mixes_flow():
    rng = rng_for("single")
    for _ in range(150):
        ins = gen_minecraft(rng, (1, 12), "single")
        assert len(flow_kinds(ins)) <= 1


def test_multi_filter_always_mixes_flow():
    rng = rng_for("multi")
    for _ in range(60):
        ins = gen_minecraft(rng, (6, 12), "multi")
        assert flow_kinds(ins) == {IF, WHILE}


def test_multi_filter_impossible_below_six_lines():
    # one if-block plus one while-block cannot fit in five lines
    rng = rng_for("toosmall")
    with pytest.raises(GenerationError):
        gen_minecraft(rng, (1, 5), "multi")


def test_bad_arguments_rejected():
    rng = rng_for("args")
    with pytest.raises(ValueError):
        gen_minecraft(rng, (0, 4))
    with pytest.raises(ValueError):
        gen_minecraft(rng, (5, 2))
    with pytest.raises(ValueError):
        gen_minecraft(rng, (1, 4), "sideways")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_generation_is_a_pure_function_of_the_stream(seed):
    a = gen_minecraft(draws(seed, "g"), (1, 10))
    b = gen_minecraft(draws(seed, "g"), (1, 10))
    assert a.lines == b.lines


# --- the line-by-line generator, kept as the reference of the table-driven one -----


def _old_pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _old_random_subtask(rng):
    return CfLine.subtask(_old_pick(rng, VERBS), _old_pick(rng, RESOURCES))


def _old_min_lines_to_close(depth, last_was_subtask):
    if depth == 0:
        return 0
    return 2 * depth - (1 if last_was_subtask else 0)


def _old_sample_minecraft(rng, target_len):
    """``_sample_minecraft`` as it was before its lines and menus were tables:
    each line builds its menu, its comparand list and a new CfLine."""
    lines = []
    stack = []  # [kind, has_else]
    while len(lines) < target_len:
        remaining = target_len - len(lines)
        last_sub = bool(lines) and lines[-1].kind == SUBTASK
        depth = len(stack)
        menu = []
        if _old_min_lines_to_close(depth, True) <= remaining - 1:
            menu.append(SUBTASK)
        if _old_min_lines_to_close(depth + 1, False) <= remaining - 1:
            menu.append(IF)
            menu.append(WHILE)
        if last_sub and stack:
            kind, has_else = stack[-1]
            if kind == IF and not has_else:
                if _old_min_lines_to_close(depth, False) <= remaining - 1:
                    menu.append(ELSE)
                menu.append(ENDIF)
            elif kind == IF and has_else:
                menu.append(ENDIF)
            else:
                menu.append(ENDWHILE)
        choice = _old_pick(rng, menu)
        if choice == SUBTASK:
            lines.append(_old_random_subtask(rng))
        elif choice in (IF, WHILE):
            a = _old_pick(rng, COMPARANDS)
            b = _old_pick(rng, [c for c in COMPARANDS if c != a])
            lines.append(CfLine(choice, condition=(a, b)))
            stack.append([choice, False])
        elif choice == ELSE:
            lines.append(CfLine.else_())
            stack[-1][1] = True
        elif choice == ENDIF:
            lines.append(CfLine.endif())
            stack.pop()
        else:
            lines.append(CfLine.endwhile())
            stack.pop()
    assert not stack
    return Instruction(tuple(lines))


def _old_gen_longjump(rng, block_len):
    final = _old_random_subtask(rng)
    b = _old_pick(rng, COMPARANDS)
    banned = {b, final.target}
    if final.verb == "sell":
        banned.add("merchant")
    a = _old_pick(rng, [c for c in COMPARANDS if c not in banned])
    opener = _old_pick(rng, (IF, WHILE))
    closer = CfLine.endif() if opener == IF else CfLine.endwhile()
    body = tuple(_old_random_subtask(rng) for _ in range(block_len))
    return Instruction((CfLine(opener, condition=(a, b)),) + body + (closer, final))


def _old_gen_minecraft(rng, length_range, flow_filter, attempts):
    lo, hi = length_range
    for _ in range(attempts):
        target = int(rng.integers(lo, hi + 1))
        if flow_filter == "longjump":
            return _old_gen_longjump(rng, target - LONGJUMP_FRAME_LINES)
        instruction = _old_sample_minecraft(rng, target)
        used = flow_kinds(instruction)
        if flow_filter == "single" and len(used) > 1:
            continue
        if flow_filter == "multi" and len(used) < 2:
            continue
        return instruction
    raise GenerationError("budget spent")


@st.composite
def length_ranges(draw, flow_filter):
    if flow_filter == "longjump":
        lo = draw(st.integers(LONGJUMP_FRAME_LINES + 1, LONGJUMP_FRAME_LINES + LONGJUMP_MAX_BLOCK))
        hi = draw(st.integers(lo, LONGJUMP_FRAME_LINES + LONGJUMP_MAX_BLOCK))
    else:
        lo = draw(st.integers(1, MAX_LINES))
        hi = draw(st.integers(lo, MAX_LINES))
    return lo, hi


@st.composite
def generator_calls(draw):
    flow_filter = draw(st.sampled_from(FLOW_FILTERS))
    return flow_filter, draw(length_ranges(flow_filter))


# a budget of 30 draws: long "single" and short "multi" ranges spend it, so the
# exhausted path is compared too, at a thirtieth of the full budget's time
@given(seed=st.integers(0, 2**40), call=generator_calls())
@settings(max_examples=300, deadline=None)
def test_table_driven_generation_equals_the_line_by_line_reference(seed, call):
    flow_filter, length_range = call
    new_rng, old_rng = draws(seed, "reference"), draws(seed, "reference")
    with mock.patch.object(generators, "MAX_ATTEMPTS", 30):
        try:
            new = gen_minecraft(new_rng, length_range, flow_filter)
        except GenerationError:
            new = None
    try:
        old = _old_gen_minecraft(old_rng, length_range, flow_filter, 30)
    except GenerationError:
        old = None
    assert new == old
    assert new_rng.integers(2**30) == old_rng.integers(2**30)  # the same draws were made


@given(seed=st.integers(0, 2**40), block_len=st.integers(1, LONGJUMP_MAX_BLOCK))
@settings(max_examples=100, deadline=None)
def test_table_driven_longjump_equals_the_line_by_line_reference(seed, block_len):
    # the reference draws through numpy's Generator on the same key
    new_rng, old_rng = draws(seed, "jump"), substream(seed, "jump")
    assert gen_longjump(new_rng, block_len) == _old_gen_longjump(old_rng, block_len)
    assert new_rng.integers(2**30) == old_rng.integers(2**30)


# --- longjump -----------------------------------------------------------------------


def test_longjump_shape():
    rng = rng_for("jump")
    for block in (1, 7, 40):
        ins = gen_longjump(rng, block)
        assert len(ins) == block + 3
        assert validate(ins).ok
        opener, closer = ins[0], ins[-2]
        assert opener.kind in (IF, WHILE)
        assert closer.kind == (ENDIF if opener.kind == IF else ENDWHILE)
        assert all(line.kind == SUBTASK for line in ins[1:-2])
        assert ins[-1].kind == SUBTASK


def test_longjump_guard_is_satisfiable_by_omission():
    # the left comparand must be omittable without touching the final subtask
    rng = rng_for("guard")
    for _ in range(300):
        ins = gen_longjump(rng, 5)
        a, b = ins[0].condition
        final = ins[-1]
        assert a != b
        assert a != final.target
        if final.verb == "sell":
            assert a != "merchant"


def test_longjump_block_bounds():
    rng = rng_for("bounds")
    with pytest.raises(ValueError):
        gen_longjump(rng, 0)
    with pytest.raises(ValueError):
        gen_longjump(rng, 41)


# --- build trees --------------------------------------------------------------------


def test_tree_roots_at_nexus():
    rng = rng_for("tree")
    for _ in range(100):
        tree = gen_build_tree(rng)
        assert NEXUS not in tree.prerequisite
        assert set(tree.producer) == set(range(16))
        assert all(0 <= b < 14 for b in tree.producer.values())
        for building in range(14):
            chain = tree.chain(building)
            assert chain[0] == NEXUS or tree.prerequisite.get(chain[0]) is None
            assert chain[-1] == building


def test_max_depth_caps_chains():
    rng = rng_for("depth")
    for cap in (1, 2, 3):
        for _ in range(40):
            tree = gen_build_tree(rng, max_depth=cap)
            assert tree.max_depth() <= cap
    flat = gen_build_tree(rng_for("flat"), max_depth=1)
    assert flat.prerequisite == {}


def test_max_depth_validation():
    with pytest.raises(ValueError):
        gen_build_tree(rng_for("bad"), max_depth=0)


# --- starcraft assembly -------------------------------------------------------------


def _listed_fragment(lines):
    """The edges and producers that a listing states, read line by line: each
    pair of adjacent building lines is an edge, and each unit line's producer
    is the nearest building line above it, or the nexus when there is none."""
    prerequisite, producer, required = {}, {}, []
    nearest, above_is_building = NEXUS, False
    for line in lines:
        if line.is_unit:
            producer[line.ident] = nearest
            required.append(line.ident)
        else:
            if above_is_building:
                prerequisite[line.ident] = nearest
            nearest = line.ident
        above_is_building = not line.is_unit
    return prerequisite, producer, required


def test_assembly_respects_budget():
    rng = rng_for("budget")
    for max_len in (1, 2, 5, 9, 30):
        tree = gen_build_tree(rng)
        lines = assemble_starcraft(rng, tree, max_len)
        assert 1 <= len(lines) <= max_len
        units = [line.ident for line in lines if line.is_unit]
        assert len(units) == len(set(units))
        assert sc_decode(Instruction(lines))[1] == units


def test_assembly_round_trips_through_decode():
    rng = rng_for("roundtrip")
    for _ in range(150):
        tree = gen_build_tree(rng)
        max_len = int(rng.integers(1, 31))
        lines = assemble_starcraft(rng, tree, max_len)
        if not lines:
            continue
        prerequisite, producer, required = _listed_fragment(lines)
        decoded, decoded_required = sc_decode(Instruction(lines))
        assert decoded.prerequisite == prerequisite
        assert decoded.producer == producer
        assert decoded_required == required


def test_conveyed_fragment_agrees_with_truth():
    rng = rng_for("truth")
    for _ in range(150):
        tree = gen_build_tree(rng)
        prerequisite, producer, _ = _listed_fragment(assemble_starcraft(rng, tree, 20))
        for building, prereq in prerequisite.items():
            assert tree.prerequisite.get(building) == prereq
        for unit, building in producer.items():
            assert tree.producer[unit] == building


def test_gen_starcraft_lengths_and_validity():
    rng = rng_for("sc")
    for max_len in (1, 3, 8, 25):
        tree, ins = gen_starcraft(rng, max_len)
        assert 1 <= len(ins) <= max_len
        assert validate(ins).ok
        sc_decode(ins)  # must stay decodable


def test_gen_starcraft_rejects_bad_budget():
    with pytest.raises(ValueError):
        gen_starcraft(rng_for("zero"), 0)


@given(st.integers(0, 2**32 - 1), st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_starcraft_generation_deterministic(seed, max_len):
    t1, i1 = gen_starcraft(draws(seed, "sc"), max_len)
    t2, i2 = gen_starcraft(draws(seed, "sc"), max_len)
    assert t1.prerequisite == t2.prerequisite
    assert t1.producer == t2.producer
    assert i1.lines == i2.lines


def _old_assemble_starcraft(rng, tree, max_len):
    """``assemble_starcraft`` as it was before producer chains were computed
    once per call: every candidate unit walks its producer's chain on every
    iteration.  Kept as the oracle for the property test below."""
    listed = {NEXUS}
    tail = NEXUS
    lines: List[ScLine] = []
    frag_prereq: dict = {}
    frag_producer: dict = {}
    required: List[int] = []
    chosen = set()
    remaining = max_len
    while remaining > 0 and len(chosen) < N_UNITS:
        candidates = []
        for unit in range(N_UNITS):
            if unit in chosen:
                continue
            producer = tree.producer[unit]
            unlisted = [b for b in tree.chain(producer) if b not in listed]
            if unlisted:
                cost = len(unlisted) + 1
            else:
                cost = 1 if tail == producer else 2
            if cost <= remaining:
                candidates.append((unit, producer, unlisted, cost))
        if not candidates:
            break
        unit, producer, unlisted, cost = candidates[int(rng.integers(len(candidates)))]
        if unlisted:
            for prev, building in zip(unlisted, unlisted[1:]):
                frag_prereq[building] = prev
            for building in unlisted:
                lines.append(ScLine.building(building))
                listed.add(building)
            tail = unlisted[-1]
        elif tail != producer:
            lines.append(ScLine.building(producer))
            tail = producer
        lines.append(ScLine.unit(unit))
        frag_producer[unit] = tail
        required.append(unit)
        chosen.add(unit)
        remaining -= cost
    fragment = BuildTree(prerequisite=frag_prereq, producer=frag_producer)
    return tuple(lines), fragment, required


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    max_depth=st.none() | st.integers(1, 4),
    max_len=st.integers(1, 60),
)
def test_assembly_matches_the_per_iteration_chain_walk(seed, max_depth, max_len):
    tree = gen_build_tree(draws(seed, "tree"), max_depth)
    new_rng, old_rng = draws(seed, "assemble"), substream(seed, "assemble")
    assert assemble_starcraft(new_rng, tree, max_len) == _old_assemble_starcraft(
        old_rng, tree, max_len
    )[0]
    assert new_rng.random() == old_rng.random()  # the same draws were made
