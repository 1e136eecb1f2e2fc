"""Control-flow resolution and build-order decoding/planning.

The control-flow half is checked against an independent reference
executor that parses instructions into a nested AST and walks it
recursively — a completely different mechanism from the peer-jump
table the library uses.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid.errors import DecodeError, StructuralError, TraceExhausted
from flowgrid.generators import gen_minecraft, gen_starcraft
from flowgrid.instructions import N_BUILDINGS, N_UNITS, BuildTree, CfLine, Instruction, ScLine
from flowgrid.interpreter import (
    ScCommand,
    cf_step,
    required_sequence,
    sc_decode,
    sc_plan,
)
from flowgrid.rngtools import draws

S = CfLine.subtask


def mc(*lines):
    return Instruction(tuple(lines))


# --- reference executor (recursive descent over an AST) --------------------------


def _parse_block(lines, i, stop_kinds):
    """Parse until a closer in ``stop_kinds``; returns (nodes, stop_index)."""
    nodes = []
    while i < len(lines):
        line = lines[i]
        if line.kind in stop_kinds:
            return nodes, i
        if line.kind == "subtask":
            nodes.append(("do", line))
            i += 1
        elif line.kind == "if":
            then, j = _parse_block(lines, i + 1, ("else", "endif"))
            if lines[j].kind == "else":
                other, j = _parse_block(lines, j + 1, ("endif",))
            else:
                other = []
            nodes.append(("if", line.condition, then, other))
            i = j + 1
        elif line.kind == "while":
            body, j = _parse_block(lines, i + 1, ("endwhile",))
            nodes.append(("while", line.condition, body))
            i = j + 1
        else:
            raise AssertionError(f"closer {line.kind} outside its block")
    return nodes, i


def reference_run(instruction, outcomes, max_steps=10_000):
    """Execute the AST, pulling condition outcomes from an iterator.

    Returns the demanded subtask lines in order.  Raises TraceExhausted on
    a dry iterator and StructuralError past ``max_steps`` loop decisions.
    """
    ast, stop = _parse_block(instruction.lines, 0, ())
    assert stop == len(instruction.lines)
    it = iter(outcomes)
    emitted = []
    budget = [max_steps]

    def pull():
        budget[0] -= 1
        if budget[0] < 0:
            raise StructuralError("reference budget exceeded")
        try:
            return bool(next(it))
        except StopIteration:
            raise TraceExhausted("reference trace ran out") from None

    def walk(nodes):
        for node in nodes:
            if node[0] == "do":
                emitted.append(node[1])
            elif node[0] == "if":
                _, _cond, then, other = node
                walk(then if pull() else other)
            else:
                _, _cond, body = node
                while pull():
                    walk(body)

    walk(ast)
    return emitted


# --- agreement between the two executors ---------------------------------------


@given(seed=st.integers(0, 100_000), data=st.data())
@settings(max_examples=120, deadline=None)
def test_required_sequence_matches_reference(seed, data):
    rng = draws(seed, "interp-equiv")
    ins = gen_minecraft(rng, (1, 8))
    outcomes = data.draw(st.lists(st.booleans(), min_size=0, max_size=6))
    try:
        expected = reference_run(ins, outcomes)
        expected_error = None
    except (TraceExhausted, StructuralError) as exc:
        expected, expected_error = None, type(exc)
    try:
        actual = required_sequence(ins, outcomes)
        actual_error = None
    except (TraceExhausted, StructuralError) as exc:
        actual, actual_error = None, type(exc)
    assert expected_error == actual_error
    if expected_error is None:
        assert actual == expected


def test_exhaustive_traces_on_nested_program():
    ins = mc(
        CfLine.if_("iron", "gold"),
        S("mine", "iron"),
        CfLine.while_("wood", "iron"),
        S("sell", "wood"),
        CfLine.endwhile(),
        CfLine.else_(),
        S("inspect", "gold"),
        CfLine.endif(),
        S("mine", "gold"),
    )
    for k in range(5):
        for outcomes in itertools.product([False, True], repeat=k):
            try:
                expected = reference_run(ins, outcomes)
            except TraceExhausted:
                continue
            assert required_sequence(ins, outcomes) == expected


def test_fixed_program_fixed_trace():
    # hand-walked: while True -> mine iron; if False -> else branch ->
    # inspect iron; endif -> endwhile -> while False -> sell gold
    ins = mc(
        CfLine.while_("iron", "gold"),
        S("mine", "iron"),
        CfLine.if_("merchant", "wood"),
        S("mine", "iron"),
        CfLine.else_(),
        S("inspect", "iron"),
        CfLine.endif(),
        CfLine.endwhile(),
        S("sell", "gold"),
    )
    demanded = required_sequence(ins, [True, False, False])
    assert [(line.verb, line.target) for line in demanded] == [
        ("mine", "iron"),
        ("inspect", "iron"),
        ("sell", "gold"),
    ]
    assert demanded == reference_run(ins, [True, False, False])


def test_cf_step_rests_on_subtask_or_end():
    ins = mc(CfLine.if_("iron", "gold"), S("mine", "iron"), CfLine.endif())
    assert cf_step(ins, 0, lambda c: True) == 1
    assert cf_step(ins, 0, lambda c: False) == 3
    assert cf_step(ins, 2, lambda c: True) == 3  # endif falls through


def test_cf_step_rejects_bad_pc():
    ins = mc(S("mine", "iron"))
    with pytest.raises(ValueError):
        cf_step(ins, 2, lambda c: True)
    with pytest.raises(ValueError):
        cf_step(ins, -1, lambda c: True)


def test_vacuous_while_raises_instead_of_hanging():
    ins = mc(CfLine.while_("iron", "gold"), CfLine.endwhile())
    with pytest.raises(StructuralError):
        cf_step(ins, 0, lambda c: True)


def test_structural_errors_on_malformed_programs():
    bad = mc(S("mine", "iron"), CfLine.endif())
    with pytest.raises(StructuralError):
        cf_step(bad, 0, lambda c: True)


def test_trace_exhaustion():
    ins = mc(CfLine.while_("iron", "gold"), S("mine", "iron"), CfLine.endwhile())
    with pytest.raises(TraceExhausted):
        required_sequence(ins, [True])


def test_cf_step_hands_cond_eval_the_comparand_indexes():
    # COMPARANDS: iron 0, gold 1, wood 2, merchant 3
    ins = mc(CfLine.if_("wood", "merchant"), CfLine.else_(), CfLine.while_("gold", "iron"),
             S("mine", "iron"), CfLine.endwhile(), CfLine.endif())
    seen = []
    assert cf_step(ins, 0, lambda c: seen.append(c)) == 6
    assert seen == [(2, 3), (1, 0)]


# --- build-order decoding --------------------------------------------------------


def test_sc_decode_adjacency_and_leading_unit():
    ins = Instruction(
        (
            ScLine.unit(3),  # leading unit: root produces it
            ScLine.building(1),
            ScLine.building(2),  # adjacent pair: prereq(2) = 1
            ScLine.unit(10),  # nearest preceding building: 2
            ScLine.unit(7),
        )
    )
    fragment, required = sc_decode(ins)
    assert fragment.prerequisite == {2: 1}
    assert fragment.producer == {3: 0, 10: 2, 7: 2}
    assert required == [3, 10, 7]


def test_sc_decode_conflicting_prerequisites():
    ins = Instruction(
        (
            ScLine.building(1),
            ScLine.building(2),
            ScLine.building(3),
            ScLine.building(2),  # now 2 would need prereq 3, but it has 1
        )
    )
    with pytest.raises(DecodeError):
        sc_decode(ins)


def test_sc_decode_self_prerequisite():
    ins = Instruction((ScLine.building(5), ScLine.building(5)))
    with pytest.raises(DecodeError):
        sc_decode(ins)


def test_sc_decode_cycle():
    ins = Instruction(
        (
            ScLine.building(1),
            ScLine.building(2),
            ScLine.unit(0),
            ScLine.building(2),
            ScLine.building(1),
        )
    )
    with pytest.raises(DecodeError):
        sc_decode(ins)


def test_sc_decode_rejects_minecraft_instructions():
    with pytest.raises(ValueError):
        sc_decode(mc(S("mine", "iron")))


@given(seed=st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_decode_inverts_generation(seed):
    """The decoded fragment equals the fragment the generator conveyed."""
    rng = draws(seed, "decode-inverse")
    tree, ins = gen_starcraft(rng, max_len=14)
    fragment, required = sc_decode(ins)
    assert required == [line.ident for line in ins.lines if line.is_unit]
    # conveyed producers must agree with the true tree wherever the unit's
    # true producer was listed; all conveyed edges are true edges
    for building, prereq in fragment.prerequisite.items():
        assert tree.prerequisite[building] == prereq
    for unit in required:
        assert fragment.producer[unit] == tree.producer[unit]


# --- planning ----------------------------------------------------------------------


def test_plan_builds_missing_chain_root_first():
    tree = BuildTree(prerequisite={2: 1, 1: 0}, producer={5: 2})
    plan = sc_plan(tree, [5], alive_buildings={0}, alive_units={})
    assert plan == [
        ScCommand("build", 1),
        ScCommand("build", 2),
        ScCommand("train", 5),
    ]


def test_plan_skips_alive_and_planned_buildings():
    tree = BuildTree(prerequisite={2: 1, 1: 0}, producer={5: 2, 6: 2})
    plan = sc_plan(tree, [5, 6], alive_buildings={0, 1}, alive_units={})
    assert plan == [
        ScCommand("build", 2),
        ScCommand("train", 5),
        ScCommand("train", 6),
    ]


def test_plan_is_empty_when_satisfied():
    tree = BuildTree(prerequisite={}, producer={5: 0})
    assert sc_plan(tree, [5], alive_buildings={0}, alive_units={5: 1}) == []


def test_plan_fixed_example():
    # decoded from: train adept / build assimilator / build gateway /
    # train colossus — a fresh world needs both buildings before training
    ins = Instruction(
        (ScLine.unit(3), ScLine.building(1), ScLine.building(2), ScLine.unit(10))
    )
    fragment, required = sc_decode(ins)
    assert fragment.prerequisite == {2: 1}
    assert fragment.producer == {3: 0, 10: 2}
    plan = sc_plan(fragment, required, alive_buildings={0}, alive_units={})
    assert plan == [
        ScCommand("train", 3),
        ScCommand("build", 1),
        ScCommand("build", 2),
        ScCommand("train", 10),
    ]


@given(seed=st.integers(0, 100_000), decoded=st.booleans(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_plans_on_a_tree_that_has_planned_equal_plans_on_a_fresh_tree(seed, decoded, data):
    tree, ins = gen_starcraft(draws(seed, "chain-cache"), max_len=14)
    required = [line.ident for line in ins.lines if line.is_unit]
    if decoded:
        tree, required = sc_decode(ins)
    states = data.draw(st.lists(st.tuples(
        st.sets(st.integers(0, N_BUILDINGS - 1)),
        st.dictionaries(st.integers(0, N_UNITS - 1), st.integers(0, 2)),
    ), min_size=1, max_size=4))

    def fresh():
        return BuildTree(dict(tree.prerequisite), dict(tree.producer))

    for alive, units in states:
        assert sc_plan(tree, required, alive, units) == sc_plan(fresh(), required, alive, units)
    for building in set(tree.producer.values()):
        walked = [building]
        while walked[-1] in tree.prerequisite:
            walked.append(tree.prerequisite[walked[-1]])
        assert tree.chain(building) == fresh().chain(building) == tuple(walked[::-1])
    for alive, units in states:
        assert sc_plan(tree, required, alive, units) == sc_plan(fresh(), required, alive, units)


def test_plan_requires_known_producer():
    tree = BuildTree(prerequisite={}, producer={})
    with pytest.raises(DecodeError):
        sc_plan(tree, [4], alive_buildings={0}, alive_units={})
