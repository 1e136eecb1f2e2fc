"""Line types, encodings, validation and text parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid.errors import DecodeError
from flowgrid.generators import gen_minecraft, gen_starcraft
from flowgrid.instructions import (
    BUILDING_NAMES,
    NEXUS,
    N_BUILDINGS,
    N_UNITS,
    UNIT_NAMES,
    BuildTree,
    CfLine,
    Instruction,
    ScLine,
    decode,
    decode_minecraft,
    decode_starcraft,
    flow_kinds,
    parse_text,
    validate,
)
from flowgrid.rngtools import substream


def mc(*lines):
    return Instruction(tuple(lines))


S = CfLine.subtask


# --- line construction ------------------------------------------------------


def test_subtask_triple_and_text():
    line = S("mine", "iron")
    assert line.triple() == (0, 0, 0)
    assert line.text() == "mine iron"
    assert S("sell", "wood").triple() == (0, 1, 2)
    assert S("inspect", "gold").text() == "inspect gold"


def test_condition_lines_render_merchant_plural():
    line = CfLine.while_("merchant", "iron")
    assert line.text() == "while more merchants than iron"
    assert line.triple() == (4, 3, 0)
    assert CfLine.if_("gold", "merchant").text() == "if more gold than merchants"


def test_closers_take_no_payload():
    assert CfLine.endif().triple() == (3, 0, 0)
    assert CfLine.else_().text() == "else"
    with pytest.raises(ValueError):
        CfLine("endwhile", verb="mine")
    with pytest.raises(ValueError):
        CfLine("if", condition=("iron", "iron"))
    with pytest.raises(ValueError):
        CfLine("subtask", verb="mine", target="merchant")


def test_scline_codes_partition_symbol_range():
    assert ScLine.building(0).code() == 0
    assert ScLine.building(N_BUILDINGS - 1).code() == N_BUILDINGS - 1
    assert ScLine.unit(0).code() == N_BUILDINGS
    assert ScLine.unit(N_UNITS - 1).code() == N_BUILDINGS + N_UNITS - 1
    with pytest.raises(ValueError):
        ScLine.building(N_BUILDINGS)
    with pytest.raises(ValueError):
        ScLine.unit(-1)


def test_instructions_are_nonempty_and_homogeneous():
    with pytest.raises(ValueError):
        Instruction(())
    with pytest.raises(ValueError):
        Instruction((S("mine", "iron"), ScLine.unit(0)))
    ins = mc(S("mine", "iron"))
    assert len(ins) == 1 and ins.domain == "minecraft"
    assert Instruction((ScLine.unit(3),)).domain == "starcraft"


# --- validation ---------------------------------------------------------------


def test_validate_accepts_nested_blocks():
    ins = mc(
        CfLine.while_("iron", "gold"),
        CfLine.if_("wood", "merchant"),
        S("mine", "wood"),
        CfLine.else_(),
        S("sell", "iron"),
        CfLine.endif(),
        S("mine", "iron"),
        CfLine.endwhile(),
    )
    assert validate(ins)
    assert flow_kinds(ins) == {"if", "while"}


@pytest.mark.parametrize(
    "lines, bad_index",
    [
        ((CfLine.endif(),), 0),
        ((S("mine", "iron"), CfLine.endwhile()), 1),
        ((CfLine.if_("iron", "gold"), S("mine", "iron")), 0),  # unclosed opener
        ((CfLine.while_("iron", "gold"), S("mine", "iron"), CfLine.endif()), 2),
        (
            (
                CfLine.if_("iron", "gold"),
                CfLine.else_(),
                CfLine.else_(),
                CfLine.endif(),
            ),
            2,
        ),
        ((S("mine", "iron"), CfLine.else_()), 1),
    ],
)
def test_validate_rejects_with_offending_index(lines, bad_index):
    verdict = validate(mc(*lines))
    assert not verdict
    assert verdict.index == bad_index
    assert verdict.reason


def test_else_inside_while_is_rejected():
    ins = mc(
        CfLine.while_("iron", "gold"),
        S("mine", "iron"),
        CfLine.else_(),
        CfLine.endwhile(),
    )
    assert not validate(ins)


def test_starcraft_validation_is_vacuous():
    assert validate(Instruction((ScLine.building(2), ScLine.unit(5))))


# --- integer round trips ---------------------------------------------------------


def test_minecraft_encode_decode_round_trip():
    ins = mc(
        CfLine.if_("merchant", "wood"),
        S("sell", "gold"),
        CfLine.endif(),
    )
    assert decode_minecraft(ins.encoded()).lines == ins.lines
    assert decode(ins.encoded(), "minecraft").lines == ins.lines


def test_starcraft_encode_decode_round_trip():
    ins = Instruction((ScLine.building(4), ScLine.unit(15), ScLine.unit(0)))
    assert decode_starcraft(ins.encoded()).lines == ins.lines


def test_encoded_returns_a_fresh_list_each_call():
    for ins in (
        mc(CfLine.if_("merchant", "wood"), S("sell", "gold"), CfLine.endif()),
        Instruction((ScLine.building(4), ScLine.unit(15))),
    ):
        expected = ins.encoded()
        mutated = ins.encoded()
        mutated.append(mutated[0])
        if isinstance(mutated[0], list):
            mutated[0][0] = 99
        mutated[1] = 7
        assert ins.encoded() == expected


@pytest.mark.parametrize(
    "payload",
    [
        [(9, 0, 0)],  # unknown kind
        [(0, 3, 0)],  # verb out of range
        [(0, 0, 3)],  # subtask target must be a resource
        [(1, 0, 9)],  # comparand out of range
        [(3, 1, 0)],  # closer with payload
        [(1, 2, 2)],  # equal comparands
        [],
    ],
)
def test_minecraft_decode_rejects(payload):
    with pytest.raises(DecodeError):
        decode_minecraft(payload)


def test_starcraft_decode_rejects_out_of_range():
    with pytest.raises(DecodeError):
        decode_starcraft([30])
    with pytest.raises(DecodeError):
        decode_starcraft([-1])
    with pytest.raises(DecodeError):
        decode_starcraft([])


# --- text round trips -------------------------------------------------------------


def test_parse_text_round_trip_minecraft():
    ins = mc(
        CfLine.while_("merchant", "iron"),
        S("mine", "wood"),
        CfLine.if_("wood", "gold"),
        S("inspect", "wood"),
        CfLine.else_(),
        S("sell", "wood"),
        CfLine.endif(),
        CfLine.endwhile(),
    )
    assert parse_text(ins.text(), "minecraft").lines == ins.lines


def test_parse_text_accepts_verb_aliases():
    ins = parse_text(["pickup iron", "transform gold"], "minecraft")
    assert [line.verb for line in ins.lines] == ["mine", "sell"]


def test_parse_text_handles_comparand_plurals():
    ins = parse_text(["if more merchants than golds", "mine iron", "endif"], "minecraft")
    assert ins.lines[0].condition == ("merchant", "gold")


def test_parse_text_round_trip_starcraft():
    ins = Instruction((ScLine.building(7), ScLine.unit(12)))
    assert parse_text(ins.text(), "starcraft").lines == ins.lines


@pytest.mark.parametrize(
    "lines",
    [
        ["mine diamonds"],
        ["if more iron than iron", "mine iron", "endif"],
        ["jump iron"],
        ["build castle"],
        [""],
    ],
)
def test_parse_text_rejects(lines):
    domain = "starcraft" if lines == ["build castle"] else "minecraft"
    with pytest.raises(DecodeError):
        parse_text(lines, domain)


# --- build trees ---------------------------------------------------------------


def test_chain_runs_root_first():
    tree = BuildTree(prerequisite={3: 1, 1: 0}, producer={0: 3})
    assert tree.chain(3) == [0, 1, 3]
    assert tree.chain(0) == [0]
    assert tree.depth(3) == 3
    assert tree.max_depth() == 3


def test_chain_detects_cycles():
    tree = BuildTree(prerequisite={1: 2, 2: 1}, producer={})
    with pytest.raises(ValueError):
        tree.chain(1)


def test_max_depth_of_empty_tree():
    assert BuildTree(prerequisite={}, producer={}).max_depth() == 0


# --- generated instructions always survive the round trips ------------------------


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_generated_minecraft_round_trips(seed):
    rng = substream(seed, "test-roundtrip")
    ins = gen_minecraft(rng, (1, 12))
    assert validate(ins)
    assert decode_minecraft(ins.encoded()).lines == ins.lines
    assert parse_text(ins.text(), "minecraft").lines == ins.lines


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_generated_starcraft_round_trips(seed):
    rng = substream(seed, "test-roundtrip")
    _, ins = gen_starcraft(rng, max_len=10)
    assert decode_starcraft(ins.encoded()).lines == ins.lines
    assert parse_text(ins.text(), "starcraft").lines == ins.lines
    assert NEXUS == 0 and len(BUILDING_NAMES) == 14 and len(UNIT_NAMES) == 16
