"""Line types, encodings, validation and text parsing."""

import itertools
import operator
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid.errors import DecodeError
from flowgrid.generators import gen_minecraft, gen_starcraft
from flowgrid.instructions import (
    BUILDING_NAMES,
    COMPARANDS,
    KIND_CODES,
    MINECRAFT,
    NEXUS,
    N_BUILDINGS,
    N_UNITS,
    RESOURCES,
    STARCRAFT,
    UNIT_NAMES,
    VERB_ALIASES,
    VERBS,
    VOCABULARY,
    BuildTree,
    CfLine,
    Instruction,
    ScLine,
    decode,
    flow_kinds,
    parse_text,
    validate,
)
from flowgrid.rngtools import draws


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


def test_an_instruction_iterates_over_its_lines():
    for ins in (mc(CfLine.if_("iron", "gold"), S("mine", "iron"), CfLine.endif()),
                Instruction((ScLine.building(2), ScLine.unit(3)))):
        assert list(ins) == list(ins.lines)
        assert [line for line in ins] == [ins[i] for i in range(len(ins))]


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
    assert decode(ins.encoded(), "minecraft").lines == ins.lines


def test_starcraft_encode_decode_round_trip():
    ins = Instruction((ScLine.building(4), ScLine.unit(15), ScLine.unit(0)))
    assert decode(ins.encoded(), STARCRAFT).lines == ins.lines


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
        [(0, 1.7, 2)],  # not an integer: no longer truncated to 1
        [(0, -1, 0)],  # negative: no longer Python's negative indexing
        [None],
        [(0, 0)],
        ["012"],
    ],
)
def test_minecraft_decode_rejects(payload):
    with pytest.raises(DecodeError):
        decode(payload, MINECRAFT)


def test_starcraft_decode_rejects_out_of_range():
    with pytest.raises(DecodeError):
        decode([30], STARCRAFT)
    with pytest.raises(DecodeError):
        decode([-1], STARCRAFT)
    with pytest.raises(DecodeError):
        decode([], STARCRAFT)
    # codes must be integers: none of these escapes as another error or decodes
    for code in ("x", None, [1, 2], 1.5, "3", 2.0):
        with pytest.raises(DecodeError, match="line 1"):
            decode([0, code], STARCRAFT)


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
        ["mine iron", None],  # not text: a DecodeError, no longer an AttributeError
    ],
)
def test_parse_text_rejects(lines):
    domain = "starcraft" if lines == ["build castle"] else "minecraft"
    with pytest.raises(DecodeError):
        parse_text(lines, domain)


# --- build trees ---------------------------------------------------------------


def test_chain_runs_root_first():
    tree = BuildTree(prerequisite={3: 1, 1: 0}, producer={0: 3})
    assert tree.chain(3) == (0, 1, 3)
    assert tree.chain(0) == (0,)


def test_chain_detects_cycles():
    tree = BuildTree(prerequisite={1: 2, 2: 1}, producer={})
    with pytest.raises(ValueError):
        tree.chain(1)


# --- generated instructions always survive the round trips ------------------------


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_generated_minecraft_round_trips(seed):
    rng = draws(seed, "test-roundtrip")
    ins = gen_minecraft(rng, (1, 12))
    assert validate(ins)
    assert decode(ins.encoded(), MINECRAFT).lines == ins.lines
    assert parse_text(ins.text(), "minecraft").lines == ins.lines


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_generated_starcraft_round_trips(seed):
    rng = draws(seed, "test-roundtrip")
    _, ins = gen_starcraft(rng, max_len=10)
    assert decode(ins.encoded(), STARCRAFT).lines == ins.lines
    assert parse_text(ins.text(), "starcraft").lines == ins.lines
    assert NEXUS == 0 and len(BUILDING_NAMES) == 14 and len(UNIT_NAMES) == 16


# --- the codec before the vocabulary table, kept as the reference ------------------

_OLD_CODE_KINDS = {v: k for k, v in KIND_CODES.items()}
_OLD_COND_RE = re.compile(r"^(if|while) more (\w+) than (\w+)$")


def _old_decode_minecraft(triples):
    lines = []
    for i, item in enumerate(triples):
        try:
            kind_code, a, b = (int(v) for v in item)
        except (TypeError, ValueError) as exc:
            raise DecodeError(f"line {i}: not an integer triple: {item!r}") from exc
        kind = _OLD_CODE_KINDS.get(kind_code)
        if kind is None:
            raise DecodeError(f"line {i}: unknown kind code {kind_code}")
        try:
            if kind == "subtask":
                lines.append(CfLine.subtask(VERBS[a], RESOURCES[b]))
            elif kind in ("if", "while"):
                line = CfLine(kind, condition=(COMPARANDS[a], COMPARANDS[b]))
                lines.append(line)
            else:
                if (a, b) != (0, 0):
                    raise DecodeError(f"line {i}: {kind} takes no arguments")
                lines.append(CfLine(kind))
        except (IndexError, ValueError) as exc:
            raise DecodeError(f"line {i}: bad arguments ({a}, {b}) for {kind}") from exc
    if not lines:
        raise DecodeError("empty instruction")
    return Instruction(tuple(lines))


def _old_decode_starcraft(codes):
    lines = []
    for i, code in enumerate(codes):
        code = int(code)
        if 0 <= code < N_BUILDINGS:
            lines.append(ScLine.building(code))
        elif N_BUILDINGS <= code < N_BUILDINGS + N_UNITS:
            lines.append(ScLine.unit(code - N_BUILDINGS))
        else:
            raise DecodeError(f"line {i}: symbol code {code} out of range")
    if not lines:
        raise DecodeError("empty instruction")
    return Instruction(tuple(lines))


def _old_parse_comparand(word, line_no):
    singular = word[:-1] if word.endswith("s") and word != "s" else word
    for cand in (word, singular):
        if cand in COMPARANDS:
            return cand
    raise DecodeError(f"line {line_no}: unknown comparand {word!r}")


def _old_parse_text(lines, domain):
    if domain == STARCRAFT:
        out = []
        for i, raw in enumerate(lines):
            parts = raw.strip().lower().split()
            if len(parts) == 2 and parts[0] == "build" and parts[1] in BUILDING_NAMES:
                out.append(ScLine.building(BUILDING_NAMES.index(parts[1])))
            elif len(parts) == 2 and parts[0] == "train" and parts[1] in UNIT_NAMES:
                out.append(ScLine.unit(UNIT_NAMES.index(parts[1])))
            else:
                raise DecodeError(f"line {i}: cannot parse {raw!r}")
        if not out:
            raise DecodeError("empty instruction")
        return Instruction(tuple(out))
    if domain != MINECRAFT:
        raise ValueError(f"unknown domain {domain!r}")
    out = []
    for i, raw in enumerate(lines):
        textline = raw.strip().lower()
        if textline in ("else", "endif", "endwhile"):
            out.append(CfLine(textline))
            continue
        match = _OLD_COND_RE.match(textline)
        if match:
            kind, a, b = match.groups()
            a = _old_parse_comparand(a, i)
            b = _old_parse_comparand(b, i)
            if a == b:
                raise DecodeError(f"line {i}: condition comparands must differ")
            out.append(CfLine(kind, condition=(a, b)))
            continue
        parts = textline.split()
        if len(parts) == 2:
            verb = VERB_ALIASES.get(parts[0], parts[0])
            if verb in VERBS and parts[1] in RESOURCES:
                out.append(CfLine.subtask(verb, parts[1]))
                continue
        raise DecodeError(f"line {i}: cannot parse {raw!r}")
    if not out:
        raise DecodeError("empty instruction")
    return Instruction(tuple(out))


_OLD_DECODE = {MINECRAFT: _old_decode_minecraft, STARCRAFT: _old_decode_starcraft}


def _outcome(read, *args):
    """The lines ``read`` returns, or the type of the exception it raises."""
    try:
        return read(*args).lines
    except Exception as exc:  # the reference also lets ValueError and TypeError escape
        return type(exc)


def _agree(new, old) -> bool:
    """Equal lines, or both raised."""
    return new == old if isinstance(old, tuple) else not isinstance(new, tuple)


def _integral(value) -> bool:
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _old_decode_holds(domain, item) -> bool:
    """False where the table's decode differs from the old one by design: a
    number that is not an integer (the old one truncated 1.7 and parsed "3")
    and, on minecraft, a negative argument (the old one indexed from the end,
    so (0, -1, 0) decoded as inspect iron)."""
    if domain == STARCRAFT:
        return _integral(item)
    try:
        values = list(item)
    except TypeError:
        return True  # not a sequence: both refuse it
    return all(_integral(v) for v in values) and all(v >= 0 for v in values[1:])


def test_vocabulary_lists_every_line_once():
    kinds = [word.fields[0] for word in VOCABULARY]
    counts = {kind: kinds.count(kind) for kind in dict.fromkeys(kinds)}
    assert counts == {"subtask": 9, "if": 12, "while": 12, "else": 1, "endif": 1,
                      "endwhile": 1, "building": 14, "unit": 16}
    for domain in (MINECRAFT, STARCRAFT):
        words = [word for word in VOCABULARY if word.domain == domain]
        assert len({word.code for word in words}) == len(words)
        spellings = [s for word in words for s in word.spellings]
        assert len(set(spellings)) == len(spellings)


def test_every_table_line_reads_as_the_old_codec_reads_it():
    for word in VOCABULARY:
        line = (CfLine if word.domain == MINECRAFT else ScLine)(*word.fields)
        code = line.triple() if word.domain == MINECRAFT else line.code()
        assert (code, line.text()) == (word.code, word.spellings[0])
        payload = [list(code)] if word.domain == MINECRAFT else [code]
        assert decode(payload, word.domain).lines == (line,)
        assert _outcome(_OLD_DECODE[word.domain], payload) == (line,)
        for spelling in word.spellings:
            assert parse_text([spelling], word.domain).lines == (line,)
            assert _outcome(_old_parse_text, [spelling], word.domain) == (line,)


def test_decode_matches_the_old_codec_on_every_small_code():
    for triple in itertools.product(range(-1, 7), range(-5, 6), range(-5, 6)):
        new = _outcome(decode, [triple], MINECRAFT)
        if _old_decode_holds(MINECRAFT, triple):
            assert _agree(new, _outcome(_old_decode_minecraft, [triple])), triple
        else:
            assert new is DecodeError, triple
    for code in range(-5, 40):
        assert _agree(_outcome(decode, [code], STARCRAFT), _outcome(_old_decode_starcraft, [code]))


_numbers = st.one_of(
    st.integers(-6, 40),
    st.booleans(),
    st.floats(-2, 40),
    st.sampled_from([float("nan"), float("inf"), "1", " 2", "x", None]),
)
_payload_items = {
    MINECRAFT: st.one_of(
        st.tuples(st.integers(0, 6), st.integers(-1, 4), st.integers(-1, 4)),
        st.tuples(_numbers, _numbers, _numbers),
        st.lists(st.integers(0, 4), max_size=4),
        _numbers,
    ),
    STARCRAFT: st.one_of(st.integers(-2, 31), _numbers, st.lists(st.integers(0, 29), max_size=2)),
}


@given(data=st.data(), domain=st.sampled_from([MINECRAFT, STARCRAFT]))
@settings(max_examples=300, deadline=None)
def test_decode_matches_the_old_codec_on_random_payloads(data, domain):
    payload = data.draw(st.lists(_payload_items[domain], max_size=3))
    new = _outcome(decode, payload, domain)
    if all(_old_decode_holds(domain, item) for item in payload):
        assert _agree(new, _outcome(_OLD_DECODE[domain], payload))
    else:
        assert new is DecodeError


# line shapes built from the word lists, not from the table, so a spelling
# the table forgot still turns up
_thing = st.sampled_from([*COMPARANDS, "diamond"]).flatmap(
    lambda w: st.sampled_from([w, w + "s", w + "ss"])
)
_shapes = st.one_of(
    st.tuples(st.sampled_from([*VERBS, *VERB_ALIASES, "jump"]), _thing),
    st.tuples(st.sampled_from(["if", "while", "when"]), st.just("more"), _thing,
              st.just("than"), _thing),
    st.tuples(st.sampled_from(["else", "endif", "endwhile", "end"])),
    st.tuples(st.sampled_from(["build", "train"]),
              st.sampled_from([*BUILDING_NAMES, *UNIT_NAMES, "castle"])),
)
_gap = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def _spoken_line(draw):
    """A line shape, maybe with one word swapped for a word of another shape,
    recased and joined by runs of whitespace."""
    words = list(draw(_shapes))
    if not draw(st.integers(0, 3)):
        words[draw(st.integers(0, len(words) - 1))] = draw(_shapes)[0]
    gaps = st.just(" ") if draw(st.booleans()) else _gap
    line = draw(st.sampled_from(["", " ", "\t"]))
    for i, word in enumerate(words):
        line += (draw(gaps) if i else "") + word
    case = draw(st.sampled_from([str, str.upper, str.title, str.swapcase]))
    return case(line + draw(st.sampled_from(["", " ", "\n"])))


@given(lines=st.lists(_spoken_line(), min_size=1, max_size=2))
@settings(max_examples=500, deadline=None)
def test_parse_text_matches_the_old_codec_on_random_spellings(lines):
    for domain in (MINECRAFT, STARCRAFT):
        new = _outcome(parse_text, lines, domain)
        old = _outcome(_old_parse_text, lines, domain)
        if isinstance(old, tuple):
            assert new == old
        else:
            # the one difference: whitespace is normalised on every line, so a
            # condition line with doubled or tab gaps between its words now parses
            spaced = [" ".join(raw.split()) for raw in lines]
            assert _agree(new, _outcome(_old_parse_text, spaced, domain))
