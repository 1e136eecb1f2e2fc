"""Instruction languages for the two task domains.

An instruction is an ordered, non-empty sequence of lines.  The
``minecraft`` domain uses control-flow lines (subtasks plus if/else/while
structure over count comparisons); the ``starcraft`` domain uses flat
build-order lines naming a building or a unit type.

Integer encodings are stable public interfaces: minecraft lines encode to
``(kind, a, b)`` triples and starcraft lines to single integers.  One
table, ``VOCABULARY``, lists every line of both languages with its code
and text forms; encoding, decoding, parsing and line validation all read it.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .errors import DecodeError, clipped

MINECRAFT = "minecraft"
STARCRAFT = "starcraft"

# --- minecraft vocabulary ---------------------------------------------------

VERBS = ("mine", "sell", "inspect")
RESOURCES = ("iron", "gold", "wood")
COMPARANDS = (*RESOURCES, "merchant")  # so a resource's RESOURCES index is its COMPARANDS index
# accepted on parse as synonyms, rendered canonically
VERB_ALIASES = {"pickup": "mine", "transform": "sell"}

SUBTASK = "subtask"
IF = "if"
ELSE = "else"
ENDIF = "endif"
WHILE = "while"
ENDWHILE = "endwhile"

KIND_CODES = {SUBTASK: 0, IF: 1, ELSE: 2, ENDIF: 3, WHILE: 4, ENDWHILE: 5}

# --- starcraft vocabulary ---------------------------------------------------

BUILDING_NAMES = (
    "nexus",
    "assimilator",
    "gateway",
    "forge",
    "cybernetics_core",
    "photon_cannon",
    "robotics_facility",
    "stargate",
    "twilight_council",
    "robotics_bay",
    "fleet_beacon",
    "templar_archives",
    "dark_shrine",
    "shield_battery",
)
UNIT_NAMES = (
    "zealot",
    "stalker",
    "sentry",
    "adept",
    "high_templar",
    "dark_templar",
    "archon",
    "observer",
    "warp_prism",
    "immortal",
    "colossus",
    "disruptor",
    "phoenix",
    "void_ray",
    "oracle",
    "carrier",
)
NEXUS = 0
N_BUILDINGS = len(BUILDING_NAMES)  # 14; codes 0..13
N_UNITS = len(UNIT_NAMES)  # 16; codes 14..29 (offset by N_BUILDINGS)

# --- the line vocabulary ----------------------------------------------------


class Word(NamedTuple):
    """One line of a language: the fields that build it, its integer code and
    every text form ``parse_text`` accepts, the canonical one first."""

    domain: str
    fields: tuple
    code: object  # (kind, a, b) triple on minecraft, an int on starcraft
    spellings: tuple


def _words() -> Iterator[Word]:
    for v, verb in enumerate(VERBS):
        said = (verb, *(alias for alias, to in VERB_ALIASES.items() if to == verb))
        for r, target in enumerate(RESOURCES):
            yield Word(MINECRAFT, (SUBTASK, verb, target, None), (KIND_CODES[SUBTASK], v, r),
                       tuple(f"{w} {target}" for w in said))
    # a comparand may be written with or without a trailing "s"; the text form
    # pluralises only the one that is not a resource
    forms = [(c, c + "s") if c in RESOURCES else (c + "s", c) for c in COMPARANDS]
    for kind in (IF, WHILE):
        for a, b in itertools.permutations(range(len(COMPARANDS)), 2):
            yield Word(MINECRAFT, (kind, None, None, (COMPARANDS[a], COMPARANDS[b])),
                       (KIND_CODES[kind], a, b),
                       tuple(f"{kind} more {x} than {y}" for x in forms[a] for y in forms[b]))
    for kind in (ELSE, ENDIF, ENDWHILE):
        yield Word(MINECRAFT, (kind, None, None, None), (KIND_CODES[kind], 0, 0), (kind,))
    for b, name in enumerate(BUILDING_NAMES):
        yield Word(STARCRAFT, ("building", b), b, (f"build {name}",))
    for u, name in enumerate(UNIT_NAMES):
        yield Word(STARCRAFT, ("unit", u), N_BUILDINGS + u, (f"train {name}",))


VOCABULARY = tuple(_words())
# the two languages' fields differ in length, so one dict holds both
_BY_FIELDS = {word.fields: word for word in VOCABULARY}


def _attach_word(line, fields: tuple) -> None:
    """Set ``line.word`` to the entry listed under ``fields``; ValueError if none is."""
    try:
        word = _BY_FIELDS[fields]
    except (KeyError, TypeError):  # TypeError: an unhashable payload, such as a list condition
        raise ValueError(f"no such line: {line!r}") from None
    object.__setattr__(line, "word", word)  # not a field, so == and hash() ignore it


@dataclass(frozen=True)
class CfLine:
    """One line of a control-flow instruction.

    ``condition`` is a ``(a, b)`` comparand pair meaning "count(a) > count(b)"
    over on-map entities; it is present exactly on if/while lines.  ``verb``
    and ``target`` are present exactly on subtask lines.  ``word`` is the
    line's VOCABULARY entry.
    """

    kind: str
    verb: Optional[str] = None
    target: Optional[str] = None
    condition: Optional[tuple] = None

    def __post_init__(self):
        _attach_word(self, (self.kind, self.verb, self.target, self.condition))

    @classmethod
    def subtask(cls, verb: str, target: str) -> "CfLine":
        return cls(SUBTASK, verb=verb, target=target)

    @classmethod
    def if_(cls, a: str, b: str) -> "CfLine":
        return cls(IF, condition=(a, b))

    @classmethod
    def while_(cls, a: str, b: str) -> "CfLine":
        return cls(WHILE, condition=(a, b))

    @classmethod
    def else_(cls) -> "CfLine":
        return cls(ELSE)

    @classmethod
    def endif(cls) -> "CfLine":
        return cls(ENDIF)

    @classmethod
    def endwhile(cls) -> "CfLine":
        return cls(ENDWHILE)

    def triple(self) -> tuple:
        return self.word.code

    def text(self) -> str:
        return self.word.spellings[0]


@dataclass(frozen=True)
class ScLine:
    """One line of a build-order instruction: a building or a unit.

    ``word`` is the line's VOCABULARY entry.
    """

    kind: str  # "building" | "unit"
    ident: int

    def __post_init__(self):
        _attach_word(self, (self.kind, self.ident))

    @classmethod
    def building(cls, ident: int) -> "ScLine":
        return cls("building", ident)

    @classmethod
    def unit(cls, ident: int) -> "ScLine":
        return cls("unit", ident)

    @property
    def is_unit(self) -> bool:
        return self.kind == "unit"

    def code(self) -> int:
        return self.word.code

    def text(self) -> str:
        return self.word.spellings[0]


Line = Union[CfLine, ScLine]


@dataclass(frozen=True)
class Instruction:
    """A non-empty, domain-homogeneous sequence of lines."""

    lines: tuple

    def __post_init__(self):
        if not self.lines:
            raise ValueError("instructions are non-empty")
        first = type(self.lines[0])
        if first not in (CfLine, ScLine):
            raise ValueError(f"unknown line type {first}")
        if any(type(line) is not first for line in self.lines):
            raise ValueError("instructions do not mix domains")

    @property
    def domain(self) -> str:
        return MINECRAFT if isinstance(self.lines[0], CfLine) else STARCRAFT

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self) -> Iterator[Line]:
        return iter(self.lines)

    def __getitem__(self, index):
        return self.lines[index]

    def text(self) -> list:
        return [line.text() for line in self.lines]

    def encoded(self) -> list:
        if self.domain == MINECRAFT:
            return [list(line.word.code) for line in self.lines]
        return [line.word.code for line in self.lines]

    @cached_property
    def codes(self) -> tuple:
        """``encoded()`` as the tuples an observation carries, built once."""
        return tuple(line.word.code for line in self.lines)

    @cached_property
    def flow(self) -> "Flow":
        """The compiled block structure, built once; pickling keeps it."""
        return compile_flow(self)


@dataclass(frozen=True)
class Verdict:
    """Well-formedness result; ``index`` points at the first offending line."""

    ok: bool
    index: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Flow:
    """A control-flow instruction's block structure as per-line tables.

    Resolution leaves a structural line ``pc`` for ``on_true[pc]`` when its
    condition holds or it has none, else for ``on_false[pc]``.  The tables
    are meaningful only when ``verdict`` is ok, and are read-only.  They are
    lists: CPython keeps up to 2000 freed tuples of each short length for
    reuse, and five per instruction held megabytes over a long run.
    """

    verdict: Verdict
    conditions: list  # (a, b) COMPARANDS indexes on if/while lines, else None
    tasks: list  # (verb, RESOURCES index) on subtask lines, else None
    on_true: list
    on_false: list


def compile_flow(instruction: Instruction) -> Flow:
    """Check a control-flow instruction's blocks and compile their jumps.

    Every if/while closes with its matching endif/endwhile, with at most one
    else per if, and no closer or else appears outside an open block; an
    unclosed block reports its opener.  A false if resumes past its else or
    endif, a false while past its endwhile; an else (reached as the if-branch
    ends) resumes past the endif, and an endwhile returns to its while.
    """
    if instruction.domain != MINECRAFT:
        raise ValueError("compile_flow takes a control-flow instruction")
    lines = instruction.lines
    on_true = list(range(1, len(lines) + 1))
    on_false = on_true[:]
    verdict = Verdict(True)
    stack = []  # entries: [kind, opener_index, else_index]
    for i, line in enumerate(lines):
        kind = line.kind
        if kind in (IF, WHILE):
            stack.append([kind, i, None])
        elif kind == ELSE:
            if not stack or stack[-1][0] != IF or stack[-1][2] is not None:
                verdict = Verdict(False, i, "else outside an open if-clause")
                break
            stack[-1][2] = i
        elif kind == ENDIF:
            if not stack or stack[-1][0] != IF:
                verdict = Verdict(False, i, "endif without an open if")
                break
            _, opener, else_i = stack.pop()
            if else_i is None:
                on_false[opener] = i + 1
            else:
                on_false[opener] = else_i + 1
                on_true[else_i] = on_false[else_i] = i + 1
        elif kind == ENDWHILE:
            if not stack or stack[-1][0] != WHILE:
                verdict = Verdict(False, i, "endwhile without an open while")
                break
            _, opener, _ = stack.pop()
            on_false[opener] = i + 1
            on_true[i] = on_false[i] = opener
    if verdict and stack:
        kind, i, _ = stack[-1]
        verdict = Verdict(False, i, f"{kind} never closed")
    return Flow(
        verdict,
        [line.triple()[1:] if line.condition else None for line in lines],
        [(line.verb, RESOURCES.index(line.target)) if line.verb else None for line in lines],
        on_true,
        on_false,
    )


def validate(instruction: Instruction) -> Verdict:
    """Check block structure (minecraft, see compile_flow) or line sanity
    (starcraft)."""
    if instruction.domain == STARCRAFT:
        return Verdict(True)
    return instruction.flow.verdict


def flow_kinds(instruction: Instruction) -> set:
    """The set of flow constructs used: subset of {"if", "while"}."""
    kinds = set()
    for line in instruction.lines:
        if line.kind == IF:
            kinds.add(IF)
        elif line.kind == WHILE:
            kinds.add(WHILE)
    return kinds


@dataclass(frozen=True)
class BuildTree:
    """Technology structure for the build-order domain.

    ``prerequisite`` maps a building to its single prerequisite building;
    absent keys are roots.  ``producer`` maps a unit to the building that
    trains it.  Both maps may be partial when the tree was decoded from an
    instruction rather than sampled.
    """

    prerequisite: dict
    producer: dict

    @cached_property
    def _chains(self) -> dict:
        return {}  # building -> chain(building); at most one entry per building

    def chain(self, building: int) -> tuple:
        """Prerequisite chain from the root down to ``building`` inclusive,
        walked once per tree and building."""
        chain = self._chains.get(building)
        if chain is None:
            out = [building]
            node = building
            while node in self.prerequisite:
                node = self.prerequisite[node]
                if node in out:
                    raise ValueError("prerequisite cycle")
                out.append(node)
            chain = self._chains[building] = tuple(reversed(out))
        return chain

    def as_dict(self) -> dict:
        """Both maps with string keys in ascending order, as ``gen`` and snapshots lay them out."""
        return {
            "prerequisite": {str(k): v for k, v in sorted(self.prerequisite.items())},
            "producer": {str(k): v for k, v in sorted(self.producer.items())},
        }

    def max_depth(self) -> int:
        buildings = (
            set(self.prerequisite)
            | set(self.prerequisite.values())
            | set(self.producer.values())
        )
        if not buildings:
            return 0
        return max(len(self.chain(b)) for b in buildings)


# --- decode and parse: inverse lookups in the vocabulary -------------------

_LINE_TYPES = {MINECRAFT: CfLine, STARCRAFT: ScLine}
# every line is built once here; decode and parse_text return these instances
_LINES = [(word, _LINE_TYPES[word.domain](*word.fields)) for word in VOCABULARY]
# domain -> code -> line, and domain -> spelling -> line
_BY_CODE = {d: {w.code: line for w, line in _LINES if w.domain == d} for d in _LINE_TYPES}
_BY_SPELLING = {
    d: {s: line for w, line in _LINES if w.domain == d for s in w.spellings} for d in _LINE_TYPES
}
# how decode reads one line's payload: every number in it must be an integer
_CODE_KEYS = {MINECRAFT: lambda item: tuple(map(operator.index, item)), STARCRAFT: operator.index}


def _look_up(items: Sequence, domain: str, tables: dict, key) -> Instruction:
    """The line ``tables[domain]`` holds under ``key(item)`` for each item."""
    if domain not in tables:
        raise ValueError(f"unknown domain {clipped(domain)}")
    lines = []
    for i, item in enumerate(items):
        try:
            lines.append(tables[domain][key(item)])
        except (AttributeError, KeyError, TypeError):  # AttributeError: text that is not a str
            raise DecodeError(f"line {i}: no {domain} line {clipped(item)}") from None
    if not lines:
        raise DecodeError("empty instruction")
    return Instruction(tuple(lines))


def decode(payload: Sequence, domain: str) -> Instruction:
    """Invert ``Instruction.encoded()``; a code that is not an integer
    (``operator.index``), such as ``1.5`` or ``"3"``, is a DecodeError."""
    return _look_up(payload, domain, _BY_CODE, _CODE_KEYS.get(domain))


def parse_text(lines: Sequence, domain: str) -> Instruction:
    """Parse the human-readable line format back into an Instruction.

    Case is ignored, and so is whitespace around and between words.
    """
    return _look_up(lines, domain, _BY_SPELLING, lambda raw: " ".join(raw.lower().split()))
