"""Instruction languages for the two task domains.

An instruction is an ordered, non-empty sequence of lines.  The
``minecraft`` domain uses control-flow lines (subtasks plus if/else/while
structure over count comparisons); the ``starcraft`` domain uses flat
build-order lines naming a building or a unit type.

Integer encodings are stable public interfaces: minecraft lines encode to
``(kind, a, b)`` triples and starcraft lines to single integers.  See the
tables in the module constants below.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

from .errors import DecodeError

MINECRAFT = "minecraft"
STARCRAFT = "starcraft"

# --- minecraft vocabulary ---------------------------------------------------

VERBS = ("mine", "sell", "inspect")
RESOURCES = ("iron", "gold", "wood")
COMPARANDS = ("iron", "gold", "wood", "merchant")
# accepted on parse as synonyms, rendered canonically
VERB_ALIASES = {"pickup": "mine", "transform": "sell"}

SUBTASK = "subtask"
IF = "if"
ELSE = "else"
ENDIF = "endif"
WHILE = "while"
ENDWHILE = "endwhile"

KIND_CODES = {SUBTASK: 0, IF: 1, ELSE: 2, ENDIF: 3, WHILE: 4, ENDWHILE: 5}
CODE_KINDS = {v: k for k, v in KIND_CODES.items()}

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


def _plural(comparand: str) -> str:
    # only the non-resource comparand pluralises in the text form
    return "merchants" if comparand == "merchant" else comparand


@dataclass(frozen=True)
class CfLine:
    """One line of a control-flow instruction.

    ``condition`` is a ``(a, b)`` comparand pair meaning "count(a) > count(b)"
    over on-map entities; it is present exactly on if/while lines.  ``verb``
    and ``target`` are present exactly on subtask lines.
    """

    kind: str
    verb: Optional[str] = None
    target: Optional[str] = None
    condition: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in KIND_CODES:
            raise ValueError(f"unknown line kind {self.kind!r}")
        if self.kind == SUBTASK:
            if self.verb not in VERBS or self.target not in RESOURCES:
                raise ValueError(f"bad subtask {self.verb!r} {self.target!r}")
            if self.condition is not None:
                raise ValueError("subtask lines carry no condition")
        elif self.kind in (IF, WHILE):
            cond = self.condition
            if (
                not isinstance(cond, tuple)
                or len(cond) != 2
                or cond[0] not in COMPARANDS
                or cond[1] not in COMPARANDS
                or cond[0] == cond[1]
            ):
                raise ValueError(f"bad condition {cond!r}")
            if self.verb is not None or self.target is not None:
                raise ValueError("flow lines carry no verb/target")
        else:
            if any(v is not None for v in (self.verb, self.target, self.condition)):
                raise ValueError(f"{self.kind} lines carry no payload")

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
        code = KIND_CODES[self.kind]
        if self.kind == SUBTASK:
            return (code, VERBS.index(self.verb), RESOURCES.index(self.target))
        if self.kind in (IF, WHILE):
            a, b = self.condition
            return (code, COMPARANDS.index(a), COMPARANDS.index(b))
        return (code, 0, 0)

    def text(self) -> str:
        if self.kind == SUBTASK:
            return f"{self.verb} {self.target}"
        if self.kind in (IF, WHILE):
            a, b = self.condition
            return f"{self.kind} more {_plural(a)} than {_plural(b)}"
        return self.kind


@dataclass(frozen=True)
class ScLine:
    """One line of a build-order instruction: a building or a unit."""

    kind: str  # "building" | "unit"
    ident: int

    def __post_init__(self):
        if self.kind == "building":
            if not 0 <= self.ident < N_BUILDINGS:
                raise ValueError(f"building id out of range: {self.ident}")
        elif self.kind == "unit":
            if not 0 <= self.ident < N_UNITS:
                raise ValueError(f"unit id out of range: {self.ident}")
        else:
            raise ValueError(f"unknown line kind {self.kind!r}")

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
        return self.ident if self.kind == "building" else N_BUILDINGS + self.ident

    def text(self) -> str:
        if self.kind == "building":
            return f"build {BUILDING_NAMES[self.ident]}"
        return f"train {UNIT_NAMES[self.ident]}"


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
            return [list(line.triple()) for line in self.lines]
        return [line.code() for line in self.lines]

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

    def chain(self, building: int) -> list:
        """Prerequisite chain from the root down to ``building`` inclusive."""
        out = [building]
        seen = {building}
        node = building
        while node in self.prerequisite:
            node = self.prerequisite[node]
            if node in seen:
                raise ValueError("prerequisite cycle")
            seen.add(node)
            out.append(node)
        out.reverse()
        return out

    def as_dict(self) -> dict:
        """Both maps with string keys in ascending order, as ``gen`` and snapshots lay them out."""
        return {
            "prerequisite": {str(k): v for k, v in sorted(self.prerequisite.items())},
            "producer": {str(k): v for k, v in sorted(self.producer.items())},
        }

    def depth(self, building: int) -> int:
        return len(self.chain(building))

    def max_depth(self) -> int:
        buildings = (
            set(self.prerequisite)
            | set(self.prerequisite.values())
            | set(self.producer.values())
        )
        if not buildings:
            return 0
        return max(self.depth(b) for b in buildings)


# --- integer encode / decode -------------------------------------------------


def decode_minecraft(triples: Sequence) -> Instruction:
    lines = []
    for i, item in enumerate(triples):
        try:
            kind_code, a, b = (int(v) for v in item)
        except (TypeError, ValueError) as exc:
            raise DecodeError(f"line {i}: not an integer triple: {item!r}") from exc
        kind = CODE_KINDS.get(kind_code)
        if kind is None:
            raise DecodeError(f"line {i}: unknown kind code {kind_code}")
        try:
            if kind == SUBTASK:
                lines.append(CfLine.subtask(VERBS[a], RESOURCES[b]))
            elif kind in (IF, WHILE):
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


def decode_starcraft(codes: Sequence) -> Instruction:
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


def decode(payload: Sequence, domain: str) -> Instruction:
    if domain == MINECRAFT:
        return decode_minecraft(payload)
    if domain == STARCRAFT:
        return decode_starcraft(payload)
    raise ValueError(f"unknown domain {domain!r}")


# --- text parse ---------------------------------------------------------------

_COND_RE = re.compile(r"^(if|while) more (\w+) than (\w+)$")


def _parse_comparand(word: str, line_no: int) -> str:
    singular = word[:-1] if word.endswith("s") and word != "s" else word
    for cand in (word, singular):
        if cand in COMPARANDS:
            return cand
    raise DecodeError(f"line {line_no}: unknown comparand {word!r}")


def parse_text(lines: Sequence, domain: str) -> Instruction:
    """Parse the human-readable line format back into an Instruction."""
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
        if textline in (ELSE, ENDIF, ENDWHILE):
            out.append(CfLine(textline))
            continue
        match = _COND_RE.match(textline)
        if match:
            kind, a, b = match.groups()
            a = _parse_comparand(a, i)
            b = _parse_comparand(b, i)
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
