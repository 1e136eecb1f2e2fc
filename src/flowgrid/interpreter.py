"""Ground-truth resolution of instructions into executable work.

For control-flow instructions this module normalises a program counter
through structural lines until it rests on a subtask (or past the end),
evaluating each condition exactly once at the moment it is encountered.
For build-order instructions it decodes the technology fragment implied
by line adjacency and plans the commands needed to satisfy the required
units from a world snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, List, Sequence, Tuple

from .errors import DecodeError, StructuralError, TraceExhausted
from .instructions import (
    IF,
    NEXUS,
    WHILE,
    BuildTree,
    CfLine,
    Flow,
    Instruction,
)


def eval_condition(condition: Tuple[str, str], counts) -> bool:
    """True iff count(a) > count(b).  Both comparands must be present."""
    a, b = condition
    return counts[a] > counts[b]


def checked_flow(instruction: Instruction) -> Flow:
    """The instruction's compiled flow; StructuralError if it is malformed."""
    flow = instruction.flow
    verdict = flow.verdict
    if not verdict:
        kind = instruction.lines[verdict.index].kind
        problem = "block never closed" if kind in (IF, WHILE) else f"stray {kind}"
        raise StructuralError(f"line {verdict.index}: {problem}")
    return flow


def cf_step(
    instruction: Instruction,
    pc: int,
    cond_eval: Callable[[Tuple[str, str]], bool],
) -> int:
    """Advance ``pc`` through structural lines until a subtask or the end.

    ``cond_eval`` is called once per if/while encounter, in encounter order.
    Returns the resting index: either a subtask line or ``len(instruction)``.
    Resolution is budgeted; instructions that can loop without reaching a
    subtask (e.g. a while over an empty body whose condition stays true)
    raise StructuralError instead of hanging.
    """
    length = len(instruction)
    if not 0 <= pc <= length:
        raise ValueError(f"pc {pc} out of range 0..{length}")
    flow = checked_flow(instruction)
    conditions, tasks = flow.conditions, flow.tasks
    on_true, on_false = flow.on_true, flow.on_false
    for _ in range(4 * length + 8):
        if pc == length or tasks[pc] is not None:
            return pc
        if conditions[pc] is None or cond_eval(instruction.lines[pc].condition):
            pc = on_true[pc]
        else:
            pc = on_false[pc]
    raise StructuralError("resolution budget exceeded (vacuous loop?)")


def required_sequence(instruction: Instruction, trace: Iterable[bool]) -> List[CfLine]:
    """Subtasks demanded by the instruction under a scripted condition trace.

    ``trace`` supplies one boolean per condition encounter, consumed in
    order.  Raises TraceExhausted if resolution needs more outcomes than
    the trace provides.
    """
    outcomes = iter(trace)

    def consume(_condition) -> bool:
        try:
            return bool(next(outcomes))
        except StopIteration:
            raise TraceExhausted("condition trace ran out") from None

    out = []
    pc = 0
    while True:
        pc = cf_step(instruction, pc, consume)
        if pc == len(instruction):
            return out
        out.append(instruction.lines[pc])
        pc += 1


# --- build-order decoding and planning ----------------------------------------


def sc_decode(instruction: Instruction) -> Tuple[BuildTree, List[int]]:
    """Recover the technology fragment an instruction conveys.

    Adjacent building pairs are prerequisite edges; each unit's producer is
    the nearest preceding building line.  Units listed before any building
    default to the always-available root building (the worker producer),
    which generators leave implicit.  Returns the fragment and the required
    unit types in listing order.
    """
    if instruction.domain != "starcraft":
        raise ValueError("sc_decode takes a build-order instruction")
    prerequisite = {}
    producer = {}
    required: List[int] = []
    previous_building = None
    previous_was_building = False
    for i, line in enumerate(instruction.lines):
        if line.is_unit:
            producer[line.ident] = (
                previous_building if previous_building is not None else NEXUS
            )
            required.append(line.ident)
            previous_was_building = False
        else:
            if previous_was_building:
                existing = prerequisite.get(line.ident)
                if existing is not None and existing != previous_building:
                    raise DecodeError(
                        f"line {i}: conflicting prerequisites for building "
                        f"{line.ident}"
                    )
                if line.ident == previous_building:
                    raise DecodeError(f"line {i}: building repeats its prerequisite")
                prerequisite[line.ident] = previous_building
            previous_building = line.ident
            previous_was_building = True
    fragment = BuildTree(prerequisite=prerequisite, producer=producer)
    # reject cycles such as [a, b] ... [b, a]
    for building in list(prerequisite):
        try:
            fragment.chain(building)
        except ValueError:
            raise DecodeError(f"prerequisite cycle through building {building}") from None
    return fragment, required


@dataclass(frozen=True)
class ScCommand:
    """A planned step: op is "build" or "train", ident the type id."""

    op: str
    ident: int

    def __post_init__(self):
        if self.op not in ("build", "train"):
            raise ValueError(f"unknown op {self.op!r}")


# commands are immutable, so plans share one instance per (op, ident)
_command = lru_cache(maxsize=None)(ScCommand)


def sc_plan(
    tree: BuildTree,
    required: Sequence[int],
    alive_buildings: Iterable[int],
    alive_units,
) -> List[ScCommand]:
    """Commands needed so every required unit type is alive.

    Required units are handled in listing order.  For each one not alive,
    the missing part of its producer's prerequisite chain is emitted
    root-first, then the training command.  Buildings alive now or already
    planned are not rebuilt.  Satisfied worlds plan to the empty list.
    """
    have = set(alive_buildings)
    plan: List[ScCommand] = []
    for unit in required:
        if alive_units and alive_units.get(unit, 0) > 0:
            continue
        producer = tree.producer.get(unit)
        if producer is None:
            raise DecodeError(f"no producer known for unit {unit}")
        for building in tree.chain(producer):
            if building not in have:
                plan.append(_command("build", building))
                have.add(building)
        plan.append(_command("train", unit))
    return plan
