"""Procedural instruction generators for both domains.

All generators draw exclusively from the ``rngtools.Rng`` they are handed,
so a fixed (seed, parameters) pair always yields the same output.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .errors import GenerationError
from .instructions import (
    COMPARANDS,
    ELSE,
    ENDIF,
    ENDWHILE,
    IF,
    NEXUS,
    N_BUILDINGS,
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
)
from .rngtools import Rng

FLOW_FILTERS = ("any", "single", "multi", "longjump")
MULTI_MIN_LINES = 6  # if, subtask, endif, while, subtask, endwhile
LONGJUMP_FRAME_LINES = 3  # a long-jump block's opener and closer, and the final subtask
LONGJUMP_MAX_BLOCK = 40
MAX_ATTEMPTS = 1000  # draws one gen_minecraft or gen_starcraft call makes before GenerationError


def _pick(rng: Rng, options):
    return options[int(rng.integers(len(options)))]


def _random_condition(rng: Rng) -> Tuple[str, str]:
    a = _pick(rng, COMPARANDS)
    rest = [c for c in COMPARANDS if c != a]
    return (a, _pick(rng, rest))


def _random_subtask(rng: Rng) -> CfLine:
    return CfLine.subtask(_pick(rng, VERBS), _pick(rng, RESOURCES))


def _min_lines_to_close(depth: int, last_was_subtask: bool) -> int:
    """Fewest further lines that can close all open blocks.

    Each open block needs a closer, and a closer is only offered right
    after a subtask, so a block whose previous line is structural needs a
    filler subtask first.  Two lines per open block, minus one if the very
    next line could already be a closer.
    """
    if depth == 0:
        return 0
    return 2 * depth - (1 if last_was_subtask else 0)


def _sample_minecraft(rng: Rng, target_len: int) -> Instruction:
    lines: List[CfLine] = []
    stack: List[List] = []  # [kind, has_else]
    while len(lines) < target_len:
        remaining = target_len - len(lines)
        last_sub = bool(lines) and lines[-1].kind == SUBTASK
        depth = len(stack)
        menu = []
        # a subtask is viable when the open blocks can still close afterwards
        if _min_lines_to_close(depth, True) <= remaining - 1:
            menu.append(SUBTASK)
        # an opener adds a block that itself must close
        if _min_lines_to_close(depth + 1, False) <= remaining - 1:
            menu.append(IF)
            menu.append(WHILE)
        if last_sub and stack:
            kind, has_else = stack[-1]
            if kind == IF and not has_else:
                if _min_lines_to_close(depth, False) <= remaining - 1:
                    menu.append(ELSE)
                menu.append(ENDIF)
            elif kind == IF and has_else:
                menu.append(ENDIF)
            else:
                menu.append(ENDWHILE)
        choice = _pick(rng, menu)
        if choice == SUBTASK:
            lines.append(_random_subtask(rng))
        elif choice in (IF, WHILE):
            lines.append(CfLine(choice, condition=_random_condition(rng)))
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
    assert not stack, "length accounting must close every block"
    return Instruction(tuple(lines))


def gen_minecraft(
    rng: Rng,
    length_range: Tuple[int, int],
    flow_filter: str = "any",
) -> Instruction:
    """Sample a control-flow instruction with length in ``length_range``.

    ``flow_filter`` constrains the flow constructs used: "single" rejects
    instructions mixing if and while, "multi" requires both, and
    "longjump" returns ``gen_longjump`` of the drawn length.  Rejection
    sampling is budgeted; exhaustion raises GenerationError.
    """
    lo, hi = length_range
    if not 1 <= lo <= hi:
        raise ValueError(f"bad length range {length_range}")
    if flow_filter not in FLOW_FILTERS:
        raise ValueError(f"unknown flow filter {flow_filter!r}")
    for _ in range(MAX_ATTEMPTS):
        target = int(rng.integers(lo, hi + 1))
        if flow_filter == "longjump":
            return gen_longjump(rng, target - LONGJUMP_FRAME_LINES)
        instruction = _sample_minecraft(rng, target)
        used = flow_kinds(instruction)
        if flow_filter == "single" and len(used) > 1:
            continue
        if flow_filter == "multi" and len(used) < 2:
            continue
        return instruction
    raise GenerationError(
        f"no instruction matching flow={flow_filter!r} in {MAX_ATTEMPTS} attempts"
    )


def gen_longjump(rng: Rng, block_len: int) -> Instruction:
    """A single never-taken block of ``block_len`` subtasks, then one subtask.

    The opening condition compares a comparand that the paired spawner
    leaves off the map against one it places, so resolution always jumps
    over the block.  Total length is block_len + LONGJUMP_FRAME_LINES.
    """
    if not 1 <= block_len <= LONGJUMP_MAX_BLOCK:
        raise ValueError(f"block_len must be in 1..{LONGJUMP_MAX_BLOCK}, got {block_len}")
    final = _random_subtask(rng)
    b = _pick(rng, COMPARANDS)
    banned = {b, final.target}
    if final.verb == "sell":
        banned.add("merchant")
    a = _pick(rng, [c for c in COMPARANDS if c not in banned])
    opener = _pick(rng, (IF, WHILE))
    closer = CfLine.endif() if opener == IF else CfLine.endwhile()
    body = tuple(_random_subtask(rng) for _ in range(block_len))
    lines = (CfLine(opener, condition=(a, b)),) + body + (closer, final)
    return Instruction(lines)


# --- build-order domain ---------------------------------------------------------


def gen_build_tree(
    rng: Rng, max_depth: Optional[int] = None
) -> BuildTree:
    """Sample a technology tree over all buildings and units.

    The root building comes first; every other building independently
    picks no prerequisite or one uniformly among earlier buildings whose
    chain stays within ``max_depth``.  Producers are uniform over all
    buildings.
    """
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be positive")
    order = [NEXUS] + [int(b) + 1 for b in rng.permutation(N_BUILDINGS - 1)]
    prerequisite = {}
    depth = {NEXUS: 1}
    for pos in range(1, N_BUILDINGS):
        building = order[pos]
        earlier = order[:pos]
        candidates = [None] + [
            e for e in earlier if max_depth is None or depth[e] < max_depth
        ]
        choice = _pick(rng, candidates)
        if choice is None:
            depth[building] = 1
        else:
            prerequisite[building] = choice
            depth[building] = depth[choice] + 1
    producer = {
        unit: int(rng.integers(N_BUILDINGS)) for unit in range(N_UNITS)
    }
    return BuildTree(prerequisite=prerequisite, producer=producer)


def assemble_starcraft(
    rng: Rng, tree: BuildTree, max_len: int
) -> Tuple[tuple, BuildTree, list]:
    """Compose instruction lines for ``tree`` within a line budget.

    Units are added one at a time, chosen uniformly among unused units
    whose listing cost fits the remaining budget.  A unit's cost covers the
    not-yet-listed part of its producer chain plus its own line; the root
    building is implicit and never listed.  When the nearest preceding
    building line is not the unit's producer, the producer is re-listed so
    the adjacency encoding stays unambiguous.

    Returns (lines, conveyed fragment, required unit order).
    """
    listed = {NEXUS}
    tail = NEXUS  # building a unit line appended now would attach to
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


def gen_starcraft(
    rng: Rng,
    max_len: int,
    max_depth: Optional[int] = None,
) -> Tuple[BuildTree, Instruction]:
    """Sample a tree plus an instruction of at most ``max_len`` lines.

    Trees whose cheapest unit listing exceeds the budget are resampled
    (possible only for small budgets and deep trees); exhaustion raises
    GenerationError.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    for _ in range(MAX_ATTEMPTS):
        tree = gen_build_tree(rng, max_depth)
        lines, _, _ = assemble_starcraft(rng, tree, max_len)
        if lines:
            return tree, Instruction(lines)
    raise GenerationError(f"no instruction fit max_len={max_len} in {MAX_ATTEMPTS} tries")
