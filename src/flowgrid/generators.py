"""Procedural instruction generators for both domains.

All generators draw exclusively from the ``rngtools.Draws`` reader they are
handed, so a fixed (seed, parameters) pair always yields the same output.
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
from .rngtools import Draws

FLOW_FILTERS = ("any", "single", "multi", "longjump")
MULTI_MIN_LINES = 6  # if, subtask, endif, while, subtask, endwhile
LONGJUMP_FRAME_LINES = 3  # a long-jump block's opener and closer, and the final subtask
LONGJUMP_MAX_BLOCK = 40
MAX_ATTEMPTS = 1000  # draws one gen_minecraft or gen_starcraft call makes before GenerationError
MAX_LINES = 100  # the longest instruction an EpisodeSpec may ask for; README derives it


# every line the minecraft generator writes, built once: CfLine is frozen, so
# instructions share them.  A subtask is drawn as its verb, then its resource;
# an opener as its left comparand, then its right one among the other three.
_SUBTASKS = tuple(tuple(CfLine.subtask(verb, target) for target in RESOURCES) for verb in VERBS)
_OPENERS = {
    kind: tuple(tuple(CfLine(kind, condition=(a, b)) for b in COMPARANDS if b != a)
                for a in COMPARANDS)
    for kind in (IF, WHILE)
}
_ELSE_LINE = CfLine.else_()
_CLOSERS = {IF: CfLine.endif(), ELSE: CfLine.endif(), WHILE: CfLine.endwhile()}


def _menu(slack: int, top: Optional[str]) -> tuple:
    """The line kinds offered when ``slack`` lines are spare and ``top`` is open.

    ``slack`` is the lines left after this one, less two per open block (its
    filler subtask and its closer); ``top`` is the last if, else or while line
    of the innermost block when the previous line was a subtask, else None,
    since a closer or an else follows only a subtask.  A subtask fits when the
    blocks can still close after it, an opener when its own block can too.
    """
    menu = (SUBTASK,) if slack >= -1 else ()
    if slack >= 2:
        menu += (IF, WHILE)
    if top == IF and slack >= 0:
        menu += (ELSE,)
    if top is not None:
        menu += (ENDWHILE if top == WHILE else ENDIF,)
    return menu


# _MENUS[top][min(slack, 2) + 2]; slack never falls below -2, where only a closer fits
_MENUS = {top: tuple(_menu(slack, top) for slack in range(-2, 3))
          for top in (None, IF, ELSE, WHILE)}


def _sample_minecraft(rng: Draws, target_len: int) -> Instruction:
    lines: List[CfLine] = []
    stack: List[str] = []  # the last if, else or while line of each open block
    top = None
    for remaining in range(target_len, 0, -1):
        slack = remaining - 1 - 2 * len(stack)
        menu = _MENUS[top][slack + 2 if slack < 2 else 4]
        choice = menu[rng.integers(len(menu))]
        top = None
        if choice == SUBTASK:
            lines.append(_SUBTASKS[rng.integers(3)][rng.integers(3)])
            if stack:
                top = stack[-1]
        elif choice == IF or choice == WHILE:
            lines.append(_OPENERS[choice][rng.integers(4)][rng.integers(3)])
            stack.append(choice)
        elif choice == ELSE:
            lines.append(_ELSE_LINE)
            stack[-1] = ELSE
        else:
            lines.append(_CLOSERS[stack.pop()])
    assert not stack, "length accounting must close every block"
    return Instruction(tuple(lines))


def gen_minecraft(
    rng: Draws,
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
        target = rng.integers(lo, hi + 1)
        if flow_filter == "longjump":
            return gen_longjump(rng, target - LONGJUMP_FRAME_LINES)
        instruction = _sample_minecraft(rng, target)
        # "single" keeps instructions with at most one kind of block, "multi" those with both
        if flow_filter == "any" or (len(flow_kinds(instruction)) > 1) == (flow_filter == "multi"):
            return instruction
    raise GenerationError(
        f"no instruction matching flow={flow_filter!r} in {MAX_ATTEMPTS} attempts"
    )


def gen_longjump(rng: Draws, block_len: int) -> Instruction:
    """A single never-taken block of ``block_len`` subtasks, then one subtask.

    The opening condition compares a comparand that the paired spawner
    leaves off the map against one it places, so resolution always jumps
    over the block.  Total length is block_len + LONGJUMP_FRAME_LINES.
    """
    if not 1 <= block_len <= LONGJUMP_MAX_BLOCK:
        raise ValueError(f"block_len must be in 1..{LONGJUMP_MAX_BLOCK}, got {block_len}")
    verb, target = rng.integers(3), rng.integers(3)
    final = _SUBTASKS[verb][target]
    # comparands by COMPARANDS index, which is a resource's RESOURCES index
    b = rng.integers(len(COMPARANDS))
    banned = {b, target}
    if final.verb == "sell":
        banned.add(COMPARANDS.index("merchant"))
    allowed = [c for c in range(len(COMPARANDS)) if c not in banned]
    a = allowed[rng.integers(len(allowed))]
    opener = (IF, WHILE)[rng.integers(2)]
    body = tuple(_SUBTASKS[rng.integers(3)][rng.integers(3)] for _ in range(block_len))
    # b's place among the comparands other than a
    guard = _OPENERS[opener][a][b - (b > a)]
    return Instruction((guard,) + body + (_CLOSERS[opener], final))


# --- build-order domain ---------------------------------------------------------


def gen_build_tree(
    rng: Draws, max_depth: Optional[int] = None
) -> BuildTree:
    """Sample a technology tree over all buildings and units.

    The root building comes first; every other building independently
    picks no prerequisite or one uniformly among earlier buildings whose
    chain stays within ``max_depth``.  Producers are uniform over all
    buildings.
    """
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be positive")
    order = [NEXUS] + [b + 1 for b in rng.permutation(N_BUILDINGS - 1)]
    prerequisite = {}
    depth = {NEXUS: 1}
    for pos in range(1, N_BUILDINGS):
        building = order[pos]
        earlier = order[:pos]
        candidates = [None] + [
            e for e in earlier if max_depth is None or depth[e] < max_depth
        ]
        choice = candidates[rng.integers(len(candidates))]
        if choice is None:
            depth[building] = 1
        else:
            prerequisite[building] = choice
            depth[building] = depth[choice] + 1
    producer = {
        unit: rng.integers(N_BUILDINGS) for unit in range(N_UNITS)
    }
    return BuildTree(prerequisite=prerequisite, producer=producer)


def assemble_starcraft(rng: Draws, tree: BuildTree, max_len: int) -> tuple:
    """Compose instruction lines for ``tree`` within a line budget.

    Units are added one at a time, chosen uniformly among unused units
    whose listing cost fits the remaining budget.  A unit's cost covers the
    not-yet-listed part of its producer chain plus its own line; the root
    building is implicit and never listed.  When the nearest preceding
    building line is not the unit's producer, the producer is re-listed so
    the adjacency encoding stays unambiguous.
    """
    tail = NEXUS  # building a unit line appended now would attach to
    lines: List[ScLine] = []
    # each unused unit's producer and the unlisted part of its chain, in unit
    # order; those parts shrink only when a pick lists buildings
    unused = {unit: (producer, [b for b in tree.chain(producer) if b != NEXUS])
              for unit, producer in sorted(tree.producer.items())}
    remaining = max_len
    while remaining > 0 and unused:
        candidates = []
        for unit, (producer, unlisted) in unused.items():
            cost = len(unlisted) + 1 if unlisted else 1 if tail == producer else 2
            if cost <= remaining:
                candidates.append((unit, cost))
        if not candidates:
            break
        unit, cost = candidates[rng.integers(len(candidates))]
        producer, unlisted = unused.pop(unit)
        if unlisted:
            lines += map(ScLine.building, unlisted)
            tail = unlisted[-1]
            unused = {u: (p, [b for b in part if b not in unlisted])
                      for u, (p, part) in unused.items()}
        elif tail != producer:
            lines.append(ScLine.building(producer))
            tail = producer
        lines.append(ScLine.unit(unit))
        remaining -= cost
    return tuple(lines)


def gen_starcraft(
    rng: Draws,
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
        lines = assemble_starcraft(rng, tree, max_len)
        if lines:
            return tree, Instruction(lines)
    raise GenerationError(f"no instruction fit max_len={max_len} in {MAX_ATTEMPTS} tries")
