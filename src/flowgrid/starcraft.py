"""Build-order gridworld with an autoregressive command assembly.

Commands are assembled from typed tokens (probe, coordinate, building,
unit selections plus an explicit pass).  A finished assembly resolves into
a build, go-to or train command, or into a no-op when any token is illegal
in context; every resolution advances world time by one step.  Probes walk
one cell per step; a build completes when its probe reaches the chosen
cell.  Each step may independently bring an attack (destroys a uniformly
chosen non-empty subset of non-root buildings) and an ambush (removes one
produced unit and reports its type).  The episode succeeds the moment all
required unit types are alive simultaneously and times out at 30 steps per
instruction line.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from string import hexdigits
from typing import Dict, List, Optional

import numpy as np

from .errors import EpisodeDone, SpawnInfeasible, clipped
from .instructions import (
    NEXUS,
    N_BUILDINGS,
    N_UNITS,
    UNIT_NAMES,
    BuildTree,
    Instruction,
)
from .interpreter import sc_plan
from .minecraft import CELL_INDEX, CELLS, GRID, MAX_RESAMPLES, TIME_LIMIT_FACTOR
from .rngtools import Draws

N_PROBES = 3
ATTACK_RATE = 0.1
AMBUSH_RATE = 0.1
MAX_ENDOWMENT = 36  # sampled upper bound; placement caps at the 35 free cells

TOKEN_LIMITS = {
    "select_probe": N_PROBES,
    "select_coord": GRID * GRID,
    "select_building": N_BUILDINGS,
    "select_unit": N_UNITS,
}
TOKEN_KINDS = (*TOKEN_LIMITS, "commit")


@dataclass(frozen=True)
class ActionToken:
    """One autoregressive selection.  ``commit`` is an explicit pass."""

    kind: str
    value: Optional[int] = None

    def __post_init__(self):
        if self.kind not in TOKEN_KINDS:
            raise ValueError(f"unknown token kind {clipped(self.kind)}")
        if self.kind == "commit":
            if self.value is not None:
                raise ValueError("commit carries no value")
        else:
            # type(), not isinstance: a JSON true is a bool, which is an int subclass
            if type(self.value) is not int or not 0 <= self.value < TOKEN_LIMITS[self.kind]:
                raise ValueError(f"bad value {clipped(self.value)} for {self.kind}")

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


# every token, validated once at import: TOKENS[kind][value], TOKENS["commit"][0]
TOKENS = {kind: tuple(ActionToken(kind, v) for v in range(limit))
          for kind, limit in TOKEN_LIMITS.items()}
TOKENS["commit"] = (ActionToken("commit"),)

# the command grammar: (open assembly, token kind) -> the assembly the token
# opens or the command it completes; every other pair resolves as a no-op.
# An open assembly carries the values of its tokens after its name.
GRAMMAR = {
    ("start", "select_probe"): "probe",
    ("start", "select_coord"): "train_from",
    ("probe", "select_building"): "building",
    ("probe", "select_coord"): "goto",
    ("building", "select_coord"): "build",
    ("train_from", "select_unit"): "train",
}
ASSEMBLIES = frozenset(state for state, _ in GRAMMAR)  # "start" and the open ones
COMMANDS = frozenset(GRAMMAR.values()) - ASSEMBLIES


@dataclass
class ScObservation:
    """Agent-visible state.  The technology tree is never included."""

    building_grid: np.ndarray  # (6, 6) int8, -1 empty else building type
    probes: tuple  # three (row, col) pairs
    unit_counts: np.ndarray  # (16,) int64
    ambush_message: Optional[int]  # unit type lost last step, if any
    instruction: tuple  # encoded symbol codes


@dataclass(frozen=True)
class DisruptionReport:
    attack: bool = False
    destroyed: tuple = ()
    ambush: bool = False
    ambushed: Optional[int] = None


_CALM = DisruptionReport()  # the one report of every step without attack or ambush


@dataclass
class StepOutcome:
    """What ``step_token`` returns for a step that advanced world time."""

    reward: int
    done: bool
    cause: Optional[str]
    noop: bool
    observation: ScObservation


@dataclass(eq=False)
class StarcraftWorld:
    tree: BuildTree
    instruction: Instruction
    grid: Dict[tuple, int]
    probes: List[tuple]
    rng: Optional[Draws] = None  # the disruption stream; a world without one has no disruptions
    seed: Optional[int] = None
    probe_dest: List[Optional[tuple]] = field(default_factory=lambda: [None] * N_PROBES)
    pending_build: Dict[int, tuple] = field(default_factory=dict)
    pending_train: List[int] = field(default_factory=list)
    units: Dict[int, int] = field(default_factory=dict)
    ambush_message: Optional[int] = None
    assembly: tuple = ("start",)
    step_count: int = 0
    done: bool = False
    reward: int = 0
    cause: Optional[str] = None
    last_disruption: Optional[DisruptionReport] = None
    endowment: int = 0
    pc = None  # a build order has no program counter
    _digest_grid = None  # a copy of the grid that digest() last laid out, as _digest_rows
    _digest_units = None  # and of the units, as _digest_unit_text

    def __post_init__(self):
        self.required = tuple(
            line.ident for line in self.instruction.lines if line.is_unit
        )
        self.time_limit = TIME_LIMIT_FACTOR * len(self.instruction)
        self._refresh_done()

    # -- queries -----------------------------------------------------------

    def observe(self) -> ScObservation:
        grid = np.full((GRID, GRID), -1, dtype=np.int8)
        for (r, c), b in self.grid.items():
            grid[r, c] = b
        counts = np.zeros(N_UNITS, dtype=np.int64)
        for unit, count in self.units.items():
            counts[unit] = count
        return ScObservation(
            building_grid=grid,
            probes=tuple(self.probes),
            unit_counts=counts,
            ambush_message=self.ambush_message,
            instruction=self.instruction.codes,
        )

    def _grid_rows(self) -> list:
        chars = ["."] * len(CELLS)
        for cell, b in self.grid.items():
            chars[CELL_INDEX[cell]] = hexdigits[b]  # format(b, "x") for b < 16
        return ["".join(chars[i:i + GRID]) for i in range(0, len(CELLS), GRID)]

    def _tree_snapshot(self) -> dict:
        return {**self.tree.as_dict(), "hidden": True}

    @cached_property
    def _tree_json(self) -> str:
        # the tree never changes, so digest() lays it out once, its keys in
        # sort_keys' string order ("10" before "2")
        maps = tuple("{%s}" % ",".join('"%d":%d' % (k, m[k]) for k in sorted(m, key=str))
                     for m in (self.tree.prerequisite, self.tree.producer))
        return '{"hidden":true,"prerequisite":%s,"producer":%s}' % maps

    def snapshot(self) -> dict:
        return {
            "grid": self._grid_rows(),
            "probes": [list(p) for p in self.probes],
            "units": {
                UNIT_NAMES[u]: count
                for u, count in sorted(self.units.items())
                if count > 0
            },
            "step": self.step_count,
            "seed": self.seed,
            "tree": self._tree_snapshot(),
        }

    def digest(self) -> str:
        """sha256 of snapshot() as sort_keys JSON, laid out here key by key."""
        if self.grid != self._digest_grid:  # the grid rows are joined again only when it moves
            self._digest_grid, self._digest_rows = dict(self.grid), '","'.join(self._grid_rows())
        if self.units != self._digest_units:
            self._digest_units, self._digest_unit_text = dict(self.units), ",".join(
                '"%s":%d' % pair for pair in sorted(
                    (UNIT_NAMES[u], n) for u, n in self.units.items() if n > 0))
        (r0, c0), (r1, c1), (r2, c2) = self.probes
        blob = ('{"grid":["%s"],"probes":[[%d,%d],[%d,%d],[%d,%d]],"seed":%s,"step":%d,'
                '"tree":%s,"units":{%s}}') % (
            self._digest_rows, r0, c0, r1, c1, r2, c2,
            "null" if self.seed is None else self.seed, self.step_count, self._tree_json,
            self._digest_unit_text)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        rows = [list(row) for row in self._grid_rows()]
        for r, c in self.probes:
            if rows[r][c] == ".":
                rows[r][c] = "p"
        units = " ".join(
            f"{UNIT_NAMES[u]}:{n}" for u, n in sorted(self.units.items()) if n > 0
        ) or "-"
        status = self.cause if self.done else "running"
        lines = ["".join(row) for row in rows]
        lines.append(f"step {self.step_count} units {units} [{status}]")
        return "\n".join(lines)

    # -- token stepping ------------------------------------------------------

    def step_token(self, token: ActionToken) -> Optional[StepOutcome]:
        """Feed one token; returns None while the assembly is still open.

        A resolving token (legal command completion, explicit pass, or any
        token illegal in its context) applies the command, advances time
        one step, and returns the outcome with the new observation.
        """
        noop = self.apply(token)
        if noop is None:
            return None
        return StepOutcome(self.reward, self.done, self.cause, noop, self.observe())

    def apply(self, token: ActionToken) -> Optional[bool]:
        """``step_token`` without building the observation.

        Returns None while the assembly is open, else whether the step was
        a no-op.  The step's reward, done and cause are the world's:
        ``reward`` stays 0 until the step that ends the episode in success.
        """
        if self.done:
            raise EpisodeDone("episode is over; build a new world")
        state, value = self.assembly, token.value
        step = GRAMMAR.get((state[0], token.kind))
        if step == "train_from" and CELLS[value] not in self.grid:
            step = None  # a coordinate opens a train only on a building
        if step in ASSEMBLIES:
            self.assembly = (step, *state[1:], value)
            return None
        self.assembly = ("start",)
        if step == "goto":
            i = state[1]
            self.probe_dest[i] = CELLS[value]
            self.pending_build.pop(i, None)  # redirecting abandons the build
        elif step == "build":
            _, i, b = state
            cell, prereq = CELLS[value], self.tree.prerequisite.get(b)
            if cell in self.grid or (prereq is not None and prereq not in self.grid.values()):
                step = None
            else:
                self.pending_build[i] = (b, cell)
                self.probe_dest[i] = cell
        elif step == "train":
            producer = self.grid.get(CELLS[state[1]])
            if producer is not None and self.tree.producer.get(value) == producer:
                self.pending_train.append(value)
            else:
                step = None
        self._advance()
        return step is None

    def _advance(self) -> None:
        self.step_count += 1
        for i in range(N_PROBES):
            dest = self.probe_dest[i]
            if dest is None:
                continue
            if self.probes[i] != dest:
                self.probes[i] = _step_toward(self.probes[i], dest)
            if self.probes[i] == dest:
                job = self.pending_build.pop(i, None)
                if job is not None:
                    b, cell = job
                    if cell not in self.grid:
                        self.grid[cell] = b
                    # an occupied cell at arrival cancels the construction
                self.probe_dest[i] = None
        trained = self.pending_train
        for unit in trained:
            self.units[unit] = self.units.get(unit, 0) + 1
        self.pending_train = []
        self.ambush_message = None
        self.last_disruption = None if self.rng is None else self.roll_disruptions()
        self._refresh_done(bool(trained))

    def roll_disruptions(self) -> DisruptionReport:
        """Independent per-step attack and ambush events.

        An attack destroys a uniformly chosen non-empty subset of the
        non-root buildings (vacuous when there are none).  An ambush
        removes one uniformly chosen produced unit and posts its type as
        the message for the next observation.
        """
        rng = self.rng
        if rng is None:
            raise ValueError("world has no disruption stream")
        destroyed, victim = (), None
        attack = rng.random() < ATTACK_RATE
        if attack:
            targets = sorted(cell for cell, b in self.grid.items() if b != NEXUS)
            if targets:
                mask = rng.integers(1, 1 << len(targets))
                destroyed = tuple(
                    targets[j] for j in range(len(targets)) if (mask >> j) & 1
                )
                for cell in destroyed:
                    del self.grid[cell]
        ambush = rng.random() < AMBUSH_RATE
        if ambush:
            pool = [u for u in sorted(self.units) for _ in range(self.units[u])]
            if pool:
                victim = pool[rng.integers(len(pool))]
                self.units[victim] -= 1
                if self.units[victim] == 0:
                    del self.units[victim]
                self.ambush_message = victim
        if not (attack or ambush):
            return _CALM
        return DisruptionReport(attack, destroyed, ambush, victim)

    def _refresh_done(self, trained: bool = True) -> None:
        """End the episode on success, which wins over the step limit.

        Units grow only by training, so a step that ``trained`` none cannot
        newly succeed and skips the success test.
        """
        if self.done:
            return
        if trained and all(self.units.get(u, 0) > 0 for u in self.required):
            self.done, self.cause, self.reward = True, "success", 1
        elif self.step_count >= self.time_limit:
            self.done, self.cause = True, "timeout"


def _step_toward(cell: tuple, dest: tuple) -> tuple:
    r, c = cell
    dr, dc = dest[0] - r, dest[1] - c
    if abs(dr) >= abs(dc) and dr != 0:
        return (r + (1 if dr > 0 else -1), c)
    if dc != 0:
        return (r, c + (1 if dc > 0 else -1))
    return cell


def spawn(
    rng: Draws,
    tree: BuildTree,
    instruction: Instruction,
    disruption_rng: Optional[Draws] = None,
    seed: Optional[int] = None,
) -> StarcraftWorld:
    """Place the root building, three probes and a random endowment.

    The endowment count is uniform on 0..36 with uniform building types on
    unique free cells (capped by the 35 cells the root leaves open).  A
    placement is resampled when the free cells could not hold the builds
    the ground-truth plan needs from a fresh start.  ``rng`` is the
    "spawning" reader; ``disruption_rng``, the "disruptions" stream, rolls
    the disruptions, and a world spawned without it has none.
    """
    required = tuple(line.ident for line in instruction.lines if line.is_unit)
    for _ in range(MAX_RESAMPLES + 1):
        nexus_cell = CELLS[rng.integers(len(CELLS))]
        endowment = rng.integers(0, MAX_ENDOWMENT + 1)
        count = min(endowment, len(CELLS) - 1)
        others = [cell for cell in CELLS if cell != nexus_cell]
        order = rng.permutation(len(others))
        grid = {nexus_cell: NEXUS}
        for slot in range(count):
            grid[others[order[slot]]] = rng.integers(N_BUILDINGS)
        plan = sc_plan(tree, required, set(grid.values()), {})
        builds_needed = sum(1 for cmd in plan if cmd.op == "build")
        if len(CELLS) - len(grid) < builds_needed:
            continue
        return StarcraftWorld(
            tree=tree,
            instruction=instruction,
            grid=grid,
            probes=[nexus_cell] * N_PROBES,
            rng=disruption_rng,
            seed=seed,
            endowment=endowment,
        )
    raise SpawnInfeasible("endowment left no room for required construction")


# --- command space audit ----------------------------------------------------------


def classify_assembly(tokens) -> Optional[str]:
    """Grammar-level command type of a token sequence, ignoring world state.

    Returns "build", "goto" or "train" when the sequence forms that
    command shape, None otherwise.  Coordinate legality (occupancy,
    prerequisites, producers) is the world's concern, not the grammar's.
    """
    state = "start"
    for token in tokens:
        state = GRAMMAR.get((state, token.kind))  # a command opens nothing
    return state if state in COMMANDS else None


def enumerate_command_space() -> dict:
    """Count each command's token sequences by walking ``GRAMMAR`` from "start";
    a state that opens nothing is the command its paths complete."""
    counts: Dict[str, int] = {}
    paths = [("start", 1)]  # an assembly state and the token sequences that reach it
    while paths:
        state, ways = paths.pop()
        steps = [(step, ways * len(TOKENS[kind]))
                 for (at, kind), step in GRAMMAR.items() if at == state]
        paths += steps
        if not steps:
            counts[state] = counts.get(state, 0) + ways
    return dict(sorted(counts.items()))


def legal_train_commands(world: StarcraftWorld) -> int:
    """Runtime-legal (coordinate, unit) train pairs in ``world``."""
    producible = {}
    for unit, building in world.tree.producer.items():
        producible.setdefault(building, 0)
        producible[building] += 1
    return sum(producible.get(b, 0) for b in world.grid.values())
