"""Resource gridworld driven by control-flow instructions.

A 6x6 grid holds resources (iron, gold, wood), merchants, walls and an
optional straight water line.  A worker executes verb-resource commands:
it routes to the nearest matching cell (breadth-first, row-major ties),
interacts on arrival, and may bridge water cells by spending wood.  The
world tracks the instruction's required-subtask stream; completing the
stream ends the episode with reward 1, a mine or sell outside the stream
ends it with reward 0, and episodes time out at 30 steps per line.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .errors import EpisodeDone, SpawnInfeasible, clipped
from .instructions import COMPARANDS, RESOURCES, VERBS, CfLine, Instruction
from .interpreter import cf_step, checked_flow, eval_condition
from .rngtools import Draws

# the grid and the time limit are shared with the starcraft world
GRID = 6
CELLS = tuple((r, c) for r in range(GRID) for c in range(GRID))
CELL_INDEX = {cell: i for i, cell in enumerate(CELLS)}
ENTITY_CHARS = {"iron": "i", "gold": "g", "wood": "w", "merchant": "m"}
CHANNELS = (*COMPARANDS, "wall", "water", "worker")
_CHANNEL_INDEX = {name: i for i, name in enumerate(CHANNELS)}
# placement cap from the sampling recipe: water lines appear only when the
# entity count leaves room for one
WATER_MAX_ENTITIES = 30
TIME_LIMIT_FACTOR = 30
MAX_RESAMPLES = 50  # placements one spawn draws after its first, before SpawnInfeasible
# a resource's RESOURCES index is also its COMPARANDS index
_MERCHANT = COMPARANDS.index("merchant")


@dataclass(frozen=True)
class Command:
    """A verb applied to a resource, e.g. mine iron."""

    verb: str
    target: str

    def __post_init__(self):
        if self.verb not in VERBS:
            raise ValueError(f"unknown verb {clipped(self.verb)}")
        if self.target not in RESOURCES:
            raise ValueError(f"unknown resource {clipped(self.target)}")

    def as_dict(self) -> dict:
        return {"verb": self.verb, "target": self.target}


@dataclass
class Observation:
    """Agent-visible state.  Carries no task-progress information."""

    channels: np.ndarray  # (7, 6, 6) boolean, see CHANNELS
    inventory: Tuple[int, int, int]  # iron, gold, wood
    instruction: tuple  # encoded instruction triples


@dataclass
class SpawnAttempt:
    n: int
    stage: str  # static_reject | placement_reject | gate_reject | accepted
    water_placed: bool = False
    water_removed: bool = False


@dataclass(eq=False)
class MinecraftWorld:
    instruction: Instruction
    entities: Dict[tuple, str]
    water: Set[tuple]
    walls: frozenset
    worker: tuple
    inventory: Dict[str, int]
    pc: int = 0
    step_count: int = 0
    done: bool = False
    reward: int = 0
    cause: Optional[str] = None
    seed: Optional[int] = None
    spawn_attempts: Optional[List[SpawnAttempt]] = None  # set by spawn; the last is accepted
    _route: Optional[list] = field(default=None, repr=False)
    _route_key: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        self.time_limit = TIME_LIMIT_FACTOR * len(self.instruction)
        checked_flow(self.instruction)

    # -- queries ---------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        out = {name: 0 for name in COMPARANDS}
        for kind in self.entities.values():
            out[kind] += 1
        return out

    def required_subtask(self) -> Optional[CfLine]:
        """The subtask the instruction currently demands, or None when done."""
        if self.done:
            return None
        return self.instruction.lines[self.pc]

    def observe(self) -> Observation:
        grid = np.zeros((len(CHANNELS), GRID, GRID), dtype=bool)
        for (r, c), kind in self.entities.items():
            grid[_CHANNEL_INDEX[kind], r, c] = True
        for r, c in self.walls:
            grid[_CHANNEL_INDEX["wall"], r, c] = True
        for r, c in self.water:
            grid[_CHANNEL_INDEX["water"], r, c] = True
        grid[_CHANNEL_INDEX["worker"], self.worker[0], self.worker[1]] = True
        inv = tuple(self.inventory[r] for r in RESOURCES)
        return Observation(
            channels=grid,
            inventory=inv,
            instruction=self.instruction.codes,
        )

    def _grid_rows(self) -> list:
        chars = ["."] * len(CELLS)
        # later layers win: wall over water over entity
        for cell, kind in self.entities.items():
            chars[CELL_INDEX[cell]] = ENTITY_CHARS[kind]
        for cell in self.water:
            chars[CELL_INDEX[cell]] = "~"
        for cell in self.walls:
            chars[CELL_INDEX[cell]] = "#"
        return ["".join(chars[i:i + GRID]) for i in range(0, len(CELLS), GRID)]

    def snapshot(self) -> dict:
        return {
            "grid": self._grid_rows(),
            "worker": list(self.worker),
            "inventory": {r: self.inventory[r] for r in RESOURCES},
            "step": self.step_count,
            "seed": self.seed,
        }

    def digest(self) -> str:
        """sha256 of snapshot() as sort_keys JSON, laid out here key by key."""
        inventory = self.inventory
        blob = (
            '{"grid":["%s"],"inventory":{"gold":%d,"iron":%d,"wood":%d},'
            '"seed":%s,"step":%d,"worker":[%d,%d]}'
        ) % (
            '","'.join(self._grid_rows()), inventory["gold"], inventory["iron"],
            inventory["wood"], "null" if self.seed is None else self.seed,
            self.step_count, *self.worker)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        lines = self._grid_rows()
        row, col = self.worker
        lines[row] = lines[row][:col] + "@" + lines[row][col + 1:]
        inv = " ".join(f"{r}:{self.inventory[r]}" for r in RESOURCES)
        status = self.cause if self.done else "running"
        lines.append(f"step {self.step_count} inv {inv} [{status}]")
        return "\n".join(lines)

    def clone(self) -> "MinecraftWorld":
        # mutable state is copied; a route is never shared, since apply pops from it
        return replace(self, entities=dict(self.entities), water=set(self.water),
                       inventory=dict(self.inventory), spawn_attempts=None,
                       _route=None, _route_key=None)

    # -- control flow ------------------------------------------------------

    def normalize(self) -> None:
        """Rest the program counter on a subtask, finishing if none remain."""
        counts = None

        def cond_eval(condition) -> bool:
            nonlocal counts
            if counts is None:  # no entity changes while the pc resolves
                counts = self.counts()
            return eval_condition(condition, counts)

        self.pc = cf_step(self.instruction, self.pc, cond_eval)
        if self.pc == len(self.instruction) and not self.done:
            self.done = True
            self.cause = "success"
            self.reward = 1

    # -- stepping ----------------------------------------------------------

    def step(self, command: Command):
        """Advance one time step under ``command``.

        Returns (observation, reward, done, cause).  Raises EpisodeDone if
        the episode already ended.
        """
        self.apply(command)
        return self.observe(), self.reward, self.done, self.cause

    def apply(self, command: Command) -> bool:
        """``step`` without building the observation; returns the no-op flag,
        always False here.  The step's reward, done and cause are the world's:
        ``reward`` stays 0 until the step that ends the episode in success."""
        if self.done:
            raise EpisodeDone("episode is over; build a new world")
        verb, target = command.verb, command.target
        if verb == "sell" and self.inventory[target] > 0:
            goal_kind, fire = "merchant", ("sell", target)
        elif verb == "sell":
            goal_kind, fire = target, ("auto_mine", target)
        else:
            goal_kind, fire = target, (verb, target)
        goals = {cell for cell, kind in self.entities.items() if kind == goal_kind}
        interaction = None
        if goals:
            if self.worker in goals:
                interaction = fire
            else:
                path = self._route_to(goals, key=(verb, target, goal_kind))
                if path:
                    nxt = path.pop(0)
                    if nxt in self.water:
                        # bridging: spend one wood, the cell opens for good
                        self.inventory["wood"] -= 1
                        self.water.discard(nxt)
                    self.worker = nxt
                    if nxt in goals:
                        interaction = fire
                # unreachable or absent goal: the command stalls, time passes
        self.step_count += 1
        if interaction is not None:
            self._arrive(*interaction)
        if not self.done and self.step_count >= self.time_limit:
            self.done = True
            self.cause = "timeout"
        return False

    def _arrive(self, kind: str, resource: str) -> None:
        """Interact on arrival, then judge the interaction against the demanded line.

        ``kind`` is mine, sell, inspect, or auto_mine: the mining leg of a sell
        made with none of the resource in hand, whose demanded line is that
        sell.  A demanded mine, sell or inspect advances the pc; a mine or sell
        that is not demanded, auto_mine included, ends the episode out of
        order.  auto_mine never advances, and inspect, which changes nothing,
        never ends the episode.
        """
        self._route = self._route_key = None
        if kind == "sell":
            if self.inventory[resource] == 0:
                return  # wood spent on bridging en route; retry next step
            self.inventory[resource] -= 1
        elif kind != "inspect":  # mine or auto_mine takes the entity
            assert self.entities.get(self.worker) == resource
            del self.entities[self.worker]
            self.inventory[resource] += 1
        line = self.instruction.lines[self.pc]
        verb = "sell" if kind == "auto_mine" else kind
        if line.verb == verb and line.target == resource:
            if kind != "auto_mine":
                self.pc += 1
                self.normalize()
        elif kind != "inspect":
            self.done, self.cause = True, "out_of_order"

    # -- routing -----------------------------------------------------------

    def _route_to(self, goals: set, key: tuple) -> Optional[list]:
        if self._route_key == key and self._route:
            return self._route
        self._route = self._bfs(goals)
        self._route_key = key if self._route else None
        return self._route

    def _bfs(self, goals: set) -> Optional[list]:
        """Shortest route to the best goal cell, honouring the wood budget.

        States are (cell, water-cells-used); a path may enter water only
        while its water count stays within the current wood inventory.
        Equidistant goals resolve row-major; the move sequence is fixed by
        the row-major neighbour expansion order.
        """
        start = self.worker
        budget = self.inventory["wood"]
        start_state = (start, 0)
        dist = {start_state: 0}
        parent = {}
        queue = deque([start_state])
        # goal states of the nearest goal distance; the FIFO pops states in
        # nondecreasing distance and fixes each parent at first discovery,
        # so the search may stop once that distance level is complete
        found = [start_state] if start in goals else []
        while queue:
            state = queue.popleft()
            d = dist[state]
            if found and d >= dist[found[0]]:
                break
            (r, c), used = state
            for nb in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)):
                if not (0 <= nb[0] < GRID and 0 <= nb[1] < GRID):
                    continue
                if nb in self.walls:
                    continue
                nused = used + (1 if nb in self.water else 0)
                if nused > budget:
                    continue
                nstate = (nb, nused)
                if nstate in dist:
                    continue
                dist[nstate] = d + 1
                parent[nstate] = state
                queue.append(nstate)
                if nb in goals:
                    found.append(nstate)
        if not found:
            return None
        # all found states lie at the nearest distance, where the full
        # search's least (dist, cell, used) is the least (cell, used)
        path = []
        state = min(found)
        while state != start_state:
            path.append(state[0])
            state = parent[state]
        path.reverse()
        return path


# --- spawning -------------------------------------------------------------------


def required_stream_feasible(instruction: Instruction, counts) -> bool:
    """Can the demanded subtask stream be satisfied from these entity counts?

    ``counts`` holds one count per comparand, in ``COMPARANDS`` order.
    Simulates the stream on counts alone: mining consumes a map entity,
    selling needs a merchant and consumes one unit (auto-mining first on an
    empty inventory), inspecting needs a live target.  The stream must also
    finish within the episode step budget, which bounds degenerate loops.
    """
    flow = instruction.flow
    if not flow.verdict:
        return False
    counts = list(counts)
    inventory = [0] * len(RESOURCES)
    conditions, tasks = flow.conditions, flow.tasks
    on_true, on_false = flow.on_true, flow.on_false
    length = len(instruction)
    limit = TIME_LIMIT_FACTOR * length
    # inspects met since the last mine or sell; these change no count, so
    # meeting one again repeats the same lines until the step budget runs out
    inspected = set()
    pc = 0
    emitted = 0
    while True:
        # cf_step on the tables, with its resolution budget
        for _ in range(4 * length + 8):
            if pc == length:
                return True
            if tasks[pc] is not None:
                break
            condition = conditions[pc]
            if condition is None or counts[condition[0]] > counts[condition[1]]:
                pc = on_true[pc]
            else:
                pc = on_false[pc]
        else:
            return False
        emitted += 1
        if emitted > limit:
            return False
        verb, resource = tasks[pc]
        if verb == "mine":
            if counts[resource] < 1:
                return False
            counts[resource] -= 1
            inventory[resource] += 1
            inspected.clear()
        elif verb == "sell":
            if counts[_MERCHANT] < 1:
                return False
            if inventory[resource] == 0:
                if counts[resource] < 1:
                    return False
                counts[resource] -= 1
            else:
                inventory[resource] -= 1
            inspected.clear()
        elif counts[resource] < 1 or pc in inspected:  # inspect
            return False
        else:
            inspected.add(pc)
        pc += 1


def oracle_completes(world: MinecraftWorld) -> bool:
    """Dry-run the ground-truth policy on a copy; True iff it succeeds.

    The oracle's command depends only on ``pc``, so a step that leaves the
    world unchanged (worker, ``pc``, entities and inventory; entities only
    ever vanish) repeats until the episode times out: the run stops there.
    """
    sim = world.clone()
    while not sim.done:
        before = (sim.worker, sim.pc, len(sim.entities), tuple(sim.inventory.values()))
        line = sim.required_subtask()
        sim.apply(Command(line.verb, line.target))
        after = (sim.worker, sim.pc, len(sim.entities), tuple(sim.inventory.values()))
        if not sim.done and after == before:
            return False
    return sim.cause == "success"


def _placed_world(
    instruction: Instruction, entities: dict, water: set, worker: tuple, seed: Optional[int]
) -> MinecraftWorld:
    """The normalized world holding this placement, with an empty inventory."""
    occupied = set(entities) | water | {worker}
    # walls fill open cells whose row and column indices are both even;
    # such cells never disconnect the remaining grid
    walls = frozenset(
        (r, c) for r in range(0, GRID, 2) for c in range(0, GRID, 2) if (r, c) not in occupied
    )
    world = MinecraftWorld(instruction=instruction, entities=entities, water=water, walls=walls,
                           worker=worker, inventory={r: 0 for r in RESOURCES}, seed=seed)
    world.normalize()
    return world


def spawn(
    rng: Draws,
    instruction: Instruction,
    seed: Optional[int] = None,
) -> MinecraftWorld:
    """Populate a world for ``instruction`` from the "spawning" reader ``rng``.

    Entity count n is drawn once per call (uniform 0..36).  Room is judged
    first: n entities and the worker need n + 1 of the grid's cells, so at
    n = 36 every attempt is a placement_reject, and the call skips the draws
    its attempts would make and raises at once.  Otherwise each attempt
    draws entity types in one sized draw, names them only once the counts
    pass the static check, places a water line when n leaves room for one,
    scatters entities and the worker over unique open cells (n = 30 finds
    too few once the water is placed), removes the water again if it cuts
    the worker off from every wood cell, fills the even-even open cells with
    walls, and finally dry-runs the ground-truth policy.  Any failed stage
    resamples, up to ``MAX_RESAMPLES`` times; exhaustion raises
    SpawnInfeasible so the caller can regenerate the instruction.
    """
    n = rng.integers(0, 37)
    if n >= len(CELLS):
        # no water is drawn for such n, so each attempt reads only its n kinds
        rng.skip((MAX_RESAMPLES + 1) * n)
        raise SpawnInfeasible(
            f"no feasible placement for n={n} in {MAX_RESAMPLES} resamples",
            attempts=[SpawnAttempt(n, "placement_reject") for _ in range(MAX_RESAMPLES + 1)],
        )
    attempts: List[SpawnAttempt] = []
    verdicts: Dict[tuple, bool] = {}  # static check per count of each entity type
    for _ in range(MAX_RESAMPLES + 1):
        types = rng.integers(0, len(COMPARANDS), size=n)
        key = tuple(map(types.count, range(len(COMPARANDS))))
        if key not in verdicts:
            verdicts[key] = required_stream_feasible(instruction, key)
        if not verdicts[key]:
            attempts.append(SpawnAttempt(n, "static_reject"))
            continue
        kinds = [COMPARANDS[i] for i in types]
        water_placed = n <= WATER_MAX_ENTITIES
        water: Set[tuple] = set()
        if water_placed:
            index, axis = rng.integers(GRID), rng.integers(2)  # axis 0: a row, 1: a column
            water = {cell for cell in CELLS if cell[axis] == index}
        open_cells = [cell for cell in CELLS if cell not in water]
        if len(open_cells) < n + 1:
            attempts.append(SpawnAttempt(n, "placement_reject", water_placed))
            continue
        order = rng.permutation(len(open_cells))
        chosen = [open_cells[i] for i in order[: n + 1]]
        entities = dict(zip(chosen[:n], kinds))
        worker = chosen[n]
        # with no walls yet, the full water line splits the grid in two: the
        # worker reaches wood iff a wood cell lies on its side of the line
        water_removed = water_placed and not any(
            kind == "wood" and (cell[axis] < index) == (worker[axis] < index)
            for cell, kind in entities.items())
        if water_removed:
            water = set()
        world = _placed_world(instruction, entities, water, worker, seed)
        if not oracle_completes(world):
            attempts.append(
                SpawnAttempt(n, "gate_reject", water_placed, water_removed)
            )
            continue
        attempts.append(SpawnAttempt(n, "accepted", water_placed, water_removed))
        world.spawn_attempts = attempts
        return world
    raise SpawnInfeasible(
        f"no feasible placement for n={n} in {MAX_RESAMPLES} resamples",
        attempts=attempts,
    )


def spawn_longjump(
    rng: Draws, instruction: Instruction, seed: Optional[int] = None
) -> MinecraftWorld:
    """World for a long-jump instruction: the guard comparand stays absent.

    ``rng`` is the "spawning" reader; one permutation of the cells places all.

    Places one entity of the guard's right-hand comparand, one of the final
    subtask's target, and a merchant when the final subtask sells; no water.
    """
    a, b = instruction.lines[0].condition
    final = instruction.lines[-1]
    kinds = sorted({b, final.target} | ({"merchant"} if final.verb == "sell" else set()))
    if a in kinds:
        raise ValueError("guard comparand must stay off the map")
    order = rng.permutation(len(CELLS))
    entities = {CELLS[order[i]]: kind for i, kind in enumerate(kinds)}
    return _placed_world(instruction, entities, set(), CELLS[order[len(kinds)]], seed)
