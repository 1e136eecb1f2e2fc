"""Episode orchestration: policies, deterministic runs, traces, retry buffer.

An episode is fully determined by (config, policy name, seed).  The seed
fans out into independent named substreams for instruction generation,
world placement, disruptions and policy randomness, so runs replay
byte-identically and parallel execution cannot reorder randomness.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import IO, List, Optional, Union

from . import minecraft, starcraft
from .errors import (GenerationError, PolicyParamsError, ReplayMismatch, SpawnInfeasible,
                     TraceFormatError, clipped)
from .generators import (FLOW_FILTERS, LONGJUMP_FRAME_LINES, LONGJUMP_MAX_BLOCK, MAX_LINES,
                         MULTI_MIN_LINES)
from .generators import gen_minecraft, gen_starcraft
from .instructions import MINECRAFT, RESOURCES, STARCRAFT, VERBS
from .interpreter import sc_plan
from .minecraft import Command
from .rngtools import Draws, draws
from .starcraft import ActionToken

# unused: every stream the harness opens is a Draws reader, but
# bench/spans.py still patches this name
from .rngtools import substream  # noqa: F401

TRACE_VERSION = 1
MAX_REGENERATIONS = 1000
MAX_CHUNK = 16  # items per process-pool task in map_episodes


@dataclass(frozen=True)
class EpisodeSpec:
    """Parameters that define an episode distribution."""

    domain: str
    min_len: int = 1
    max_len: int = 10
    flow: str = "any"  # minecraft flow filter
    max_depth: Optional[int] = None  # starcraft tree depth cap
    disruptions: bool = True  # starcraft only; minecraft has none to turn off

    def __post_init__(self):
        if self.domain not in (MINECRAFT, STARCRAFT):
            raise ValueError(f"unknown domain {clipped(self.domain)}")
        # type(), not isinstance: a JSON true is a bool, which is an int subclass
        lengths = (self.min_len, self.max_len)
        if any(type(x) is not int for x in lengths) or not 1 <= self.min_len <= self.max_len:
            raise ValueError(f"need integers 1 <= min_len <= max_len, not {clipped(lengths)}")
        if self.max_len > MAX_LINES:
            raise ValueError(f"max_len {clipped(self.max_len)} is above {MAX_LINES}, the longest "
                             "instruction an episode may have")
        if self.flow not in FLOW_FILTERS:
            raise ValueError(f"unknown flow filter {clipped(self.flow)}")
        # each domain refuses the other's field, which its generator would ignore
        if self.domain == STARCRAFT and self.flow != "any":
            raise ValueError(f"flow={clipped(self.flow)} applies to the minecraft domain only")
        if self.domain == MINECRAFT and self.max_depth is not None:
            raise ValueError(
                f"max_depth={clipped(self.max_depth)} applies to the starcraft domain only")
        if self.domain == MINECRAFT and self.disruptions is False:
            raise ValueError("disruptions=False applies to the starcraft domain only")
        if self.flow == "multi" and self.max_len < MULTI_MIN_LINES:
            raise ValueError(
                f"no instruction matching flow='multi' fits in {self.max_len} lines; "
                f"it needs at least {MULTI_MIN_LINES}"
            )
        longest = LONGJUMP_MAX_BLOCK + LONGJUMP_FRAME_LINES
        if self.flow == "longjump" and not (
            LONGJUMP_FRAME_LINES < self.min_len and self.max_len <= longest
        ):
            raise ValueError(
                "flow='longjump' needs "
                f"{LONGJUMP_FRAME_LINES + 1} <= min_len <= max_len <= {longest}"
            )
        if self.max_depth is not None and (type(self.max_depth) is not int or self.max_depth < 1):
            raise ValueError(f"need an integer max_depth >= 1, not {clipped(self.max_depth)}")
        if type(self.disruptions) is not bool:
            raise ValueError(f"disruptions must be true or false, not {clipped(self.disruptions)}")


# --- policies --------------------------------------------------------------------


class Policy:
    """Per-episode behaviour: observe, then emit the next command token.

    ``reset`` receives the freshly spawned world.  ``act`` receives the
    current observation plus the world handle; ground-truth policies may
    read privileged world state, learned-agent stand-ins should not.
    A policy whose ``reads_observation`` is False receives None instead of
    the observation, which then is never built.
    """

    reads_observation = True

    def reset(self, world) -> None:  # pragma: no cover - trivial default
        pass

    def act(self, observation, world):
        raise NotImplementedError


class OracleMinecraftPolicy(Policy):
    """Issues exactly the subtask the instruction currently demands."""

    reads_observation = False

    def act(self, observation, world) -> Command:
        line = world.required_subtask()
        return Command(line.verb, line.target)


def _head_plan(tree, required, alive_buildings, alive_units: dict) -> list:
    """``sc_plan`` for the first required unit not alive, whose commands lead
    the plan for all of ``required``; empty when every one is alive."""
    first = next((i for i, unit in enumerate(required) if alive_units.get(unit, 0) <= 0),
                 len(required))
    return sc_plan(tree, required[first:first + 1], alive_buildings, alive_units)


class OracleStarcraftPolicy(Policy):
    """Plans from the world's true technology tree and never emits no-ops.

    Builds are serial: while a construction is in flight the policy walks
    a spare probe in place, which is always a legal command.  Training
    runs as soon as the producer is alive.
    """

    reads_observation = False

    def __init__(self):
        self.queue: List[ActionToken] = []

    def reset(self, world) -> None:
        self.queue = []

    def act(self, observation, world) -> ActionToken:
        if not self.queue:
            self.queue = self._decide(world)
        return self.queue.pop(0)

    def _decide(self, world) -> List[ActionToken]:
        tokens, grid = starcraft.TOKENS, world.grid
        plan = _head_plan(world.tree, world.required, grid.values(), world.units)
        if plan:
            head = plan[0]
            if head.op == "build":
                if not world.pending_build:
                    empty = next((i for i, cell in enumerate(starcraft.CELLS)
                                  if cell not in grid), None)
                    if empty is not None:
                        return [
                            tokens["select_probe"][0],
                            tokens["select_building"][head.ident],
                            tokens["select_coord"][empty],
                        ]
                # construction in flight or no room: wait
            else:  # train
                producer = world.tree.producer[head.ident]
                cell = min((cell for cell, b in grid.items() if b == producer), default=None)
                if cell is not None:
                    return [
                        tokens["select_coord"][starcraft.CELL_INDEX[cell]],
                        tokens["select_unit"][head.ident],
                    ]
                # producer still under construction: wait
        # waiting is a go-to of a spare probe onto its own cell
        idle_cell = world.probes[1]
        return [
            tokens["select_probe"][1],
            tokens["select_coord"][starcraft.CELL_INDEX[idle_cell]],
        ]


class _RandomPolicy(Policy):
    """Draws one of ``GROUPS`` uniformly, then one option of that group."""

    reads_observation = False
    GROUPS: tuple  # of option tuples, set by each domain's subclass

    def __init__(self, rng: Draws):
        self.rng = rng

    def act(self, observation, world):
        group = self.GROUPS[self.rng.integers(len(self.GROUPS))]
        # a group of one (commit) draws nothing: ``integers(1)`` is 0 without a draw
        return group[self.rng.integers(len(group))]


class RandomMinecraftPolicy(_RandomPolicy):
    GROUPS = tuple(tuple(Command(verb, target) for target in RESOURCES) for verb in VERBS)


class RandomStarcraftPolicy(_RandomPolicy):
    GROUPS = tuple(starcraft.TOKENS.values())


class ScriptedPointerPolicy(Policy):
    """A stand-in for pointer agents with a bounded movement range.

    Keeps its own pointer over the instruction.  Each step it tries to
    move the pointer to the line the world currently demands: with
    ``walk`` it steps at most ``max_jump`` lines per world step and idles
    while in transit; without ``walk`` it refuses any move larger than
    ``max_jump`` outright, so demands beyond its range strand it.  Idle
    steps issue an inspect that cannot complete the demanded subtask.
    """

    reads_observation = False

    def __init__(self, max_jump: int = 1, walk: bool = False):
        if max_jump < 1:
            raise ValueError("max_jump must be positive")
        self.max_jump = max_jump
        self.walk = walk
        self.pointer = 0

    def reset(self, world) -> None:
        self.pointer = 0

    def act(self, observation, world) -> Command:
        line = world.required_subtask()
        desired = world.pc
        if self.pointer != desired:
            gap = desired - self.pointer
            if abs(gap) <= self.max_jump:
                self.pointer = desired
            elif self.walk:
                step = self.max_jump if gap > 0 else -self.max_jump
                self.pointer += step
        if self.pointer == desired:
            return Command(line.verb, line.target)
        idle = "gold" if (line.verb, line.target) == ("inspect", "iron") else "iron"
        return Command("inspect", idle)


@dataclass(frozen=True)
class PolicySpec:
    """A policy checked once by its CLI name; ``build`` makes a fresh instance.

    Holds the parsed params of a ``scripted:`` policy, so a command reads
    its file once, not once per episode, and pool workers get it pickled.
    An unknown name, or a policy the domain cannot run, is a ValueError.
    """

    name: str
    domain: str
    max_jump: int = 1
    walk: bool = False

    def __post_init__(self):
        if self.domain not in (MINECRAFT, STARCRAFT):
            raise ValueError(f"unknown domain {clipped(self.domain)}")
        if not isinstance(self.name, str):
            raise ValueError(f"policy name {clipped(self.name)} is not a string")
        if self.name.startswith("scripted:"):
            if self.domain != MINECRAFT:
                raise ValueError("scripted pointer policies drive the minecraft domain")
        elif self.name not in ("oracle", "random"):
            raise ValueError(f"unknown policy {clipped(self.name)}")

    def build(self, seed: int) -> Policy:
        """A fresh policy for episode ``seed``; only ``random`` builds its "policy" substream."""
        if self.name == "oracle":
            return OracleMinecraftPolicy() if self.domain == MINECRAFT else OracleStarcraftPolicy()
        if self.name == "random":
            rng = draws(seed, "policy")
            return (
                RandomMinecraftPolicy(rng)
                if self.domain == MINECRAFT
                else RandomStarcraftPolicy(rng)
            )
        return ScriptedPointerPolicy(max_jump=self.max_jump, walk=self.walk)


def _read_scripted_params(path: str) -> dict:
    """``max_jump`` and ``walk`` from a scripted policy's params file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            params = json.load(handle)
    # ValueError: not JSON, not UTF-8, an over-long integer; RecursionError: nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise PolicyParamsError(f"cannot read policy params {path}: {exc}") from None
    if not isinstance(params, dict):
        raise PolicyParamsError(f"policy params {path} must hold a JSON object")
    unknown = sorted(params.keys() - {"max_jump", "walk"})
    if unknown:
        raise PolicyParamsError(f"policy params {path}: {clipped(unknown[0])} names no parameter")
    max_jump = params.get("max_jump", 1)
    # type(), not isinstance: a JSON true is a bool, which is an int subclass
    if type(max_jump) is not int or max_jump < 1:
        raise PolicyParamsError(
            f"policy params {path}: max_jump must be a positive integer, not {clipped(max_jump)}"
        )
    walk = params.get("walk", False)
    if not isinstance(walk, bool):
        raise PolicyParamsError(
            f"policy params {path}: walk must be true or false, not {clipped(walk)}")
    return {"max_jump": max_jump, "walk": walk}


def parse_policy(policy: Union[str, PolicySpec], domain: str) -> PolicySpec:
    """The PolicySpec for ``policy`` on ``domain``; a PolicySpec passes through.

    An unknown name, or a policy the domain cannot run, is a ValueError; a
    ``scripted:`` params file that cannot be read or holds bad keys or values
    is a PolicyParamsError.
    """
    if isinstance(policy, PolicySpec):
        if policy.domain != domain:
            raise ValueError(f"policy {policy.name!r} was parsed for {policy.domain}")
        return policy
    spec = PolicySpec(policy, domain)  # checks the name before any file is read
    if policy.startswith("scripted:"):
        return replace(spec, **_read_scripted_params(policy.split(":", 1)[1]))
    return spec


# --- episode running -----------------------------------------------------------


def generate_instructions(spec: EpisodeSpec, rng: Draws):
    """Candidate instructions for ``spec``, as (tree, instruction) pairs.

    Makes at most MAX_REGENERATIONS draws from ``rng`` and yields those
    that fit the spec.  ``tree`` is the starcraft technology tree, None on
    minecraft.  Starcraft build orders are drawn for a length budget and
    may come out shorter than ``spec.min_len``; those are skipped, and a
    GenerationError follows when every draw was skipped.
    """
    yielded = False
    for _ in range(MAX_REGENERATIONS):
        if spec.domain == MINECRAFT:
            yielded = True
            yield None, gen_minecraft(rng, (spec.min_len, spec.max_len), spec.flow)
            continue
        target = rng.integers(spec.min_len, spec.max_len + 1)
        tree, instruction = gen_starcraft(rng, target, spec.max_depth)
        if len(instruction) >= spec.min_len:
            yielded = True
            yield tree, instruction
    if not yielded:
        raise GenerationError(
            f"no {spec.domain} instruction of {spec.min_len}-{spec.max_len} lines "
            f"in {MAX_REGENERATIONS} draws; lower --min-len"
        )


def spawn_episode_world(spec: EpisodeSpec, seed: int):
    """Instruction plus placed world for (spec, seed), after retries.

    Raises GenerationError when no instruction of the spec's lengths was
    drawn, and SpawnInfeasible when no drawn instruction got a world.
    """
    gen_rng = draws(seed, "generation")
    spawn_rng = draws(seed, "spawning")
    disruption_rng = (draws(seed, "disruptions")
                      if spec.domain == STARCRAFT and spec.disruptions else None)
    for tree, instruction in generate_instructions(spec, gen_rng):
        try:
            if spec.flow == "longjump":
                return minecraft.spawn_longjump(spawn_rng, instruction, seed=seed)
            if spec.domain == MINECRAFT:
                return minecraft.spawn(spawn_rng, instruction, seed=seed)
            return starcraft.spawn(spawn_rng, tree, instruction,
                                   disruption_rng=disruption_rng, seed=seed)
        except SpawnInfeasible:
            continue
    raise SpawnInfeasible("no feasible (instruction, world) pair for this seed")


def _step_record(world, action, noop: Optional[bool], digest: bool) -> dict:
    """The step record of the step whose ``apply`` returned ``noop``; ``digest``
    is last, as replay names the first key that differs."""
    resolved = noop is not None
    return {"kind": "step", "t": world.step_count, "command": action.as_dict(),
            "reward": world.reward, "done": world.done, "cause": world.cause, "pc": world.pc,
            "resolved": resolved, "noop": resolved and noop,
            "digest": world.digest() if digest and resolved else None}


def _header_record(spec: EpisodeSpec, policy: str, seed: int, world) -> dict:
    instruction = {"text": world.instruction.text(), "encoded": world.instruction.encoded()}
    return {"v": TRACE_VERSION, "kind": "header", "seed": seed, "domain": spec.domain,
            "policy": policy, "spec": dict(vars(spec)), "instruction": instruction}


def _end_record(world, steps: int) -> dict:
    return {"kind": "end", "outcome": world.cause, "reward": world.reward, "steps": steps}


def _step_records(world, policy: Policy, record_digests: bool):
    """Run ``policy`` on ``world`` until the episode ends, yielding each step record."""
    policy.reset(world)
    reads_observation = policy.reads_observation
    while not world.done:
        action = policy.act(world.observe() if reads_observation else None, world)
        yield _step_record(world, action, world.apply(action), record_digests)


def drive_world(world, policy: Policy, record_digests: bool = True) -> List[dict]:
    """Run ``policy`` on ``world`` until the episode ends; returns its step records."""
    return list(_step_records(world, policy, record_digests))


def play_world(world, policy: Policy) -> None:
    """``drive_world`` without step records, for callers that read only the end."""
    policy.reset(world)
    reads_observation = policy.reads_observation
    while not world.done:
        world.apply(policy.act(world.observe() if reads_observation else None, world))


def run_episode(spec: EpisodeSpec, policy: Union[str, PolicySpec], seed: int,
                record_digests: bool = True) -> dict:
    """Deterministically generate, spawn and play one episode.

    ``policy`` is a PolicySpec or a policy name (parsed on every call).
    Returns the episode's trace records as ``{"header", "steps", "end"}``,
    the shape ``split_episodes`` reads back, less the episode number that
    ``write_traces`` adds; ``replay_episode`` verifies it as it is.
    """
    policy = parse_policy(policy, spec.domain)
    world = spawn_episode_world(spec, seed)
    steps = drive_world(world, policy.build(seed), record_digests)
    return {"header": _header_record(spec, policy.name, seed, world), "steps": steps,
            "end": _end_record(world, len(steps))}


def pool_workers(jobs: int, items: int) -> int:
    """Worker processes to run ``items`` tasks when ``jobs`` are asked for.

    Never more than there are tasks or CPUs: a forking pool starts every
    worker up front, so an unbounded count would fork that many processes.
    """
    return max(1, min(jobs, items, os.cpu_count() or 1))


def _run_chunk(fn, chunk) -> list:
    return [fn(item) for item in chunk]


def map_episodes(fn, items, jobs: int = 1):
    """Yield ``fn(item)`` for every item of the sequence ``items``, in order.

    With one worker (see ``pool_workers``) this runs in-process.  Otherwise
    slices of ``items`` go to a process pool, at most two per worker at a
    time, so the results held do not grow with the item count.  ``fn`` must
    then pickle (a module-level function, or a functools.partial of one),
    and so must the items and results.  A worker's exception is raised here
    at its item's position, after the results before it; slices not yet
    started are cancelled.
    """
    workers = pool_workers(jobs, len(items))
    if workers == 1:
        yield from map(fn, items)
        return
    # imported here: multiprocessing would add ~17 ms to every CLI start
    import multiprocessing
    import threading
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor

    # fork skips re-importing flowgrid in every worker, but is unsafe once
    # the calling process runs other threads
    forkable = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if forkable and threading.active_count() == 1 else "spawn"
    )
    # about four slices per worker even out the load; the cap bounds each result
    size = max(1, min(MAX_CHUNK, len(items) // (4 * workers)))
    pending = deque()
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        try:
            for start in range(0, len(items), size):
                pending.append(pool.submit(_run_chunk, fn, items[start:start + size]))
                if len(pending) > 2 * workers:
                    yield from pending.popleft().result()
            while pending:
                yield from pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


# --- trace files ------------------------------------------------------------------


_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@lru_cache(maxsize=1024)  # one entry per command: starcraft.TOKENS and 9 minecraft commands
def _command_json(items: tuple) -> str:
    return _dumps(dict(items))


# a step record's ten keys in sort order; its strings (kind, cause, hex digest)
# need no JSON escapes, its flags are bools, and t, reward and pc are ints
_STEP_LINE = ('{"cause":%s,"command":%s,"digest":%s,"done":%s,"kind":"%s","noop":%s,"pc":%s,'
              '"resolved":%s,"reward":%d,"t":%d}\n')


def _step_line(step: dict) -> str:
    """``_dumps(step) + "\\n"`` for a record with ``_step_record``'s keys and
    values, laid out directly; other keys, a flag that is not a bool, or a
    ``t``, ``reward`` or non-null ``pc`` that is not an int are a ValueError."""
    try:
        if len(step) == 10:
            cause, digest, pc = step["cause"], step["digest"], step["pc"]
            done, noop, resolved = step["done"], step["noop"], step["resolved"]
            reward, t = step["reward"], step["t"]
            # type(), not isinstance: True is an int, and %d would write it as 1
            if (type(done) is bool and type(noop) is bool and type(resolved) is bool
                    and type(reward) is int and type(t) is int
                    and (pc is None or type(pc) is int)):
                return _STEP_LINE % (
                    "null" if cause is None else '"%s"' % cause,
                    _command_json(tuple(step["command"].items())),
                    "null" if digest is None else '"%s"' % digest,
                    "true" if done else "false", step["kind"], "true" if noop else "false",
                    "null" if pc is None else pc, "true" if resolved else "false", reward, t)
    except KeyError:
        pass
    raise ValueError(f"not a step record of ten keys, bool flags and int counts: {step!r}")


def write_traces(handle: IO, episodes) -> None:
    """Write ``run_episode`` results as JSON lines (header, steps, end), adding
    each episode's position to its header and end records.  An episode is
    laid out whole before it is written, so a bad record writes none of it."""
    for index, episode in enumerate(episodes):
        handle.write("%s\n%s%s\n" % (
            _dumps(dict(episode["header"], episode=index)),
            "".join(map(_step_line, episode["steps"])),
            _dumps(dict(episode["end"], episode=index))))


def read_trace_records(handle: IO):
    """Yield the JSON object on each non-blank line of a trace file."""
    try:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            # ValueError: bad JSON, or an integer past Python's digit limit;
            # RecursionError: arrays or objects nested too deep
            except (ValueError, RecursionError) as exc:
                raise TraceFormatError(
                    f"line {line_number}: invalid JSON ({getattr(exc, 'msg', exc)})", line_number
                ) from None
            if not isinstance(record, dict):
                raise TraceFormatError(f"line {line_number}: not a JSON object", line_number)
            yield record
    except UnicodeDecodeError as exc:  # from reading ``handle``; text is decoded in blocks
        raise TraceFormatError(f"not UTF-8 text ({exc.reason})") from None


def split_episodes(records):
    """Group trace records into {header, steps, end} episodes.

    Yields each episode at its end record, so a trace is read one episode
    at a time.  An episode without an end record is a format error.
    """
    current = None
    number = 0
    for record in records:
        kind = record.get("kind")
        episode = record.get("episode", 0)
        if type(episode) is not int or episode < 0:  # not true, not 1.0, not "1"
            raise TraceFormatError(
                f"{clipped(kind)} record: episode {clipped(episode)} is not an int >= 0")
        if kind == "header":
            if current is not None:
                raise TraceFormatError(f"episode {number} has no end record")
            version = record.get("v")
            if type(version) is not int or version != TRACE_VERSION:  # not true, not 1.0
                raise TraceFormatError(f"unsupported trace version {clipped(version)}")
            current = {"header": record, "steps": [], "end": None}
        elif kind == "step":
            if current is None:
                raise TraceFormatError("step record outside an episode")
            current["steps"].append(record)
        elif kind == "end":
            if current is None:
                raise TraceFormatError("end record outside an episode")
            current["end"] = record
            yield current
            current = None
            number += 1
        else:
            raise TraceFormatError(f"unknown record kind {clipped(kind)}")
    if current is not None:
        raise TraceFormatError(f"episode {number} has no end record")


class _RecordedCommands(Policy):
    """Plays the commands of recorded step records in order."""

    reads_observation = False

    def __init__(self, action_type, steps: List[dict]):
        self.action_type, self.steps, self.played = action_type, steps, 0

    def act(self, observation, world):
        position, self.played = self.played, self.played + 1
        if position == len(self.steps):
            raise ReplayMismatch(f"world still running after {position} steps at the end record")
        try:
            return self.action_type(**self.steps[position]["command"])
        except (KeyError, TypeError, ValueError) as exc:  # cut as a bad header's is
            raise TraceFormatError(f"step {position}: bad step record: {exc!s:.300}") from None


def _compare(where: str, actual: dict, recorded: dict) -> None:
    """Raise TraceFormatError when the two records' keys differ, else ReplayMismatch
    on the first value that encodes differently; return when they encode alike.

    Encoded JSON tells apart what ``==`` does not: ``true`` from ``1``, ``2.0`` from ``2``.
    """
    if _dumps(actual) == _dumps(recorded):
        return
    odd = actual.keys() ^ recorded.keys()
    if odd:
        raise TraceFormatError(f"{where}: keys {clipped(sorted(odd))} are not in both records")
    key = next(key for key, value in actual.items() if _dumps(recorded[key]) != _dumps(value))
    if key == "instruction":
        raise ReplayMismatch("header instruction differs from the one its seed generates")
    if key == "digest" and recorded[key] is None:  # replay digests resolved steps only
        raise ReplayMismatch(f"{where}: resolved step has no digest")
    raise ReplayMismatch(
        f"{where}: {key} {clipped(actual[key])} != recorded {clipped(recorded[key])}")


def replay_episode(episode: dict, check_digests: bool = True):
    """Re-play a recorded episode's commands, yielding the live world once after
    spawn and again after each resolved step, for a caller to ``render()``.

    Each record that ``run_episode``'s loop and builders make must equal the
    recorded one, JSON types included, given the header's policy name and episode
    number: a key in only one is a TraceFormatError, any other difference a
    ReplayMismatch.
    Digests count when ``check_digests`` is set and the episode records any.
    """
    header = episode["header"]
    try:
        spec = EpisodeSpec(**header["spec"])
        seed = header["seed"]
        PolicySpec(header["policy"], spec.domain)
    except (KeyError, TypeError, ValueError) as exc:  # cut: a TypeError names a stray key whole
        raise TraceFormatError(f"bad episode header: {exc!s:.300}") from None
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TraceFormatError(f"bad episode header: seed {clipped(seed)} is not an integer")
    world = spawn_episode_world(spec, seed)
    numbered = {"episode": header["episode"]} if "episode" in header else {}
    _compare("header", dict(_header_record(spec, header["policy"], seed, world), **numbered),
             header)
    steps = episode["steps"]
    digested = check_digests and any(r.get("digest") is not None for r in steps)
    commands = _RecordedCommands(Command if spec.domain == MINECRAFT else ActionToken, steps)
    yield world
    for position, record in enumerate(_step_records(world, commands, digested)):
        recorded = steps[position]
        if not check_digests:
            record["digest"] = recorded.get("digest")
        # == first, as it is cheap; a step's values are scalars or a command that
        # its constructor checked, so equal values of equal types encode alike
        if record != recorded or any(type(recorded[key]) is not type(value)
                                     for key, value in record.items()):
            _compare(f"step {position}", record, recorded)
        if record["resolved"]:
            yield world
    if commands.played < len(steps):
        raise ReplayMismatch(f"step {commands.played}: recorded after the episode ended")
    _compare("end", dict(_end_record(world, len(steps)), **numbered), episode["end"])


# --- failure buffer ------------------------------------------------------------------


class FailureBuffer:
    """Seeds of failed episodes plus a success-rate tracker.

    ``update`` always folds the episode result into an exponential moving
    average of success and appends the seed on failure.  ``sample`` offers
    a buffered seed with probability scale * average (clipped to 1) when
    the buffer is non-empty.  Sequential by contract: each episode's seed
    depends on every earlier result, so one caller drives it in order.
    """

    def __init__(self, beta: float = 0.01, scale: float = 1.0):
        if not 0.0 < beta <= 1.0:
            raise ValueError("failure buffer beta must be in (0, 1]")
        if not (math.isfinite(scale) and scale >= 0.0):
            raise ValueError("failure buffer scale must be finite and non-negative")
        self.beta = beta
        self.scale = scale
        self.seeds: List[int] = []
        self.success_average = 0.0

    def update(self, seed: int, success: bool) -> None:
        self.success_average = (
            (1.0 - self.beta) * self.success_average + self.beta * (1.0 if success else 0.0)
        )
        if not success:
            self.seeds.append(seed)

    def retry_probability(self) -> float:
        if not self.seeds:
            return 0.0
        return min(1.0, self.scale * self.success_average)

    def sample(self, rng: Draws) -> Optional[int]:
        """A buffered seed to retry, or None to draw a fresh episode."""
        if self.seeds and rng.random() < self.retry_probability():
            return self.seeds[rng.integers(len(self.seeds))]
        return None
