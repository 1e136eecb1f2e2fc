"""Outside-in spans around flowgrid's public functions, for the traced run.

Wrappers replace names where callers look them up (module globals such as
``flowgrid.harness.gen_minecraft`` and class attributes such as
``MinecraftWorld.step``), so nothing inside ``src/`` changes.  Every wrapped
call appends one span ``(id, name, start, end, parent, episode, tag)`` to an
in-memory list.  Parent stacks are kept per thread; work that an executor
runs in a worker thread is parented to the span that submitted it.  The
spans are aggregated into per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
import time
from collections import Counter, defaultdict

# spans that start an episode; every span below one carries its id
EPISODE_SPANS = frozenset({"harness.run_episode", "harness.replay_episode"})

# per-layer metric names and units, in report order
LAYER_METRICS = (
    ("generators.gen.calls", "count"),
    ("generators.gen.self_s", "s"),
    ("harness.regenerations", "count"),
    ("minecraft.spawn.calls", "count"),
    ("minecraft.spawn.self_s", "s"),
    ("minecraft.spawn.infeasible", "count"),
    ("minecraft.spawn.accept_ratio", "ratio"),
    ("minecraft.static_check.calls", "count"),
    ("minecraft.static_check.self_s", "s"),
    ("minecraft.static_check.reject_ratio", "ratio"),
    ("minecraft.gate.calls", "count"),
    ("minecraft.gate.self_s", "s"),
    ("minecraft.gate.accept_ratio", "ratio"),
    ("minecraft.step.calls", "count"),
    ("minecraft.step.self_s", "s"),
    ("minecraft.step.in_gate_frac", "ratio"),
    ("minecraft.observe.calls", "count"),
    ("minecraft.observe.self_s", "s"),
    ("minecraft.digest.calls", "count"),
    ("minecraft.digest.self_s", "s"),
    ("minecraft.render.calls", "count"),
    ("minecraft.render.self_s", "s"),
    ("minecraft.clone.calls", "count"),
    ("starcraft.spawn.calls", "count"),
    ("starcraft.spawn.self_s", "s"),
    ("starcraft.step_token.calls", "count"),
    ("starcraft.step_token.self_s", "s"),
    ("starcraft.step_token.resolved_ratio", "ratio"),
    ("starcraft.noop_ratio", "ratio"),
    ("starcraft.observe.calls", "count"),
    ("starcraft.observe.self_s", "s"),
    ("starcraft.digest.calls", "count"),
    ("starcraft.digest.self_s", "s"),
    ("starcraft.render.calls", "count"),
    ("starcraft.render.self_s", "s"),
    ("starcraft.disruptions.attacks", "count"),
    ("starcraft.disruptions.ambushes", "count"),
    ("starcraft.disruptions.destroyed", "count"),
    ("interpreter.cf_step.calls", "count"),
    ("interpreter.cf_step.self_s", "s"),
    ("interpreter.sc_plan.calls", "count"),
    ("interpreter.sc_plan.self_s", "s"),
    ("instructions.encoded.calls", "count"),
    ("instructions.encoded.self_s", "s"),
    ("rngtools.substream.calls", "count"),
    ("rngtools.substream.self_s", "s"),
    ("harness.run_episode.calls", "count"),
    ("harness.run_episode.self_s", "s"),
    ("harness.run_episode.p50_ms", "ms"),
    ("harness.run_episode.p90_ms", "ms"),
    ("harness.drive_world.self_s", "s"),
    ("harness.act.calls", "count"),
    ("harness.act.self_s", "s"),
    ("harness.write_traces.self_s", "s"),
    ("harness.trace_bytes", "bytes"),
    ("harness.read_trace_records.self_s", "s"),
    ("harness.split_episodes.self_s", "s"),
    ("harness.replay_episode.self_s", "s"),
    ("evaluate.evaluate.self_s", "s"),
    ("evaluate.cpu_util", "ratio"),
    ("cli.self_s", "s"),
    ("pointer.scan_column.calls", "count"),
    ("pointer.scan_column.self_s", "s"),
    ("pointer.brute_force_oracle.self_s", "s"),
    ("pointer.scan_jacobian.self_s", "s"),
    ("pointer.finite_difference_jacobian.self_s", "s"),
)

# wall-clock metrics; every other layer metric is a count or a ratio of
# counts and must repeat exactly on the same inputs
TIMED_SUFFIXES = ("self_s", "_ms", "cpu_util")


def is_deterministic(name: str) -> bool:
    return not name.endswith(TIMED_SUFFIXES)


class Recorder:
    """Collects spans from wrapped calls; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """(span id, episode id) of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _open(self, name: str):
        stack = self._stack()
        parent, episode = stack[-1] if stack else (0, 0)
        sid = next(self._ids)
        if name in EPISODE_SPANS:
            episode = sid
        stack.append((sid, episode))
        return sid, parent, episode

    def _close(self, sid: int) -> None:
        stack = self._stack()
        if stack and stack[-1][0] == sid:
            stack.pop()
        else:  # a generator closed out of order
            stack[:] = [entry for entry in stack if entry[0] != sid]

    def call(self, name, fn, args=(), kwargs=None, pre=None, tag=None):
        """Run ``fn`` inside a span, labelled ``tag(result, args, kwargs, pre(args, kwargs))``."""
        kwargs = kwargs or {}
        state = pre(args, kwargs) if pre else None
        sid, parent, episode = self._open(name)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end = time.perf_counter()
            self._close(sid)
            self.spans.append((sid, name, start, end, parent, episode, type(exc).__name__))
            raise
        end = time.perf_counter()
        self._close(sid)
        label = tag(result, args, kwargs, state) if tag else None
        self.spans.append((sid, name, start, end, parent, episode, label))
        return result

    def _generator(self, name, fn, args, kwargs):
        # the span covers the generator from its first resumption to its end,
        # including whatever the consumer does between items
        sid, parent, episode = self._open(name)
        start = time.perf_counter()
        label = None
        try:
            yield from fn(*args, **kwargs)
        except BaseException as exc:
            label = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._close(sid)
            self.spans.append((sid, name, start, end, parent, episode, label))

    def run_under(self, parent, fn, args, kwargs):
        """Run ``fn`` on this thread as a child of ``parent`` (another thread's span)."""
        stack = self._stack()
        saved = list(stack)
        stack[:] = [parent] if parent else []
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    def wrap(self, owner, attr: str, name: str, pre=None, tag=None, generator=False):
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        recorder = self
        if generator:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return recorder._generator(name, original, args, kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return recorder.call(name, original, args, kwargs, pre, tag)
        setattr(owner, attr, wrapper)

    def traced_executor(self, base):
        """A subclass of executor ``base`` whose tasks inherit the submitter's span."""
        recorder = self

        class TracedExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(recorder.run_under, recorder.current(), fn, args, kwargs)

        return TracedExecutor


# --- tags ------------------------------------------------------------------------


def _result(result, args, kwargs, state):
    return bool(result)


def _step_outcome(result, args, kwargs, state):
    if result is None:
        return "open"
    return "noop" if result.noop else "command"


def _disruption(report, args, kwargs, state):
    return (bool(report.attack), bool(report.ambush), len(report.destroyed))


def _tell(args, kwargs):
    try:
        return args[0].tell()
    except (OSError, ValueError, AttributeError):
        return None


def _bytes_written(result, args, kwargs, state):
    end = _tell(args, kwargs)
    return None if state is None or end is None else end - state


def _cpu_now(args, kwargs):
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system, time.perf_counter()


def _cpu_util(result, args, kwargs, state):
    cpu0, wall0 = state
    cpu1, wall1 = _cpu_now(args, kwargs)
    jobs = args[5] if len(args) > 5 else kwargs.get("jobs", 1)
    wall = wall1 - wall0
    return (cpu1 - cpu0) / (wall * jobs) if wall > 0 else 0.0


def install(recorder: Recorder) -> None:
    """Wrap the public functions of every flowgrid module the CLI reaches."""
    from flowgrid import cli, evaluate, harness, instructions, minecraft, pointer, starcraft

    w = recorder.wrap
    w(harness, "gen_minecraft", "generators.gen")
    w(harness, "gen_starcraft", "generators.gen")
    w(harness, "spawn_episode_world", "harness.spawn_episode_world")
    w(minecraft, "spawn", "minecraft.spawn")
    w(minecraft, "required_stream_feasible", "minecraft.static_check", tag=_result)
    w(minecraft, "oracle_completes", "minecraft.gate", tag=_result)
    w(minecraft, "cf_step", "interpreter.cf_step")
    for method in ("step", "observe", "digest", "render", "clone"):
        w(minecraft.MinecraftWorld, method, f"minecraft.{method}")
    w(starcraft, "spawn", "starcraft.spawn")
    w(starcraft, "sc_plan", "interpreter.sc_plan")
    w(starcraft.StarcraftWorld, "step_token", "starcraft.step_token", tag=_step_outcome)
    for method in ("observe", "digest", "render"):
        w(starcraft.StarcraftWorld, method, f"starcraft.{method}")
    w(starcraft.StarcraftWorld, "roll_disruptions", "starcraft.roll_disruptions",
      tag=_disruption)
    w(harness, "sc_plan", "interpreter.sc_plan")
    w(instructions.Instruction, "encoded", "instructions.encoded")
    for module in (harness, cli, evaluate):
        w(module, "substream", "rngtools.substream")
    w(cli, "run_episode", "harness.run_episode")
    w(evaluate, "run_episode", "harness.run_episode")
    w(harness, "drive_world", "harness.drive_world")
    for policy in (
        harness.OracleMinecraftPolicy,
        harness.OracleStarcraftPolicy,
        harness.RandomMinecraftPolicy,
        harness.RandomStarcraftPolicy,
        harness.ScriptedPointerPolicy,
    ):
        w(policy, "act", "harness.act")
    w(cli, "write_traces", "harness.write_traces", pre=_tell, tag=_bytes_written)
    w(cli, "read_trace_records", "harness.read_trace_records")
    w(cli, "split_episodes", "harness.split_episodes")
    w(cli, "replay_episode", "harness.replay_episode", generator=True)
    w(evaluate, "evaluate", "evaluate.evaluate", pre=_cpu_now, tag=_cpu_util)
    evaluate.ThreadPoolExecutor = recorder.traced_executor(evaluate.ThreadPoolExecutor)
    for name in ("scan_column", "brute_force_oracle", "scan_jacobian",
                 "finite_difference_jacobian"):
        w(pointer, name, f"pointer.{name}")


# --- aggregation -----------------------------------------------------------------


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children from several threads may overlap each other; their union is
    subtracted, clipped to the parent's interval.
    """
    children = defaultdict(list)
    for sid, _name, start, end, parent, _episode, _tag in spans:
        if parent:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _episode, _tag in spans:
        covered = 0.0
        run_start = run_end = None
        for child_start, child_end in sorted(children.get(sid, ())):
            child_start, child_end = max(child_start, start), min(child_end, end)
            if child_end <= child_start:
                continue
            if run_end is None or child_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = child_start, child_end
            else:
                run_end = max(run_end, child_end)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (end - start) - covered
    return out


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics (see LAYER_METRICS) from one traced CLI call."""
    selfs = self_times(spans)
    calls = Counter()
    self_s = defaultdict(float)
    tags = defaultdict(Counter)
    names = {}
    episode_ms = []
    utils = []
    for sid, name, start, end, parent, _episode, tag in spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        names[sid] = (name, parent)
        if tag is not None:
            tags[name][tag] += 1
        if name == "harness.run_episode":
            episode_ms.append(1000.0 * (end - start))
        elif name == "evaluate.evaluate" and tag is not None:
            utils.append(tag)

    def in_gate(parent):
        while parent:
            name, parent = names.get(parent, (None, 0))
            if name == "minecraft.gate":
                return True
        return False

    steps_in_gate = sum(
        1 for sid, (name, parent) in names.items()
        if name == "minecraft.step" and in_gate(parent)
    )
    episode_ms.sort()
    if len(episode_ms) >= 2:
        deciles = statistics.quantiles(episode_ms, n=10)
        p50, p90 = statistics.median(episode_ms), deciles[8]
    else:
        p50 = p90 = episode_ms[0] if episode_ms else 0.0
    disruptions = tags["starcraft.roll_disruptions"]
    step_tags = tags["starcraft.step_token"]
    resolved = step_tags["command"] + step_tags["noop"]
    spawns = calls["minecraft.spawn"]
    infeasible = tags["minecraft.spawn"]["SpawnInfeasible"]

    out = {}
    for name, _unit in LAYER_METRICS:
        head, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls[head]
        elif stat == "self_s":
            out[name] = self_s[head]
    out.update({
        "harness.regenerations": calls["generators.gen"] - calls["harness.spawn_episode_world"],
        "minecraft.spawn.infeasible": infeasible,
        "minecraft.spawn.accept_ratio": _ratio(spawns - infeasible,
                                               calls["minecraft.static_check"]),
        "minecraft.static_check.reject_ratio": _ratio(
            tags["minecraft.static_check"][False], calls["minecraft.static_check"]),
        "minecraft.gate.accept_ratio": _ratio(
            tags["minecraft.gate"][True], calls["minecraft.gate"]),
        "minecraft.step.in_gate_frac": _ratio(steps_in_gate, calls["minecraft.step"]),
        "starcraft.step_token.resolved_ratio": _ratio(resolved, calls["starcraft.step_token"]),
        "starcraft.noop_ratio": _ratio(step_tags["noop"], resolved),
        "starcraft.disruptions.attacks": sum(n for (a, _, _), n in disruptions.items() if a),
        "starcraft.disruptions.ambushes": sum(n for (_, b, _), n in disruptions.items() if b),
        "starcraft.disruptions.destroyed": sum(d * n for (_, _, d), n in disruptions.items()),
        "harness.run_episode.p50_ms": p50,
        "harness.run_episode.p90_ms": p90,
        "harness.trace_bytes": sum(t * n for t, n in tags["harness.write_traces"].items()),
        "evaluate.cpu_util": statistics.median(utils) if utils else 0.0,
    })
    return out

