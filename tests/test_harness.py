"""Episode orchestration: determinism, traces, replay, the failure buffer."""

import ast
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid.errors import PolicyParamsError, ReplayMismatch, TraceFormatError
from flowgrid.harness import (
    EpisodeSpec,
    FailureBuffer,
    OracleMinecraftPolicy,
    OracleStarcraftPolicy,
    PolicySpec,
    ScriptedPointerPolicy,
    drive_world,
    map_episodes,
    parse_policy,
    play_world,
    pool_workers,
    read_trace_records,
    replay_episode,
    run_episode,
    spawn_episode_world,
    split_episodes,
    write_traces,
)
from flowgrid import harness
from flowgrid.evaluate import evaluate, longjump_sweep, write_csv
from flowgrid.generators import gen_build_tree, gen_longjump
from flowgrid.instructions import N_BUILDINGS, N_UNITS, RESOURCES, VERBS
from flowgrid.interpreter import sc_plan
from flowgrid.minecraft import Command, spawn_longjump
from flowgrid.rngtools import draws
from flowgrid.starcraft import TOKENS


def trace_bytes(traces) -> bytes:
    buf = io.StringIO()
    write_traces(buf, traces)
    return buf.getvalue().encode("utf-8")


def sorted_json_line(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


MC_SPEC = EpisodeSpec(domain="minecraft", min_len=2, max_len=8)
SC_SPEC = EpisodeSpec(domain="starcraft", min_len=2, max_len=8)


# --- determinism --------------------------------------------------------------------


def test_same_seed_same_trace_bytes():
    for spec in (MC_SPEC, SC_SPEC):
        first = [run_episode(spec, "oracle", seed) for seed in (3, 4)]
        second = [run_episode(spec, "oracle", seed) for seed in (3, 4)]
        assert trace_bytes(first) == trace_bytes(second)


def test_different_streams_are_isolated():
    # drawing policy randomness must not perturb the generated world
    a = run_episode(MC_SPEC, "oracle", 77)
    b = run_episode(MC_SPEC, "random", 77)
    assert a["header"]["instruction"]["text"] == b["header"]["instruction"]["text"]


def test_random_policy_is_seeded_by_policy_stream():
    a = run_episode(SC_SPEC, "random", 5)
    b = run_episode(SC_SPEC, "random", 5)
    assert trace_bytes([a]) == trace_bytes([b])


def test_outcomes_and_rewards_recorded():
    trace = run_episode(MC_SPEC, "oracle", 12)
    assert trace["end"]["outcome"] == "success" and trace["end"]["reward"] == 1
    if trace["steps"]:
        assert trace["steps"][-1]["done"]
        assert sum(s["reward"] for s in trace["steps"]) == 1


# --- episode runner ------------------------------------------------------------------


def test_pool_workers_is_bounded_by_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert pool_workers(1, 100) == 1
    assert pool_workers(3, 100) == 3
    assert pool_workers(5000, 100) == 4
    assert pool_workers(5000, 2) == 2
    assert pool_workers(8, 0) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool_workers(8, 100) == 1


@pytest.mark.parametrize("busy_thread", [False, True], ids=["fork", "spawn"])
def test_map_episodes_yields_in_item_order(busy_thread):
    items = list(range(-20, 20))
    release = threading.Event()
    helper = threading.Thread(target=release.wait, args=(30,))
    if busy_thread:  # another thread alive rules out fork
        helper.start()
    try:
        assert list(map_episodes(abs, items, jobs=2)) == [abs(i) for i in items]
    finally:
        release.set()
        if busy_thread:
            helper.join(timeout=30)
    assert not helper.is_alive()


# --- trace files --------------------------------------------------------------------


def test_trace_round_trip():
    for spec in (MC_SPEC, SC_SPEC):
        traces = [run_episode(spec, "oracle", 21), run_episode(spec, "random", 22)]
        blob = trace_bytes(traces).decode("utf-8")
        episodes = list(split_episodes(read_trace_records(io.StringIO(blob))))
        assert len(episodes) == 2
        for index, (original, episode) in enumerate(zip(traces, episodes)):
            assert episode == dict(original, header=dict(original["header"], episode=index),
                                   end=dict(original["end"], episode=index))
            assert episode["header"]["seed"] == 21 + index
            assert episode["end"]["outcome"] == original["end"]["outcome"]
            assert len(episode["steps"]) == len(original["steps"])


# every command a step record can hold: each starcraft token and minecraft command
COMMANDS = [token.as_dict() for tokens in TOKENS.values() for token in tokens] + [
    Command(verb, target).as_dict() for verb in VERBS for target in RESOURCES]
STEP_RECORDS = st.fixed_dictionaries({
    "kind": st.just("step"),
    "t": st.integers(0, 10**6),
    "command": st.sampled_from(COMMANDS),
    "reward": st.sampled_from([0, 1]),
    "done": st.booleans(),
    "cause": st.sampled_from([None, "success", "timeout", "out_of_order"]),
    "pc": st.none() | st.integers(0, 10**3),
    "resolved": st.booleans(),
    "noop": st.booleans(),
    "digest": st.none() | st.text("0123456789abcdef", min_size=16, max_size=16),
})
HEADER = {"kind": "header", "v": 1, "seed": 5, "policy": "oracle"}
END = {"kind": "end", "outcome": None, "reward": 0}


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(STEP_RECORDS, max_size=6))
def test_written_step_lines_are_sorted_json(steps):
    written = trace_bytes([{"header": HEADER, "steps": steps, "end": END}]).decode("utf-8")
    assert written == "".join([sorted_json_line(dict(HEADER, episode=0)),
                               *map(sorted_json_line, steps),
                               sorted_json_line(dict(END, episode=0))])


@settings(max_examples=100, deadline=None)
@given(step=STEP_RECORDS, edit=st.sampled_from(["missing", "extra", "renamed"]), data=st.data())
def test_a_step_record_with_other_keys_is_refused_and_nothing_written(step, edit, data):
    step = dict(step)
    if edit != "extra":
        value = step.pop(data.draw(st.sampled_from(sorted(step))))
    if edit != "missing":
        step["step" if edit == "extra" else "time"] = value if edit == "renamed" else 0
    buf = io.StringIO()
    with pytest.raises(ValueError, match="not a step record"):
        write_traces(buf, [{"header": HEADER, "steps": [step], "end": END}])
    assert buf.getvalue() == ""


# values of another JSON type that equal a right one in Python: 1 == True, 0 == False
@pytest.mark.parametrize("key, value", [
    *((flag, value) for flag in ("done", "noop", "resolved") for value in (0, 1, None, "true")),
    *((count, value) for count in ("t", "reward") for value in (True, False, 1.0, None, "1")),
    ("pc", True), ("pc", 2.0), ("pc", "2"),
])
def test_a_step_value_of_another_type_is_refused_and_nothing_written(key, value):
    step = {"kind": "step", "t": 1, "command": COMMANDS[0], "reward": 0, "done": False,
            "cause": None, "pc": 0, "resolved": True, "noop": False, "digest": None}
    write_traces(io.StringIO(), [{"header": HEADER, "steps": [step], "end": END}])  # as written
    step[key] = value
    buf = io.StringIO()
    with pytest.raises(ValueError, match="not a step record"):
        write_traces(buf, [{"header": HEADER, "steps": [step], "end": END}])
    assert buf.getvalue() == ""


@pytest.mark.parametrize("spec, policy", [
    (MC_SPEC, "oracle"), (MC_SPEC, "random"), (SC_SPEC, "oracle"), (SC_SPEC, "random"),
    (MC_SPEC, PolicySpec("scripted:p.json", "minecraft", max_jump=2, walk=True)),
])
def test_run_episode_result_replays_in_memory(spec, policy):
    stepped = 0
    for seed in range(61, 65):
        episode = run_episode(spec, policy, seed)
        assert list(replay_episode(episode))
        steps = episode["steps"]
        if not steps:  # the instruction was done at spawn
            continue
        stepped += 1
        last = len(steps) - 1
        edits = [(0, "t", steps[0]["t"] + 1), (last, "done", not steps[last]["done"]),
                 (last, "reward", 1 - steps[last]["reward"]),
                 (0, "resolved", not steps[0]["resolved"]), (0, "noop", not steps[0]["noop"])]
        if steps[last]["digest"] is not None:
            edits.append((last, "digest", "0" * 16))
        for position, key, value in edits:
            edited = list(steps)
            edited[position] = dict(steps[position], **{key: value})
            with pytest.raises(ReplayMismatch):
                list(replay_episode(dict(episode, steps=edited)))
        assert list(replay_episode(episode))  # the edits copied, the original still holds
    assert stepped >= 2


def test_read_trace_reports_bad_line_number():
    with pytest.raises(TraceFormatError) as err:
        list(read_trace_records(io.StringIO('{"kind":"header"}\nnot json\n')))
    assert err.value.line_number == 2


def test_split_rejects_orphan_records():
    with pytest.raises(TraceFormatError):
        list(split_episodes([{"kind": "step"}]))
    with pytest.raises(TraceFormatError):
        list(split_episodes([{"kind": "mystery"}]))
    with pytest.raises(TraceFormatError):
        list(split_episodes([{"kind": "header", "v": 99}]))


def test_replay_verifies_recorded_episodes():
    for spec, seed in ((MC_SPEC, 31), (SC_SPEC, 32)):
        trace = run_episode(spec, "oracle", seed)
        blob = trace_bytes([trace]).decode("utf-8")
        episode = next(split_episodes(read_trace_records(io.StringIO(blob))))
        frames = list(replay_episode(episode))
        assert len(frames) >= 1


def test_replay_detects_tampering():
    trace = run_episode(MC_SPEC, "oracle", 33)
    if not trace["steps"]:
        trace = run_episode(MC_SPEC, "oracle", 34)
    assert trace["steps"]
    blob = trace_bytes([trace]).decode("utf-8")
    lines = blob.splitlines()
    tampered = []
    for line in lines:
        record = json.loads(line)
        if record.get("kind") == "step" and record.get("digest"):
            record["digest"] = "0" * 16
            tampered.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        else:
            tampered.append(line)
    episode = next(split_episodes(read_trace_records(io.StringIO("\n".join(tampered)))))
    with pytest.raises(ReplayMismatch):
        list(replay_episode(episode))


def test_replay_flags_outcome_divergence():
    trace = run_episode(MC_SPEC, "oracle", 35)
    blob = trace_bytes([trace]).decode("utf-8")
    lines = blob.splitlines()
    swapped = []
    for line in lines:
        record = json.loads(line)
        if record.get("kind") == "end":
            record["outcome"] = "timeout"
        if record.get("kind") == "step":
            record["digest"] = None
        swapped.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    episode = next(split_episodes(read_trace_records(io.StringIO("\n".join(swapped)))))
    with pytest.raises(ReplayMismatch):
        list(replay_episode(episode))


def _replay_records(records) -> None:
    """Replay a trace given as its decoded JSON records, checking digests."""
    blob = "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)
    for episode in split_episodes(read_trace_records(io.StringIO(blob))):
        for _ in replay_episode(episode):
            pass


# one edit per recomputed step field, each unequal to the value under ``==``
_STEP_EDITS = {
    "t": lambda v: v + 1,
    "reward": lambda v: v + 1,
    "done": lambda v: not v,
    "cause": lambda v: "timeout" if v == "success" else "success",
    "pc": lambda v: 0 if v is None else v + 1,
    "resolved": lambda v: not v,
    "noop": lambda v: not v,
}


@settings(max_examples=40, deadline=None)
@given(
    spec_policy=st.sampled_from([
        (MC_SPEC, "oracle"),
        (MC_SPEC, "random"),
        (MC_SPEC, PolicySpec("scripted:params.json", "minecraft", max_jump=2, walk=True)),
        (SC_SPEC, "oracle"),
        (SC_SPEC, "random"),
    ]),
    seed=st.integers(0, 2**32),
    digests=st.booleans(),
    data=st.data(),
)
def test_replay_round_trips_and_rejects_any_one_field_edit(spec_policy, seed, digests, data):
    spec, policy = spec_policy
    trace = run_episode(spec, policy, seed, record_digests=digests)
    records = [json.loads(line) for line in trace_bytes([trace]).decode("utf-8").splitlines()]
    _replay_records(records)
    unknown = [dict(r) for r in records]  # one record gains a key no record of its kind has
    data.draw(st.sampled_from(unknown))["unknown"] = 0
    with pytest.raises(TraceFormatError):
        _replay_records(unknown)
    steps = [r for r in records if r["kind"] == "step"]
    if not steps:  # the world was done at spawn
        return
    # the command is left out: two stalled minecraft commands leave the same state
    edits = dict(_STEP_EDITS, digest=lambda v: "1" * 16 if v == "0" * 16 else "0" * 16)
    name = data.draw(st.sampled_from(sorted(edits if digests else _STEP_EDITS)))
    step = data.draw(st.sampled_from(steps))
    edited = edits[name](step[name])
    assert edited != step[name]
    step[name] = edited
    with pytest.raises(ReplayMismatch):
        _replay_records(records)


def _noqa_imports(src_dir):
    """(module, name) for each ``# noqa: F401`` import in the modules of ``src_dir``."""
    found = []
    for filename in sorted(os.listdir(src_dir)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(src_dir, filename), encoding="utf-8") as handle:
            source = handle.read()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]
            ):
                found += [(filename[:-3], alias.asname or alias.name) for alias in node.names]
    return found


_INSTALL_SPANS = """
import importlib, json, sys
import spans
names = [tuple(pair) for pair in json.loads(sys.argv[1])]
before = {pair: getattr(importlib.import_module("flowgrid." + pair[0]), pair[1]) for pair in names}
spans.install(spans.Recorder())
kept = [".".join(pair) for pair, value in before.items()
        if getattr(importlib.import_module("flowgrid." + pair[0]), pair[1]) is value]
if kept:
    sys.exit(f"imported only for the benchmark, but not patched by it: {kept}")
"""


def test_benchmark_spans_install_finds_every_name_it_wraps():
    """bench/spans.py wraps flowgrid names by getattr, so a rename breaks ``--trace 1``.

    A ``# noqa: F401`` import in ``src/`` exists only for the benchmark to patch, so
    each must be replaced by ``spans.install``; one left unpatched is dead code.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(os.path.join(root, d) for d in ("src", "bench"))
    names = _noqa_imports(os.path.join(root, "src", "flowgrid"))
    assert names  # the parse found the imports the benchmark patches
    result = subprocess.run(
        [sys.executable, "-c", _INSTALL_SPANS, json.dumps(names)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_a_starcraft_oracle_episode_calls_the_names_the_benchmark_times(monkeypatch):
    """bench/spans.py times the oracle's planning at ``harness.sc_plan`` and the digest
    at ``StarcraftWorld.digest``; an episode that stops calling either would read 0."""
    calls = {"sc_plan": 0, "digest": 0}

    def counting(name, fn):
        def stand_in(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return stand_in

    monkeypatch.setattr(harness, "sc_plan", counting("sc_plan", harness.sc_plan))
    monkeypatch.setattr(harness.starcraft.StarcraftWorld, "digest",
                        counting("digest", harness.starcraft.StarcraftWorld.digest))
    steps = run_episode(SC_SPEC, "oracle", 0)["steps"]
    assert calls["sc_plan"] > 0
    assert calls["digest"] == sum(step["digest"] is not None for step in steps) > 0


# --- policies -----------------------------------------------------------------------


def test_make_policy_names():
    assert isinstance(parse_policy("oracle", "minecraft").build(0), OracleMinecraftPolicy)
    assert isinstance(
        parse_policy("oracle", "starcraft").build(0), OracleStarcraftPolicy
    )
    with pytest.raises(ValueError):
        parse_policy("clairvoyant", "minecraft").build(0)


@pytest.mark.parametrize("name, domain", [
    ("oracel", "starcraft"), ("scripted:p.json", "starcraft"),
    (None, "minecraft"), (3, "minecraft"), (["oracle"], "minecraft"),  # not a string
])
def test_policy_spec_refuses_what_parse_policy_refuses(name, domain):
    with pytest.raises(ValueError):
        PolicySpec(name, domain)
    assert isinstance(PolicySpec("scripted:p.json", "minecraft").build(0), ScriptedPointerPolicy)


def test_parsed_policy_builds_fresh_instances(tmp_path):
    params = tmp_path / "p.json"
    params.write_text('{"max_jump": 4, "walk": true}')
    spec = parse_policy(f"scripted:{params}", "minecraft")
    assert spec == PolicySpec(f"scripted:{params}", "minecraft", max_jump=4, walk=True)
    params.unlink()  # parsed once: building needs the file no more
    first, second = spec.build(0), spec.build(0)
    assert first is not second
    assert (first.max_jump, first.walk) == (4, True)
    assert parse_policy(spec, "minecraft") is spec
    with pytest.raises(ValueError):
        parse_policy(spec, "starcraft")
    with pytest.raises(PolicyParamsError):
        parse_policy(f"scripted:{params}", "minecraft")


def test_scripted_policy_stuck_beyond_reach():
    rng = draws(41, "scripted")
    instruction = gen_longjump(rng, block_len=12)
    world = spawn_longjump(rng, instruction, seed=41)
    policy = ScriptedPointerPolicy(max_jump=3, walk=False)
    drive_world(world, policy, record_digests=False)
    assert world.cause == "timeout"


def test_scripted_policy_walks_into_reach():
    rng = draws(42, "scripted-walk")
    instruction = gen_longjump(rng, block_len=12)
    world = spawn_longjump(rng, instruction, seed=42)
    policy = ScriptedPointerPolicy(max_jump=3, walk=True)
    drive_world(world, policy, record_digests=False)
    assert world.cause == "success"


def test_scripted_policy_large_jump_succeeds_directly():
    results = longjump_sweep("oracle", block_lens=(5,), episodes_each=4, base_seed=9)
    assert results[0].success_rate == 1.0


def test_longjump_sweep_refuses_jobs_below_one():
    with pytest.raises(ValueError, match="jobs"):
        longjump_sweep("oracle", block_lens=(1,), episodes_each=1, jobs=0)


def _csv(results) -> str:
    buf = io.StringIO()
    write_csv(buf, results)
    return buf.getvalue()


def test_eval_builds_no_step_records(monkeypatch):
    """eval and the long-jump sweep play without step records; rows as recorded before."""

    def refuse(*args):
        raise AssertionError("eval built a step record")

    monkeypatch.setattr(harness, "_step_record", refuse)
    head = "bin_lo,bin_hi,episodes,success_rate,stderr,timeouts,out_of_order\n"
    sc = EpisodeSpec(domain="starcraft")
    assert _csv(evaluate(sc, "random", bins=[(1, 10)], episodes_per_bin=40, jobs=1)) == (
        head + "1,10,40,0.025000,0.024686,39,0\n")
    assert _csv(evaluate(sc, "oracle", bins=[(1, 4)], episodes_per_bin=6, base_seed=3)) == (
        head + "1,4,6,1.000000,0.000000,0,0\n")
    mc = EpisodeSpec(domain="minecraft")
    assert _csv(evaluate(mc, "random", bins=[(1, 4), (5, 8)], episodes_per_bin=6, base_seed=3,
                         jobs=1)) == head + "1,4,6,0.000000,0.000000,0,6\n5,8,6,0.333333,0.192450,0,4\n"
    scripted = PolicySpec("scripted:p.json", "minecraft", max_jump=4)
    assert _csv(longjump_sweep(scripted, block_lens=(2, 3), episodes_each=3, base_seed=3,
                               jobs=1)) == head + "2,2,3,1.000000,0.000000,0,0\n3,3,3,0.000000,0.000000,3,0\n"
    assert _csv(longjump_sweep("random", block_lens=(1,), episodes_each=6, base_seed=3,
                               jobs=1)) == head + "1,1,6,0.166667,0.152145,0,5\n"


@settings(max_examples=40, deadline=None)
@given(
    domain=st.sampled_from(["minecraft", "starcraft"]),
    policy_name=st.sampled_from(["oracle", "random", "scripted"]),
    max_jump=st.integers(1, 4),
    walk=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_play_world_ends_where_drive_world_does(domain, policy_name, max_jump, walk, seed):
    if policy_name == "scripted":
        policy = PolicySpec("scripted:p.json", "minecraft", max_jump=max_jump, walk=walk)
        domain = "minecraft"
    else:
        policy = parse_policy(policy_name, domain)
    ends = []
    for play in (drive_world, play_world):
        world = spawn_episode_world(EpisodeSpec(domain=domain, min_len=2, max_len=8), seed)
        play(world, policy.build(seed))
        ends.append((world.cause, world.reward, world.step_count, world.digest()))
    assert ends[0] == ends[1]


@settings(max_examples=300, deadline=None)
@given(
    tree_seed=st.integers(0, 2**32),
    max_depth=st.none() | st.integers(1, 6),
    required=st.lists(st.integers(0, N_UNITS - 1), max_size=N_UNITS),
    # any subset may stand: a destroyed prerequisite under a standing building too
    buildings=st.lists(st.integers(0, N_BUILDINGS - 1)),
    # an ambushed unit has no entry, or a count of 0 in a hand-made world: not alive
    units=st.dictionaries(st.integers(0, N_UNITS - 1), st.integers(0, 3)),
)
def test_the_starcraft_oracle_plans_the_head_of_the_full_plan(
    tree_seed, max_depth, required, buildings, units
):
    tree = gen_build_tree(draws(tree_seed, "tree"), max_depth)
    required = tuple(required)
    full = sc_plan(tree, required, buildings, units)
    head = harness._head_plan(tree, required, buildings, units)
    assert bool(head) == bool(full)
    if full:
        assert head[0] == full[0]


def test_random_policies_emit_valid_actions():
    trace = run_episode(SC_SPEC, "random", 50)
    assert trace["end"]["outcome"] in ("success", "timeout")
    mc_trace = run_episode(MC_SPEC, "random", 51)
    assert mc_trace["end"]["outcome"] in ("success", "timeout", "out_of_order")


def _assert_same_observation(got, expected):
    for field in dataclasses.fields(expected):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert a == b


@pytest.mark.parametrize("reads", [True, False])
@pytest.mark.parametrize(
    "spec, oracle", [(MC_SPEC, OracleMinecraftPolicy), (SC_SPEC, OracleStarcraftPolicy)]
)
def test_policy_observation_is_built_only_when_read(spec, oracle, reads):
    class Observing(oracle):
        reads_observation = reads

        def act(self, observation, world):
            if reads:
                _assert_same_observation(observation, world.observe())
            else:
                assert observation is None
            self.calls += 1
            return super().act(observation, world)

    for seed in (6, 8):
        policy = Observing()
        policy.calls = 0
        steps = drive_world(spawn_episode_world(spec, seed), policy)
        reference = run_episode(spec, "oracle", seed)
        assert policy.calls >= len(steps)
        observed = dict(reference, steps=steps)
        assert trace_bytes([observed]) == trace_bytes([reference])


@settings(max_examples=40, deadline=None)
@given(
    domain=st.sampled_from(["minecraft", "starcraft"]),
    policy_name=st.sampled_from(["oracle", "random"]),
    seed=st.integers(0, 2**32),
    steps=st.integers(0, 80),
)
def test_digest_is_hash_of_sorted_snapshot_json(domain, policy_name, seed, steps):
    world = spawn_episode_world(EpisodeSpec(domain=domain, min_len=2, max_len=8), seed)
    policy = parse_policy(policy_name, domain).build(seed)
    policy.reset(world)

    def check():
        blob = json.dumps(world.snapshot(), sort_keys=True, separators=(",", ":"))
        assert world.digest() == hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    check()
    for _ in range(steps):
        if world.done:
            break
        world.apply(policy.act(None, world))
        check()


# --- failure buffer -----------------------------------------------------------------


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_failure_buffer_refuses_a_scale_that_is_not_finite(scale):
    with pytest.raises(ValueError, match="finite"):
        FailureBuffer(scale=scale)


def test_failure_buffer_ema_closed_form():
    buffer = FailureBuffer(beta=0.25)
    outcomes = [True, False, True, True]
    for i, success in enumerate(outcomes):
        buffer.update(seed=i, success=success)
    expected = 0.0
    for success in outcomes:
        expected = 0.75 * expected + 0.25 * (1.0 if success else 0.0)
    assert buffer.success_average == pytest.approx(expected, abs=1e-15)
    assert buffer.seeds == [1]


def test_failure_buffer_empty_never_retries():
    buffer = FailureBuffer()
    buffer.success_average = 0.9
    rng = draws(0, "buffer")
    assert buffer.retry_probability() == 0.0
    assert all(buffer.sample(rng) is None for _ in range(100))


def test_failure_buffer_retry_rate_tracks_average():
    buffer = FailureBuffer(beta=0.01, scale=1.0)
    buffer.seeds = [7, 8, 9]
    buffer.success_average = 0.6
    rng = draws(1, "buffer-rate")
    n = 20_000
    hits = sum(buffer.sample(rng) is not None for _ in range(n))
    assert abs(hits / n - 0.6) < 4 * (0.6 * 0.4 / n) ** 0.5


def test_failure_buffer_scale_clips_to_one():
    buffer = FailureBuffer(scale=5.0)
    buffer.seeds = [1]
    buffer.success_average = 0.5
    assert buffer.retry_probability() == 1.0
    rng = draws(2, "buffer-clip")
    assert all(buffer.sample(rng) == 1 for _ in range(50))


def test_failure_buffer_samples_only_buffered_seeds():
    buffer = FailureBuffer(scale=10.0)
    for seed in (11, 12, 13):
        buffer.update(seed, success=False)
    buffer.update(99, success=True)
    rng = draws(3, "buffer-members")
    drawn = {buffer.sample(rng) for _ in range(200)}
    drawn.discard(None)
    assert drawn <= {11, 12, 13} and drawn


def test_failure_buffer_validation():
    with pytest.raises(ValueError):
        FailureBuffer(beta=0.0)
    with pytest.raises(ValueError):
        FailureBuffer(scale=-1.0)


# --- spec validation ----------------------------------------------------------------


def test_episode_spec_validation():
    with pytest.raises(ValueError):
        EpisodeSpec(domain="chess")
    with pytest.raises(ValueError):
        EpisodeSpec(domain="minecraft", min_len=5, max_len=2)
    # each domain's generator ignores the other's field
    with pytest.raises(ValueError, match="minecraft domain only"):
        EpisodeSpec(domain="starcraft", flow="single")
    with pytest.raises(ValueError, match="starcraft domain only"):
        EpisodeSpec(domain="minecraft", max_depth=2)


@pytest.mark.parametrize(
    "fields",
    [
        dict(domain="starcraft", min_len=4, max_len=10),
        dict(domain="minecraft", min_len=3, max_len=10),
        dict(domain="minecraft", min_len=4, max_len=44),
    ],
    ids=["starcraft", "length-3", "length-44"],
)
def test_episode_spec_refuses_longjump_off_its_range(fields):
    with pytest.raises(ValueError, match="longjump"):
        EpisodeSpec(flow="longjump", **fields)


def test_episode_spec_takes_longjump_lengths_4_to_43():
    assert EpisodeSpec("minecraft", 4, 43, flow="longjump").max_len == 43


def test_episode_spec_refuses_disruptions_off_on_minecraft():
    # minecraft has no disruptions to turn off; its headers record them on
    with pytest.raises(ValueError, match="starcraft domain only"):
        EpisodeSpec("minecraft", disruptions=False)
    assert EpisodeSpec("starcraft", disruptions=False).disruptions is False


@pytest.mark.parametrize(
    "fields",
    [dict(min_len=True), dict(min_len=2.0), dict(max_len=10.0), dict(max_depth=True),
     dict(max_depth=2.0), dict(disruptions="no"), dict(disruptions=1)],
)
def test_episode_spec_refuses_fields_of_the_wrong_type(fields):
    with pytest.raises(ValueError):
        EpisodeSpec(domain="starcraft", **fields)


@pytest.mark.parametrize("block_len", [1, 17, 40])
def test_longjump_spec_draws_what_its_two_substreams_give(block_len):
    """The spec's episode is gen_longjump on "generation", spawn_longjump on "spawning"."""
    spec = EpisodeSpec("minecraft", block_len + 3, block_len + 3, flow="longjump")
    for seed in range(4):
        world = spawn_episode_world(spec, seed)
        instruction = gen_longjump(draws(seed, "generation"), block_len)
        reference = spawn_longjump(draws(seed, "spawning"), instruction, seed=seed)
        assert world.instruction.text() == instruction.text()
        assert (world.digest(), world.pc) == (reference.digest(), reference.pc)


@pytest.mark.parametrize("domain", ["minecraft", "starcraft"])
@pytest.mark.parametrize("policy", ["oracle", "random"])
def test_observed_instruction_is_the_encoded_instruction_on_every_step(domain, policy):
    spec = EpisodeSpec(domain, 3, 12)
    for seed in range(3):
        world = spawn_episode_world(spec, seed)
        player = PolicySpec(policy, domain).build(seed)
        player.reset(world)
        while True:
            observed = world.observe().instruction
            as_lists = [list(t) for t in observed] if domain == "minecraft" else list(observed)
            assert as_lists == world.instruction.encoded()
            if world.done:
                break
            world.apply(player.act(None, world))
