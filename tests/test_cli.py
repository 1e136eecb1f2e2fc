"""Command-line behaviour: exit codes, files, determinism across jobs."""

import builtins
import contextlib
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid import cli, evaluate, harness
from flowgrid.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, _setup_logging, main
from flowgrid.errors import GenerationError
from flowgrid.generators import MAX_LINES
from flowgrid.harness import map_episodes
from flowgrid.instructions import COMPARANDS, decode, parse_text
from flowgrid.interpreter import cf_step
from flowgrid.minecraft import MinecraftWorld
from flowgrid.rngtools import derived_seed
from flowgrid.starcraft import StarcraftWorld


def run_cli(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


# valid JSON syntax that json.load refuses with no JSONDecodeError: a
# RecursionError for the nesting, a ValueError past Python's integer digit limit
TOO_DEEP = "[" * 200_000 + "]" * 200_000
TOO_LONG_INT = "9" * 5_000


# --- usage errors -------------------------------------------------------------------


@pytest.mark.parametrize("value, level", [
    ("debug", logging.DEBUG), ("Info", logging.INFO), ("chatty", logging.WARNING),
    ("basic_format", logging.WARNING),  # logging.BASIC_FORMAT is a string, not a level
])
def test_flowgrid_log_sets_the_level_or_falls_back_to_warning(monkeypatch, value, level):
    given = {}
    monkeypatch.setenv("FLOWGRID_LOG", value)
    monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: given.update(kwargs))
    _setup_logging()
    assert given["level"] == level


def test_no_command_is_usage_error():
    code, _, _ = run_cli()
    assert code == EXIT_USAGE


def test_unknown_option_is_usage_error():
    code, _, err = run_cli("gen", "--domain", "minecraft", "--frobnicate")
    assert code == EXIT_USAGE


def test_bad_lengths_are_usage_errors():
    code, _, _ = run_cli("gen", "--domain", "minecraft", "--min-len", "9", "--max-len", "2")
    assert code == EXIT_USAGE
    code, _, _ = run_cli("run", "--domain", "minecraft", "--episodes", "0")
    assert code == EXIT_USAGE


def test_bad_max_depth_is_usage_error():
    code, _, err = run_cli("run", "--domain", "starcraft", "--episodes", "1", "--max-depth", "0")
    assert code == EXIT_USAGE
    assert "max_depth" in err


def test_failure_buffer_conflicts_with_jobs():
    code, _, err = run_cli(
        "run", "--domain", "minecraft", "--failure-buffer", "--jobs", "2"
    )
    assert code == EXIT_USAGE
    assert "failure-buffer" in err


def test_bad_bins_are_usage_errors():
    code, _, _ = run_cli("eval", "--domain", "minecraft", "--bins", "5-1")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("bins, part", [("abc", "'abc'"), ("1-", "'1-'"), (",", "''"),
                                        ("", "''"), ("1-3,x-4", "'x-4'")])
def test_unparseable_bins_are_usage_errors_naming_the_part(bins, part):
    code, _, err = run_cli("eval", "--domain", "minecraft", "--bins", bins,
                           "--episodes-per-bin", "1")
    assert code == EXIT_USAGE
    assert f"bad bin {part}" in err


def test_empty_bins_from_config_are_the_files_fault_not_the_default_bins(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bins": ""}))
    out = tmp_path / "eval.csv"
    code, _, err = run_cli("--config", str(config), "eval", "--domain", "minecraft",
                           "--episodes-per-bin", "1", "--out", str(out))
    assert code == EXIT_IO
    assert f"config {config} sets 'bins' to ''" in err
    assert "bad bin ''" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--buffer-beta", "0"), ("--buffer-beta", "2"), ("--buffer-beta", "nan"),
    ("--buffer-scale", "-1"), ("--buffer-scale", "nan"), ("--buffer-scale", "inf"),
])
def test_bad_failure_buffer_flags_are_usage_errors_before_any_output(tmp_path, flag, value):
    out = tmp_path / "trace.jsonl"
    code, _, err = run_cli("run", "--domain", "minecraft", "--episodes", "2",
                           "--failure-buffer", flag, value, "--out", str(out))
    assert code == EXIT_USAGE
    assert "failure buffer" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--buffer-beta", "5"), ("--buffer-scale", "nan")])
def test_buffer_flags_without_failure_buffer_are_usage_errors(tmp_path, flag, value):
    out = tmp_path / "trace.jsonl"
    base = ["run", "--domain", "minecraft", "--episodes", "2", "--out", str(out)]
    code, _, err = run_cli(*base, flag, value)
    assert code == EXIT_USAGE
    assert flag in err
    assert not out.exists()
    # a config shared with buffered runs may set it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({flag[2:].replace("-", "_"): 0.5}))
    assert run_cli("--config", str(config), *base)[0] == EXIT_OK
    assert out.exists()


@pytest.mark.parametrize("domain, flag, value, recorded", [
    ("starcraft", "--flow", "multi", ("flow", "multi")),
    ("minecraft", "--max-depth", "3", ("max_depth", 3)),
], ids=["starcraft-flow", "minecraft-max-depth"])
def test_spec_fields_of_the_other_domain_are_refused(tmp_path, domain, flag, value, recorded):
    # the domain's generator would ignore the field, yet the header would record it
    out = tmp_path / "out"
    for command in (["gen"], ["run", "--episodes", "2"], ["eval", "--episodes-per-bin", "1"]):
        code, _, err = run_cli(*command, "--domain", domain, flag, value, "--out", str(out))
        assert code == EXIT_USAGE
        assert "applies to the" in err
        assert not out.exists()
    trace, records = _recorded_records(tmp_path, domain)
    records[0]["spec"][recorded[0]] = recorded[1]
    _rewrite(trace, records)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_IO
    assert "bad episode header" in err


def test_longjump_requires_minecraft():
    code, _, _ = run_cli("eval", "--domain", "starcraft", "--longjump")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, message",
    [
        (("run", "--domain", "minecraft", "--policy", "bogus", "--episodes", "1"),
         "unknown policy 'bogus'"),
        (("run", "--domain", "starcraft", "--policy", "scripted:p.json"),
         "scripted pointer policies drive the minecraft domain"),
        (("eval", "--domain", "minecraft", "--policy", "bogus"),
         "unknown policy 'bogus'"),
        (("eval", "--domain", "minecraft", "--longjump", "--policy", "bogus"),
         "unknown policy 'bogus'"),
    ],
    ids=["run-unknown", "run-scripted-starcraft", "eval-unknown", "longjump-unknown"],
)
def test_bad_policy_is_usage_error_before_any_output(tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text('{"max_jump": 2}')
    out = tmp_path / "out"
    code, _, err = run_cli(*argv, "--out", str(out))
    assert code == EXIT_USAGE
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    [None, "{not json", "[1]", '{"max_jump": "x"}', '{"max_jump": 0}',
     '{"max_jump": 2.5}', '{"max_jump": true}', '{"walk": "no"}',
     '{"max_jmp": 5, "walk": true}', TOO_DEEP],
    ids=["missing", "malformed", "not-object", "max-jump-not-int", "max-jump-zero",
         "max-jump-float", "max-jump-bool", "walk-string", "unknown-key", "nested-too-deep"],
)
@pytest.mark.parametrize("command", ["run", "eval"])
def test_unreadable_scripted_params_is_io_error_before_any_output(tmp_path, command, content):
    params = tmp_path / "params.json"
    if content is not None:
        params.write_text(content)
    out = tmp_path / "out"
    code, _, err = run_cli(
        command, "--domain", "minecraft", "--policy", f"scripted:{params}", "--out", str(out),
    )
    assert code == EXIT_IO
    assert err.startswith("error:") and "params.json" in err
    assert len(err.splitlines()) == 1  # a message, not a traceback
    assert not out.exists()


def test_scripted_params_file_names_its_unknown_key(tmp_path):
    # a misspelt key would otherwise leave max_jump at its default of 1
    params = tmp_path / "params.json"
    params.write_text('{"max_jmp": 5, "walk": true}')
    code, _, err = run_cli("run", "--domain", "minecraft", "--policy", f"scripted:{params}",
                           "--out", str(tmp_path / "out"))
    assert code == EXIT_IO
    assert err == f"error: policy params {params}: 'max_jmp' names no parameter\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--max-len", "5", "--episodes", "40", "--seed", "2"),
        ("eval", "--longjump", "--block-min", "1", "--block-max", "4",
         "--episodes-per-bin", "5"),
    ],
    ids=["run", "longjump"],
)
def test_scripted_params_are_read_once(tmp_path, monkeypatch, argv):
    params = tmp_path / "params.json"
    params.write_text('{"max_jump": 2, "walk": true}')
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(params):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, _, _ = run_cli(
        *argv, "--domain", "minecraft", "--policy", f"scripted:{params}",
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_OK
    assert len(opened) == 1


def test_scripted_run_is_the_same_in_workers(tmp_path, monkeypatch):
    # the forked workers inherit the parsed params
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text('{"max_jump": 3}')
    base = ["run", "--domain", "minecraft", "--policy", "scripted:p.json",
            "--max-len", "12", "--episodes", "12", "--seed", "5"]
    solo = run_cli(*base, "--jobs", "1")
    assert solo[0] == EXIT_OK
    assert run_cli(*base, "--jobs", "2") == solo


@pytest.mark.parametrize("flag", ["--min-len", "--max-len"])
def test_eval_length_flags_are_usage_errors(tmp_path, flag):
    out = tmp_path / "out.csv"
    code, _, err = run_cli(
        "eval", "--domain", "minecraft", "--flow", "multi", flag, "1",
        "--episodes-per-bin", "2", "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert "--bins" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--min-len", "--max-len"])
def test_eval_longjump_length_flags_are_usage_errors(tmp_path, flag):
    # block lengths set a long-jump sweep's instruction lengths
    out = tmp_path / "out.csv"
    code, _, err = run_cli(
        "eval", "--domain", "minecraft", "--longjump", flag, "8", "--block-max", "2",
        "--episodes-per-bin", "1", "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert "--block-min/--block-max" in err
    assert not out.exists()


@pytest.mark.parametrize("longjump, flag, value", [
    (True, "--bins", "1-3"), (True, "--flow", "multi"),
    (False, "--block-min", "5"), (False, "--block-max", "9"),
])
def test_eval_flags_of_the_other_mode_are_usage_errors(tmp_path, longjump, flag, value):
    out = tmp_path / "out.csv"
    base = ["eval", "--domain", "minecraft", "--episodes-per-bin", "1", "--out", str(out)]
    base += ["--longjump", "--block-max", "2"] if longjump else ["--bins", "1-3"]
    code, _, err = run_cli(*base, flag, value)
    assert code == EXIT_USAGE
    assert flag in err
    assert not out.exists()
    # a config shared with the other mode may set it, as it may set --min-len
    config = tmp_path / "config.json"
    config.write_text(json.dumps({flag[2:].replace("-", "_"):
                                  int(value) if value.isdigit() else value}))
    assert run_cli("--config", str(config), *base)[0] == EXIT_OK
    assert out.exists()


def test_eval_lengths_from_config_are_not_refused(tmp_path):
    # a config shared with run/gen may set lengths; only explicit flags are refused
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_len": 4}))
    base = ["eval", "--domain", "minecraft", "--bins", "1-3", "--episodes-per-bin", "3"]
    code, with_config, _ = run_cli("--config", str(config), *base)
    assert code == EXIT_OK
    assert (code, with_config) == run_cli(*base)[:2]


# --- gen ----------------------------------------------------------------------------


def test_gen_minecraft_output_parses(tmp_path):
    out = tmp_path / "gen.jsonl"
    code, _, _ = run_cli(
        "gen", "--domain", "minecraft", "--count", "5", "--seed", "2",
        "--min-len", "2", "--max-len", "7", "--out", str(out),
    )
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 5
    for row in rows:
        ins = decode(row["encoded"], "minecraft")
        assert parse_text(row["text"], "minecraft").lines == ins.lines
        assert 2 <= len(ins) <= 7


def test_gen_starcraft_includes_tree(tmp_path):
    out = tmp_path / "gen.jsonl"
    code, _, _ = run_cli(
        "gen", "--domain", "starcraft", "--count", "3", "--seed", "2",
        "--max-len", "6", "--out", str(out),
    )
    assert code == EXIT_OK
    for line in out.read_text().splitlines():
        row = json.loads(line)
        assert set(row["tree"]) == {"prerequisite", "producer"}
        assert len(row["tree"]["producer"]) == 16
        decode(row["encoded"], "starcraft")


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["gen", "--domain", "starcraft", "--count", "4", "--seed", "9"]
    assert run_cli(*argv, "--out", str(a))[0] == EXIT_OK
    assert run_cli(*argv, "--out", str(b))[0] == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gen_unreachable_min_len_is_usage_error():
    # no sampled build order reaches 60 lines; generation must give up
    code, _, err = run_cli(
        "gen", "--domain", "starcraft", "--min-len", "60", "--max-len", "60",
        "--count", "1",
    )
    assert code == EXIT_USAGE
    assert "--min-len" in err


def test_gen_exhausted_flow_filter_is_usage_error():
    # no one-line instruction has the nested control flow "multi" asks for
    code, _, err = run_cli(
        "gen", "--domain", "minecraft", "--flow", "multi", "--max-len", "1", "--count", "1"
    )
    assert code == EXIT_USAGE
    assert "no instruction matching flow='multi'" in err


def test_gen_longjump_prints_blocks_that_are_never_taken(tmp_path):
    out = tmp_path / "jump.jsonl"
    code, _, _ = run_cli(
        "gen", "--domain", "minecraft", "--flow", "longjump", "--min-len", "8",
        "--max-len", "8", "--count", "20", "--seed", "2", "--out", str(out),
    )
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 20
    for row in rows:
        instruction = decode(row["encoded"], "minecraft")
        assert len(row["text"]) == len(instruction) == 8
        # the long-jump spawner places every comparand but the guard's left one
        absent = instruction.lines[0].condition[0]
        counts = [int(name != absent) for name in COMPARANDS]
        resting = cf_step(instruction, 0, lambda cond: counts[cond[0]] > counts[cond[1]])
        assert resting == 7  # past the block and its closer, at the final subtask


# --- run / replay -------------------------------------------------------------------


def test_run_then_replay_round_trip(tmp_path):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        "run", "--domain", "starcraft", "--episodes", "3", "--seed", "4",
        "--max-len", "6", "--out", str(trace),
    )
    assert code == EXIT_OK
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_OK
    assert "3 episode(s)" in err


def _run_text(episodes, seed):
    code, out, _ = run_cli("run", "--domain", "minecraft", "--policy", "random", "--min-len",
                           "2", "--max-len", "4", "--episodes", str(episodes), "--seed", str(seed))
    assert code == EXIT_OK
    return out


def _episodes(text):
    """The lines of ``text``, a trace, joined per episode."""
    episodes = []
    for line in text.splitlines(keepends=True):
        if json.loads(line)["kind"] == "header":
            episodes.append("")
        episodes[-1] += line
    return episodes


@pytest.mark.parametrize("edit, reason", [
    (lambda eps: [eps[0], eps[2]], "episode 2 follows episode 0"),
    (lambda eps: [eps[0], eps[2], eps[1]], "episode 2 follows episode 0"),
    (lambda eps: [eps[1], eps[0], eps[2]], "episode 1 follows the trace's start"),
], ids=["middle-deleted", "last-two-swapped", "first-two-swapped"])
def test_replay_ties_each_episode_to_its_place_in_its_run(tmp_path, edit, reason):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(edit(_episodes(_run_text(3, 5)))))
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_VERIFY
    assert "replay mismatch" in err and reason in err


def test_replay_verifies_runs_joined_into_one_trace(tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(_run_text(2, 5) + _run_text(3, 6))
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_OK
    assert "replay ok: 5 episode(s) verified" in err


def test_replay_refuses_a_header_without_an_episode_number(tmp_path):
    trace, records = _recorded_records(tmp_path, "minecraft")
    for record in (records[0], records[-1]):  # both, so their keys still agree
        del record["episode"]
    _rewrite(trace, records)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_IO
    assert f"malformed trace {trace}: header after 0 episode(s) has no episode number" in err


@pytest.mark.parametrize("scripted", [False, True], ids=["oracle", "scripted"])
def test_longjump_run_replays_and_rejects_an_edited_instruction(tmp_path, scripted):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"max_jump": 4}))
    policy = f"scripted:{params}" if scripted else "oracle"
    trace = tmp_path / "jump.jsonl"
    code, _, _ = run_cli(
        "run", "--domain", "minecraft", "--flow", "longjump", "--min-len", "4",
        "--max-len", "12", "--episodes", "6", "--seed", "3", "--policy", policy,
        "--out", str(trace),
    )
    assert code == EXIT_OK
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    headers = [r for r in records if r["kind"] == "header"]
    assert len(headers) == 6
    assert all(h["spec"]["flow"] == "longjump" for h in headers)
    assert all(4 <= len(h["instruction"]["text"]) <= 12 for h in headers)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_OK
    assert "6 episode(s)" in err
    # a line inside the never-taken block: no step executes it, the header check sees it
    text = records[0]["instruction"]["text"]
    text[1] = "inspect gold" if text[1] == "inspect wood" else "inspect wood"
    _rewrite(trace, records)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_VERIFY
    assert "header instruction differs" in err


def test_run_jobs_byte_identical(tmp_path):
    solo, multi = tmp_path / "solo.jsonl", tmp_path / "multi.jsonl"
    base = ["run", "--domain", "minecraft", "--episodes", "6", "--seed", "13",
            "--max-len", "6"]
    assert run_cli(*base, "--jobs", "1", "--out", str(solo))[0] == EXIT_OK
    assert run_cli(*base, "--jobs", "3", "--out", str(multi))[0] == EXIT_OK
    assert solo.read_bytes() == multi.read_bytes()


def test_run_jobs_to_stdout_is_byte_identical():
    """Workers leave by ``os._exit``, so none flushes the stdout buffer it inherited."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    probe = ("import sys; from flowgrid import cli; sys.stdout.write('buffered at the fork\\n'); "
             "sys.exit(cli.main(sys.argv[1:]))")

    def stdout(jobs):
        result = subprocess.run(
            [sys.executable, "-c", probe, "run", "--domain", "minecraft", "--episodes", "6",
             "--seed", "13", "--max-len", "6", "--jobs", jobs, "--out", "-"],
            # unbuffered, stdout would hold nothing at the fork
            env=dict({k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
                     PYTHONPATH=os.path.join(root, "src")),
            capture_output=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    solo = stdout("1")
    assert solo.startswith(b"buffered at the fork\n{") and solo.count(b"buffered") == 1
    assert stdout("2") == solo


def test_run_stdout_and_file_bytes_agree(tmp_path):
    trace = tmp_path / "trace.jsonl"
    base = ["run", "--domain", "starcraft", "--episodes", "3", "--seed", "8",
            "--max-len", "5"]
    assert run_cli(*base, "--out", str(trace))[0] == EXIT_OK
    code, out, _ = run_cli(*base, "--out", "-")
    assert code == EXIT_OK
    assert out.encode("utf-8") == trace.read_bytes()


# sha256 of `run --seed 11` traces.  These bytes change only together with a
# TRACE_VERSION bump; routing, spawning or the spawn gate may get faster, but
# every episode they produce must stay the same.
PINNED_TRACES = [
    (("minecraft", "oracle", "1", "10", "any", "60"),
     "8547c86ccfa23526fb0c575d9b375e8a5809d61b302ee2a1dac9ffda5eb788ea"),
    (("minecraft", "oracle", "10", "20", "multi", "30"),
     "409568073a416649940730d504e482cdd10f6184235d4e18028d780b94d0553f"),
    (("minecraft", "random", "1", "10", "any", "60"),
     "0aba9472c5578a3771ece4c0e66e51d503efaf860927d773124a540f5eb05d91"),
    (("minecraft", "scripted:p.json", "5", "15", "any", "40"),
     "ed45916af5dd25d80c4bbf71f0279428f1fa570e97bef83b49c6ac7f9fd186e2"),
    (("starcraft", "oracle", "1", "10", "any", "40"),
     "f7b352957fffb66248d2ba59a68ce58574a398f1022e757627adee149e5ae716"),
    # disruptions on: the policy and disruption streams both reach the trace
    (("starcraft", "random", "1", "10", "any", "20"),
     "38e78162bd9fd51c1b0088918d7195e4edd13408b2273aed6d0cc4e320f22758"),
    # the same runs with --no-digests, whose resolved steps record a null digest
    (("minecraft", "oracle", "1", "10", "any", "60", "--no-digests"),
     "459a114da172f6df5cfb034d42988401c750f288b9675bc4b7f9ebaf7b8477fa"),
    (("starcraft", "oracle", "1", "10", "any", "40", "--no-digests"),
     "389bbd7b265098c989d14bbefdf9d2554a641ec471032b5a376cfc8949ce83a5"),
    (("starcraft", "random", "1", "10", "any", "20", "--no-digests"),
     "8ae69d14213ac2134983607189e9b75a51798809344405f7d194a3bbb29e0fa4"),
]


# sha256 of `gen --count 200 --seed 11 --min-len 1 --max-len 20`, which
# changes only with the generators or the text and integer encodings
PINNED_GEN = [
    ("minecraft", "7ee7104d21a6b243e1d180ec98c628f76fc12fa542cc807149d5d46b5c3a3dc7"),
    ("starcraft", "3b76861ae6a340c8f12a2c4acafc35ce7644e13b5f769b57a209b69bc6919094"),
]


@pytest.mark.parametrize("domain, sha256", PINNED_GEN, ids=["minecraft", "starcraft"])
def test_gen_bytes_are_pinned(domain, sha256):
    code, out, _ = run_cli("gen", "--domain", domain, "--count", "200", "--seed", "11",
                           "--min-len", "1", "--max-len", "20")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize(
    "config, sha256", PINNED_TRACES,
    ids=["mc-oracle", "mc-oracle-multi", "mc-random", "mc-scripted", "sc-oracle", "sc-random",
         "mc-oracle-no-digests", "sc-oracle-no-digests", "sc-random-no-digests"],
)
def test_run_trace_bytes_are_pinned(tmp_path, monkeypatch, config, sha256):
    domain, policy, min_len, max_len, flow, episodes, *flags = config
    monkeypatch.chdir(tmp_path)  # the header records the policy's relative path
    (tmp_path / "p.json").write_text('{"max_jump": 2}')
    code, out, _ = run_cli(
        "run", "--domain", domain, "--policy", policy, "--min-len", min_len,
        "--max-len", max_len, "--flow", flow, "--episodes", episodes, "--seed", "11", *flags,
    )
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


# sha256 of `run --failure-buffer` on a seed where buffered seeds are
# retried, so the trace depends on every draw of the "buffer" stream
PINNED_BUFFER_RUN = "4942b2d87ced1f319fd476d050b35031ce672e4be4abb62b3eef741ceac1fe68"


def test_failure_buffer_trace_bytes_are_pinned():
    code, out, _ = run_cli(
        "run", "--domain", "minecraft", "--policy", "random", "--min-len", "1",
        "--max-len", "3", "--episodes", "60", "--failure-buffer", "--buffer-beta", "0.5",
        "--buffer-scale", "2", "--seed", "11",
    )
    assert code == EXIT_OK
    seeds = [json.loads(line)["seed"] for line in out.splitlines() if '"header"' in line]
    assert len(set(seeds)) < len(seeds)  # some episodes are retries
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_BUFFER_RUN


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--min-len", "60", "--max-len", "60", "--episodes", "4"),
        ("eval", "--bins", "60-60", "--episodes-per-bin", "4"),
    ],
    ids=["run", "eval"],
)
def test_episode_error_exits_alike_in_process_and_in_workers(argv, jobs):
    # no starcraft build order of 60 lines fits the tree: no instruction is drawn
    code, _, err = run_cli(*argv, "--domain", "starcraft", "--jobs", jobs)
    assert code == EXIT_USAGE
    assert err == "error: no starcraft instruction of 60-60 lines in 1000 draws; lower --min-len\n"


def test_a_run_that_fails_part_way_leaves_the_same_file_at_any_jobs(tmp_path, monkeypatch):
    """Episode 4 fails in the middle of a worker's slice (3, 4, 5); the trace
    still holds episodes 0-3, as when the episodes play in-process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real, failing = harness.spawn_episode_world, derived_seed(9, "ep4")

    def spawn(spec, seed):  # forked workers inherit the patch
        if seed == failing:
            raise GenerationError("no instruction for episode 4")
        return real(spec, seed)

    monkeypatch.setattr(harness, "spawn_episode_world", spawn)
    results = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.jsonl"
        code, _, err = run_cli("run", "--domain", "minecraft", "--max-len", "3", "--episodes",
                               "24", "--seed", "9", "--jobs", jobs, "--out", str(out))
        results.append((code, err, out.read_bytes()))
    assert results[0] == results[1]
    code, err, trace = results[0]
    assert (code, err) == (EXIT_USAGE, "error: no instruction for episode 4\n")
    assert [json.loads(line)["episode"] for line in trace.splitlines()
            if b'"header"' in line] == [0, 1, 2, 3]


def test_a_failure_buffer_run_plays_through_map_episodes(monkeypatch):
    calls = []

    def counting(fn, items, jobs=1):
        calls.append((items, jobs))
        return map_episodes(fn, items, jobs)

    monkeypatch.setattr(cli, "map_episodes", counting)
    code, out, _ = run_cli("run", "--domain", "minecraft", "--max-len", "3", "--episodes", "5",
                           "--failure-buffer", "--out", "-")
    assert code == EXIT_OK and out.count('"header"') == 5
    assert calls == [(range(5), 1)]


@pytest.mark.parametrize("command", ["gen", "run"])
def test_unreachable_starcraft_lengths_are_a_usage_error_like_gen(tmp_path, command):
    count = "--count" if command == "gen" else "--episodes"
    out = tmp_path / "out"
    code, _, err = run_cli(command, "--domain", "starcraft", "--min-len", "41", "--max-len", "50",
                           count, "1", "--out", str(out))
    assert code == EXIT_USAGE
    assert err == "error: no starcraft instruction of 41-50 lines in 1000 draws; lower --min-len\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--min-len", "41", "--max-len", "50"),
        ("run", "--min-len", "41", "--max-len", "50", "--episodes", "2"),
        ("run", "--min-len", "41", "--max-len", "50", "--episodes", "2", "--jobs", "2"),
        ("eval", "--bins", "41-50", "--episodes-per-bin", "2"),
    ],
    ids=["gen", "run", "run-jobs2", "eval"],
)
def test_refused_starcraft_lengths_leave_a_filled_out_file_as_it_was(tmp_path, argv):
    out = tmp_path / "out"
    out.write_bytes(b"held before the refusal\n")
    code, _, err = run_cli(*argv, "--domain", "starcraft", "--out", str(out))
    assert code == EXIT_USAGE
    assert err == "error: no starcraft instruction of 41-50 lines in 1000 draws; lower --min-len\n"
    assert out.read_bytes() == b"held before the refusal\n"


def test_no_world_for_any_drawn_instruction_still_fails_verification(monkeypatch):
    def infeasible(*args, **kwargs):
        raise harness.SpawnInfeasible("no placement")

    monkeypatch.setattr(harness.minecraft, "spawn", infeasible)
    code, _, err = run_cli("run", "--domain", "minecraft", "--episodes", "1")
    assert code == EXIT_VERIFY
    assert err == "error: no feasible (instruction, world) pair for this seed\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--max-len", "1", "--episodes", "4"),
        ("eval", "--bins", "1-1", "--episodes-per-bin", "4"),
        ("eval", "--bins", "1-5", "--episodes-per-bin", "4"),
        ("eval", "--bins", "6-10,1-5", "--episodes-per-bin", "4"),
    ],
    ids=["run", "eval", "eval-1-5", "eval-late-bin"],
)
def test_unmeetable_flow_filter_is_usage_error_before_any_episode(
    tmp_path, monkeypatch, argv, jobs
):
    # a "multi" instruction needs if, subtask, endif, while, subtask, endwhile
    def no_episode(*args, **kwargs):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(harness, "spawn_episode_world", no_episode)
    out = tmp_path / "out"
    code, _, err = run_cli(
        *argv, "--domain", "minecraft", "--flow", "multi", "--jobs", jobs, "--out", str(out)
    )
    assert code == EXIT_USAGE
    assert err.startswith("error: no instruction matching flow='multi' fits in ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_replay_missing_file_is_io_error(tmp_path):
    code, _, _ = run_cli("replay", "--trace", str(tmp_path / "absent.jsonl"))
    assert code == EXIT_IO


def test_replay_malformed_trace_is_io_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    code, _, _ = run_cli("replay", "--trace", str(bad))
    assert code == EXIT_IO


@pytest.mark.parametrize(
    "content",
    ["[1, 2]\n", '{"kind": "step"}\n', '{"kind": "mystery"}\n',
     '{"kind": "header", "v": 99}\n', "", b"\xff\xfe\n", "not json\n", TOO_DEEP + "\n",
     f'{{"kind": "header", "v": {TOO_LONG_INT}}}\n'],
    ids=["not-object", "step-first", "unknown-kind", "bad-version", "empty", "not-utf8",
         "not-json", "nested-too-deep", "integer-too-long"],
)
def test_replay_malformed_records_are_io_errors(tmp_path, content):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    code, _, err = run_cli("replay", "--trace", str(bad))
    assert code == EXIT_IO
    assert err.startswith("error:") and str(bad) in err
    assert len(err.splitlines()) == 1  # a message, not a traceback


def _recorded_records(tmp_path, domain):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        "run", "--domain", domain, "--episodes", "1", "--seed", "6",
        "--min-len", "3", "--max-len", "6", "--out", str(trace),
    )
    assert code == EXIT_OK
    return trace, [json.loads(line) for line in trace.read_text().splitlines()]


def _rewrite(trace, records):
    trace.write_text("\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")


_DELETE = object()


@pytest.mark.parametrize(
    "domain, where, key, value",
    [
        ("minecraft", "spec", "domain", _DELETE),
        ("minecraft", "spec", "flow", "bogus"),
        ("starcraft", "spec", "max_depth", 0),
        ("minecraft", "header", "seed", None),
        ("starcraft", "header", "seed", "0"),
        ("minecraft", "header", "policy", "clairvoyant"),
        ("minecraft", "header", "policy", None),
        ("starcraft", "header", "policy", "scripted:p.json"),
        ("minecraft", "header", "unknown", 0),
        ("starcraft", "step", "unknown", 0),
        ("minecraft", "end", "unknown", 0),
        ("starcraft", "end", "outcome", _DELETE),
    ],
    ids=["no-domain", "bad-flow", "zero-max-depth", "null-seed", "string-seed",
         "unknown-policy", "null-policy", "starcraft-scripted-policy", "header-unknown-key",
         "step-unknown-key", "end-unknown-key", "end-missing-key"],
)
def test_replay_bad_header_is_io_error(tmp_path, domain, where, key, value):
    """A bad header, or a record whose keys are not the ones replay builds."""
    trace, records = _recorded_records(tmp_path, domain)
    record = {"header": records[0], "spec": records[0]["spec"], "step": records[1],
              "end": records[-1]}[where]
    if value is _DELETE:
        del record[key]
    else:
        record[key] = value
    _rewrite(trace, records)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_IO
    assert "malformed trace" in err


@pytest.mark.parametrize(
    "domain, key, value",
    [
        ("minecraft", "min_len", True),
        ("minecraft", "min_len", 3.0),
        ("minecraft", "max_len", 6.0),
        ("starcraft", "max_depth", True),
        ("starcraft", "disruptions", "no"),
    ],
    ids=["bool-min-len", "float-min-len", "float-max-len", "bool-max-depth",
         "string-disruptions"],
)
def test_replay_header_spec_of_the_wrong_type_is_io_error(tmp_path, domain, key, value):
    # each value passes the range checks, as True == 1 and 3.0 == 3 compare
    trace, records = _recorded_records(tmp_path, domain)
    records[0]["spec"][key] = value
    _rewrite(trace, records)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_IO
    assert "bad episode header" in err


@pytest.mark.parametrize("domain", ["minecraft", "starcraft"])
def test_replay_header_longer_than_max_lines_is_io_error(tmp_path, domain):
    # such a header once hung replay, which drew an instruction of up to 2**70 lines
    trace, records = _recorded_records(tmp_path, domain)
    records[0]["spec"]["max_len"] = 2**70
    _rewrite(trace, records)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_IO
    assert f"bad episode header: max_len {2**70} is above {MAX_LINES}" in err


@pytest.mark.parametrize("key, value", [
    ("min_len", "a" * 1_000_000),
    ("min_len", json.loads("[" * 900 + "]" * 900)),
    ("b" * 1_000_000, 1),
], ids=["long-string", "nested-900-deep", "long-unknown-key"])
def test_replay_refusal_clips_the_value_it_echoes(tmp_path, key, value):
    trace, records = _recorded_records(tmp_path, "minecraft")
    records[0]["spec"][key] = value
    _rewrite(trace, records)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_IO
    assert err.startswith(f"error: malformed trace {trace}: bad episode header: ")
    assert len(err.splitlines()) == 1 and len(err.encode("utf-8")) < 1024


@pytest.mark.parametrize("config", [{"seed": "s" * 1_000_000}, {"s" * 1_000_000: 1}],
                         ids=["long-value", "long-unknown-key"])
def test_config_refusal_clips_the_value_it_echoes(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, stdout, err = run_cli("--config", str(path), "scan-check")
    assert (code, stdout) == (EXIT_IO, "")
    assert err.startswith(f"error: config {path}: ")
    assert len(err.splitlines()) == 1 and len(err.encode("utf-8")) < 1024


@pytest.mark.parametrize("argv", [
    ("gen", "--count", "1"),
    ("run", "--episodes", "1"),
    ("eval", "--episodes-per-bin", "1", "--bins", f"1-10,{MAX_LINES + 1}"),
], ids=["gen", "run", "eval"])
def test_lengths_above_max_lines_are_a_usage_error(tmp_path, argv):
    lengths = () if argv[0] == "eval" else ("--max-len", str(MAX_LINES + 1))
    out = tmp_path / "out"
    for domain in ("minecraft", "starcraft"):
        code, _, err = run_cli(*argv, *lengths, "--domain", domain, "--out", str(out))
        assert code == EXIT_USAGE
        assert f"max_len {MAX_LINES + 1} is above {MAX_LINES}" in err
        assert not out.exists()  # refused before any output is opened


def test_max_lines_covers_every_default_bin_and_runs():
    assert evaluate.DEFAULT_BINS[-1][1] <= MAX_LINES
    code, _, err = run_cli("run", "--domain", "minecraft", "--min-len", str(MAX_LINES),
                           "--max-len", str(MAX_LINES), "--episodes", "2", "--no-digests")
    assert code == EXIT_OK
    assert "episodes=2" in err


@pytest.mark.parametrize(
    "domain, field, value",
    [
        ("minecraft", "verb", "dance"),
        ("starcraft", "kind", "select_dance"),
        # in range, but not an int: a token value indexes lists
        pytest.param("starcraft", "value", 1.0, id="starcraft-value-float"),
        pytest.param("starcraft", "value", True, id="starcraft-value-bool"),
    ],
)
def test_replay_unknown_command_is_io_error(tmp_path, domain, field, value):
    trace, records = _recorded_records(tmp_path, domain)
    step = next(r for r in records if r["kind"] == "step")
    step["command"][field] = value
    _rewrite(trace, records)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_IO
    assert "malformed trace" in err


def test_replay_trace_without_end_record_is_io_error(tmp_path):
    trace, records = _recorded_records(tmp_path, "starcraft")
    assert records[-1]["kind"] == "end"
    _rewrite(trace, records[:-1])
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_IO
    assert "no end record" in err


@pytest.mark.parametrize("cut, named", [(5, 2), (4, 1)], ids=["last-line", "before-a-header"])
def test_a_missing_end_record_is_named_by_its_headers_episode(tmp_path, cut, named):
    """Two 3-episode runs joined, one end record of the second run cut: the
    message names the open header's episode, not its place in the file."""
    lines = []
    for seed in ("1", "2"):
        code, out, _ = run_cli("run", "--domain", "minecraft", "--episodes", "3", "--seed", seed,
                               "--out", "-")
        assert code == EXIT_OK
        lines += out.splitlines(keepends=True)
    ends = [i for i, line in enumerate(lines) if '"kind":"end"' in line]
    del lines[ends[cut]]
    trace = tmp_path / "joined.jsonl"
    trace.write_text("".join(lines))
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_IO
    assert f"episode {named} has no end record" in err


def _cut_last_step(records):
    """Drop the last step and make the end record agree with what is left."""
    last = max(i for i, r in enumerate(records) if r["kind"] == "step")
    del records[last]
    records[-1].update(steps=records[-1]["steps"] - 1, outcome=None, reward=0)


@pytest.mark.parametrize(
    "domain, tamper, reason",
    [
        ("minecraft", lambda rs: rs[-1].update(steps=rs[-1]["steps"] + 1), "steps"),
        ("starcraft", lambda rs: rs[-1].update(reward=1 - rs[-1]["reward"]), "reward"),
        ("minecraft", lambda rs: rs[0]["instruction"]["text"].__setitem__(0, "tampered"),
         "instruction"),
        ("starcraft", lambda rs: rs[0]["instruction"]["text"].__setitem__(0, "tampered"),
         "instruction"),
        ("minecraft", _cut_last_step, "still running"),
        ("minecraft", lambda rs: rs[1].update(pc=99), "step 0: pc 0 != recorded 99"),
        ("starcraft", lambda rs: rs[1].update(pc=0), "step 0: pc None != recorded 0"),
        ("minecraft", lambda rs: rs[1].update(reward=1), "step 0: reward 0 != recorded 1"),
        ("minecraft", lambda rs: rs[1].update(cause="success"),
         "step 0: cause None != recorded 'success'"),
        ("starcraft", lambda rs: rs[1].update(t=5), "step 0: t 0 != recorded 5"),
        ("starcraft", lambda rs: rs[-2].update(done=False), "done True != recorded False"),
        ("starcraft", lambda rs: rs[1].update(noop=True), "step 0: noop False != recorded True"),
        ("minecraft", lambda rs: rs[-1].update(episode=1), "episode 0 != recorded 1"),
        ("minecraft", lambda rs: rs[0].update(domain="starcraft"),
         "header: domain 'minecraft' != recorded 'starcraft'"),
        ("starcraft", lambda rs: rs.insert(-1, rs[-2]), "step 11: recorded after the episode ended"),
    ],
    ids=["end-steps", "end-reward", "minecraft-text", "starcraft-text", "not-done",
         "step-pc", "starcraft-step-pc", "step-reward", "step-cause", "step-t", "step-done",
         "step-noop", "end-episode", "header-domain", "step-after-end"],
)
def test_replay_rejects_header_or_end_the_replay_disagrees_with(tmp_path, domain, tamper, reason):
    trace, records = _recorded_records(tmp_path, domain)
    tamper(records)
    _rewrite(trace, records)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet", "--no-check-digests")
    assert code == EXIT_VERIFY
    assert "replay mismatch" in err and reason in err


def _retype(kind, index, key, convert):
    """An edit that gives ``key`` of the ``index``-th ``kind`` record a value of
    another JSON type that ``==`` takes for the recorded one."""
    def edit(records):
        record = [r for r in records if r["kind"] == kind][index]
        value = convert(record[key])
        assert value == record[key] and type(value) is not type(record[key])
        record[key] = value
    return edit


def _renumber(value):
    """An edit that gives episode 1's header and end record the same ``value`` as
    their episode number, which the two records then agree on."""
    def edit(records):
        for record in records:
            if record["kind"] != "step" and record["episode"] == 1:
                record["episode"] = value
    return edit


def _false_for_a_zero(records):
    encoded = records[0]["instruction"]["encoded"]
    row = next(row for row in encoded if 0 in row)
    row[row.index(0)] = False


@pytest.mark.parametrize(
    "tamper",
    [
        _retype("header", 0, "v", bool),
        _retype("step", 0, "done", int),
        _retype("step", 0, "resolved", int),
        _retype("step", 0, "noop", int),
        _retype("step", 0, "reward", bool),
        _retype("step", 1, "pc", float),
        _retype("step", -1, "t", float),
        _retype("end", 0, "reward", bool),
        _retype("end", 0, "steps", float),
        _retype("end", 1, "episode", bool),
        _renumber(True),
        _renumber("one"),
        _false_for_a_zero,
    ],
    ids=["header-v", "step-done", "step-resolved", "step-noop", "step-reward", "step-pc",
         "last-step-t", "end-reward", "end-steps", "end-episode", "episode-true",
         "episode-string", "encoded-false"],
)
def test_replay_tells_apart_json_values_that_python_calls_equal(tmp_path, tamper):
    # true == 1 and 2.0 == 2 in Python, but run never writes a bool for a count,
    # an int for a flag or a float at all, so such a trace is not run's trace
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli("run", "--domain", "minecraft", "--policy", "oracle", "--min-len", "2",
                         "--max-len", "3", "--episodes", "2", "--seed", "0", "--out", str(trace))
    assert code == EXIT_OK
    assert run_cli("replay", "--trace", str(trace), "--quiet")[0] == EXIT_OK
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    tamper(records)
    _rewrite(trace, records)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code in (EXIT_VERIFY, EXIT_IO), err
    assert "verified" not in err


# --- single edits of a fixed trace -------------------------------------------------

# stand-ins for a JSON value: one of each JSON type, values that == takes for 0
# or 1, a length past MAX_LINES, and names a header's domain or policy may hold
_VALUES = (None, True, False, 0, 1, 2, -1, 1.0, 2**70, "", "x", "oracle", "random",
           "minecraft", "starcraft", [], {})


@pytest.fixture(scope="module")
def fuzz_trace(tmp_path_factory):
    """Where to write an edited trace, and the text of three minecraft random
    episodes then two starcraft oracle episodes."""
    text = ""
    for argv in (("--domain", "minecraft", "--policy", "random", "--episodes", "3"),
                 ("--domain", "starcraft", "--policy", "oracle", "--episodes", "2")):
        code, out, _ = run_cli("run", *argv, "--min-len", "2", "--max-len", "4", "--seed", "7")
        assert code == EXIT_OK
        text += out
    return tmp_path_factory.mktemp("fuzz") / "edited.jsonl", text


def _paths(value, path=()):
    """The path of every value nested in ``value``."""
    if isinstance(value, (dict, list)):
        for key, inner in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield path + (key,)
            yield from _paths(inner, path + (key,))


def _single_edit(data, text):
    """``text`` with one JSON value replaced or deleted, one line dropped,
    duplicated or swapped, or one byte changed, as bytes."""
    kind = data.draw(st.sampled_from(("replace", "delete", "drop", "duplicate", "swap", "byte")))
    if kind == "byte":
        raw = bytearray(text.encode())
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at] = data.draw(st.integers(0, 255).filter(lambda byte: byte != raw[at]))
        return bytes(raw)
    lines = text.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        record = json.loads(lines[i])
        path = data.draw(st.sampled_from(list(_paths(record))))
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(st.sampled_from(_VALUES) | st.integers(-3, 3))
        lines[i] = json.dumps(record) + "\n"
    return "".join(lines).encode()


def _known_gap(records, originals):
    """Whether ``records`` differ from ``originals`` in one record only, and only
    as the README says replay cannot check.  Commands are taken as recorded, so
    a step may hold another command whose play reaches the same records, and a
    header may name the other of oracle and random.  Nothing ties an episode to
    one run, so a header may hold another spec under which its seed plays the
    same episode.  A digest-mode episode whose digests are all null reads as a
    --no-digests one."""
    changed = [i for i, (record, original) in enumerate(zip(records, originals))
               if harness._dumps(record) != harness._dumps(original)]
    if len(records) != len(originals) or len(changed) != 1:
        return False
    i = changed[0]
    record, original = records[i], originals[i]
    keys = {key for key in record.keys() | original.keys()
            if harness._dumps([record.get(key)]) != harness._dumps([original.get(key)])}
    if record["kind"] == "header":
        return keys == {"spec"} or (keys == {"policy"} and record["policy"] in ("oracle", "random"))
    if record["kind"] != "step":
        return False
    if keys == {"command"}:
        return True
    if keys != {"digest"} or record["digest"] is not None:
        return False
    start = max(j for j in range(i) if records[j]["kind"] == "header")
    end = min(j for j in range(i, len(records)) if records[j]["kind"] == "end")
    return all(step["digest"] is None for step in records[start + 1:end])


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_replay_refuses_every_single_edit_that_changes_a_record(fuzz_trace, data):
    path, text = fuzz_trace
    edited = _single_edit(data, text)
    path.write_bytes(edited)
    code, _, err = run_cli("replay", "--trace", str(path), "--quiet")
    if code in (EXIT_VERIFY, EXIT_IO):
        return
    assert code == EXIT_OK, err
    with open(path, encoding="utf-8") as handle:  # as replay reads it
        records = list(harness.read_trace_records(handle))
    originals = [json.loads(line) for line in text.splitlines()]
    assert [harness._dumps(r) for r in records] == [harness._dumps(r) for r in originals] or (
        _known_gap(records, originals))


# --- single edits of a --config file --------------------------------------------------

_BASE_CONFIG = {"min_len": 2, "max_len": 3, "count": 2, "episodes": 2, "seed": 1}
# the base keys each command takes as flags; the other one's key it only checks
_FLAG_KEYS = {"gen": {"min_len", "max_len", "count", "seed"},
              "run": {"min_len", "max_len", "episodes", "seed"}}
# small ints and short digit strings keep a run short; other text holds no digit
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-3, 9)
    | st.text(alphabet="0123456789 _+-", max_size=2)
    | st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=3),
    lambda values: st.lists(values, max_size=2) | st.dictionaries(st.text(max_size=2), values,
                                                                  max_size=2),
    max_leaves=3,
)


def _config_edit(data, base=_BASE_CONFIG) -> bytes:
    """The JSON of ``base`` with one value replaced, one key deleted, one
    unknown key added (no option's dest or parameter holds a capital), or one
    byte changed."""
    config = dict(base)
    edit = data.draw(st.sampled_from(["replace", "delete", "add", "byte"]), label="edit")
    if edit == "replace":
        config[data.draw(st.sampled_from(sorted(config)), label="key")] = data.draw(_JSON_VALUES)
    elif edit == "delete":
        del config[data.draw(st.sampled_from(sorted(config)), label="key")]
    elif edit == "add":
        config[data.draw(st.from_regex(r"[A-Z0-9 -]{0,4}", fullmatch=True), label="key")] = (
            data.draw(_JSON_VALUES))
    raw = json.dumps(config).encode("utf-8")
    if edit == "byte":
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        raw = raw[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[at + 1:]
    return raw


def _as_flags(config: dict, command: str) -> list:
    """The flags that give ``command`` the config's values of its own options."""
    return [f"--{key.replace('_', '-')}={value}" for key, value in config.items()
            if key in _FLAG_KEYS[command] and value is not None]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_single_edit_of_a_config_runs_as_its_flags_or_blames_the_file(tmp_path_factory,
                                                                           data):
    raw = _config_edit(data)
    root = tmp_path_factory.mktemp("config")
    path = root / "config.json"
    path.write_bytes(raw)
    for command in ("gen", "run"):
        out, flagged = root / f"{command}.out", root / f"{command}.flags"
        code, stdout, err = run_cli("--config", str(path), command, "--domain", "minecraft",
                                    "--out", str(out))
        if code == EXIT_IO:
            assert err.startswith((f"error: config {path}", "error: cannot read config")), err
            assert stdout == "" and not out.exists()
            continue
        assert code == EXIT_OK, err  # never a usage error: only the file set a value
        flags = _as_flags(json.loads(raw), command)
        code, _, err = run_cli(command, "--domain", "minecraft", *flags, "--out", str(flagged))
        assert code == EXIT_OK, err
        assert out.read_bytes() == flagged.read_bytes()


# --- single edits of a scripted: params file ---------------------------------------------

_BASE_PARAMS = {"max_jump": 2, "walk": False}
# max_jump 1 to 5 and walk each change this command's table
_LONGJUMP = ("eval", "--domain", "minecraft", "--longjump", "--block-min", "1", "--block-max",
             "3", "--episodes-per-bin", "2", "--seed", "1")


def _params_values(raw: bytes):
    """The max_jump and walk that params file ``raw`` gives, or None for a
    file that must be refused."""
    try:
        params = json.loads(raw.decode("utf-8"))
    except ValueError:
        return None
    if not isinstance(params, dict) or params.keys() - _BASE_PARAMS.keys():
        return None
    values = {"max_jump": params.get("max_jump", 1), "walk": params.get("walk", False)}
    if type(values["max_jump"]) is not int or values["max_jump"] < 1:
        return None
    return values if type(values["walk"]) is bool else None


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_single_edit_of_scripted_params_runs_as_its_values_or_blames_the_file(
        tmp_path_factory, data):
    raw = _config_edit(data, _BASE_PARAMS)
    root = tmp_path_factory.mktemp("params")
    path, out = root / "params.json", root / "edited.csv"
    path.write_bytes(raw)
    code, stdout, err = run_cli(*_LONGJUMP, "--policy", f"scripted:{path}", "--out", str(out))
    values = _params_values(raw)
    if values is None:
        assert code == EXIT_IO, err
        assert err.startswith("error:") and str(path) in err and len(err.splitlines()) == 1, err
        assert stdout == "" and not out.exists()
        return
    assert code == EXIT_OK, err
    path.write_text(json.dumps(values))
    canonical = root / "canonical.csv"
    assert run_cli(*_LONGJUMP, "--policy", f"scripted:{path}", "--out", str(canonical)) == (
        EXIT_OK, stdout, err)
    assert out.read_bytes() == canonical.read_bytes()


def test_every_command_prints_its_help(capsys):
    for argv in ([], ["gen"], ["run"], ["eval"], ["replay"], ["scan-check"]):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: flowgrid")


def test_replay_tampered_trace_fails_verification(tmp_path):
    trace = tmp_path / "trace.jsonl"
    run_cli(
        "run", "--domain", "minecraft", "--episodes", "1", "--seed", "21",
        "--min-len", "3", "--max-len", "6", "--out", str(trace),
    )
    lines = trace.read_text().splitlines()
    tampered = []
    poisoned = False
    for line in lines:
        record = json.loads(line)
        if not poisoned and record.get("kind") == "step" and record.get("digest"):
            record["digest"] = "f" * 16
            poisoned = True
        tampered.append(json.dumps(record, sort_keys=True))
    trace.write_text("\n".join(tampered) + "\n")
    if not poisoned:  # zero-step episode: tamper the outcome instead
        records = [json.loads(line) for line in lines]
        for record in records:
            if record.get("kind") == "end":
                record["outcome"] = "out_of_order"
        trace.write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
        )
    code, _, err = run_cli("replay", "--trace", str(trace))
    assert code == EXIT_VERIFY


def _null_every_other_digest(records):
    resolved = [r for r in records if r["kind"] == "step" and r["digest"] is not None]
    assert len(resolved) >= 2
    for record in resolved[1::2]:
        record["digest"] = None


def _write_mixed_trace(path):
    """Three minecraft and two starcraft oracle episodes, then one random
    starcraft episode, as one trace; returns its records."""
    parts = []
    for argv in (
        ("--domain", "minecraft", "--policy", "oracle", "--min-len", "3", "--max-len", "8",
         "--episodes", "3"),
        ("--domain", "starcraft", "--policy", "oracle", "--min-len", "3", "--max-len", "8",
         "--episodes", "2"),
        ("--domain", "starcraft", "--policy", "random", "--min-len", "1", "--max-len", "3",
         "--episodes", "1"),
    ):
        code, out, _ = run_cli("run", *argv, "--seed", "5")
        assert code == EXIT_OK
        parts.append(out)
    path.write_text("".join(parts))
    return [json.loads(line) for line in path.read_text().splitlines()]


# sha256 of the frames `replay` prints for the trace above; frames are drawn
# from the live world only when printed, and must stay byte for byte the same
MIXED_REPLAY_STDOUT_SHA256 = "f5ad37c3043e50a090bddf43781ec64277e306fc386b26bdfbafdd60ba8046a4"


def test_replay_frames_are_pinned(tmp_path):
    trace = tmp_path / "trace.jsonl"
    records = _write_mixed_trace(trace)
    code, out, err = run_cli("replay", "--trace", str(trace))
    assert code == EXIT_OK
    assert err == "replay ok: 6 episode(s) verified\n"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MIXED_REPLAY_STDOUT_SHA256
    # one frame at spawn, then one per resolved step (minecraft steps always resolve)
    frames = out.split("\n\n")
    assert frames.pop() == ""
    headers = sum(r["kind"] == "header" for r in records)
    resolved = sum(r["kind"] == "step" and r.get("resolved", True) for r in records)
    assert any(r["kind"] == "step" and not r.get("resolved", True) for r in records)
    assert len(frames) == headers + resolved
    assert sum(frame.splitlines()[-1].startswith("step 0 ") for frame in frames) == headers


def test_quiet_replay_renders_nothing(tmp_path, monkeypatch):
    trace = tmp_path / "trace.jsonl"
    _write_mixed_trace(trace)

    def no_render(self):
        raise AssertionError("a frame was rendered")

    monkeypatch.setattr(MinecraftWorld, "render", no_render)
    monkeypatch.setattr(StarcraftWorld, "render", no_render)
    code, out, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_OK
    assert out == ""
    assert err == "replay ok: 6 episode(s) verified\n"


def _unresolve_a_resolved_step(records):
    step = next(r for r in records if r["kind"] == "step" and r["digest"] is not None)
    step.update(resolved=False, digest=None)


@pytest.mark.parametrize(
    "domain, tamper, reason",
    [
        ("starcraft", _null_every_other_digest, "has no digest"),
        ("minecraft", _null_every_other_digest, "has no digest"),
        ("starcraft", _unresolve_a_resolved_step, "resolved True != recorded False"),
    ],
    ids=["starcraft-nulled", "minecraft-nulled", "starcraft-unresolved"],
)
def test_replay_rejects_nulled_digests_in_a_digest_mode_episode(tmp_path, domain, tamper, reason):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        "run", "--domain", domain, "--policy", "oracle", "--episodes", "2", "--seed", "6",
        "--min-len", "3", "--max-len", "6", "--out", str(trace),
    )
    assert code == EXIT_OK
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    tamper(records)
    _rewrite(trace, records)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_VERIFY
    assert "replay mismatch" in err and reason in err


@pytest.mark.parametrize("domain", ["minecraft", "starcraft"])
def test_replay_accepts_a_no_digests_trace(tmp_path, domain):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        "run", "--domain", domain, "--episodes", "2", "--seed", "6",
        "--min-len", "3", "--max-len", "6", "--no-digests", "--out", str(trace),
    )
    assert code == EXIT_OK
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert all(r["digest"] is None for r in records if r["kind"] == "step")
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_OK
    assert "2 episode(s) verified" in err


def test_run_with_failure_buffer(tmp_path):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        "run", "--domain", "minecraft", "--episodes", "5", "--seed", "3",
        "--failure-buffer", "--out", str(trace),
    )
    assert code == EXIT_OK
    headers = [
        json.loads(line)
        for line in trace.read_text().splitlines()
        if json.loads(line).get("kind") == "header"
    ]
    assert len(headers) == 5


# --- eval ---------------------------------------------------------------------------


def test_eval_writes_csv(tmp_path):
    out = tmp_path / "results.csv"
    code, _, _ = run_cli(
        "eval", "--domain", "minecraft", "--policy", "oracle",
        "--bins", "1-3,4-6", "--episodes-per-bin", "4", "--seed", "7",
        "--out", str(out),
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,episodes,success_rate,stderr,timeouts,out_of_order"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "3" and first[2] == "4"
    assert float(first[3]) == 1.0


def test_eval_jobs_byte_identical(tmp_path):
    solo, multi = tmp_path / "solo.csv", tmp_path / "multi.csv"
    base = ["eval", "--domain", "starcraft", "--bins", "1-4", "--episodes-per-bin",
            "4", "--seed", "5"]
    assert run_cli(*base, "--jobs", "1", "--out", str(solo))[0] == EXIT_OK
    assert run_cli(*base, "--jobs", "2", "--out", str(multi))[0] == EXIT_OK
    assert solo.read_bytes() == multi.read_bytes()


# sha256 of the CSV of a random-policy starcraft eval, which runs every
# episode to timeout through the policy and disruption streams
PINNED_SC_RANDOM_EVAL = "ded86029ce55418af009e410186833faec1766dd79ba439928f307d8ea0c6e00"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_random_starcraft_eval_bytes_are_pinned(tmp_path, jobs):
    out = tmp_path / "eval.csv"
    code, _, _ = run_cli(
        "eval", "--domain", "starcraft", "--policy", "random", "--bins", "1-10,11-20",
        "--episodes-per-bin", "10", "--seed", "11", "--jobs", jobs, "--out", str(out),
    )
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SC_RANDOM_EVAL


@pytest.mark.parametrize("flag", [("--max-depth", "3"), ("--no-disruptions",)])
def test_eval_longjump_refuses_flags_the_sweep_would_drop(tmp_path, flag):
    out = tmp_path / "jump.csv"
    code, _, err = run_cli(
        "eval", "--domain", "minecraft", "--longjump", "--block-max", "2",
        "--episodes-per-bin", "1", *flag, "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert flag[0] in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run", "--episodes", "1"],
                                     ["eval", "--bins", "1-3", "--episodes-per-bin", "1"]])
def test_minecraft_refuses_no_disruptions(tmp_path, command):
    # minecraft has no disruptions, yet the header would record them as off
    out = tmp_path / "out"
    code, _, err = run_cli(*command, "--domain", "minecraft", "--no-disruptions",
                           "--out", str(out))
    assert code == EXIT_USAGE
    assert "applies to the starcraft domain" in err
    assert not out.exists()


def test_replay_refuses_a_minecraft_header_without_disruptions(tmp_path):
    trace, records = _recorded_records(tmp_path, "minecraft")
    assert records[0]["spec"]["disruptions"] is True
    records[0]["spec"]["disruptions"] = False
    _rewrite(trace, records)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_IO
    assert "bad episode header" in err


def test_eval_longjump_block_columns(tmp_path):
    out = tmp_path / "jump.csv"
    code, _, _ = run_cli(
        "eval", "--domain", "minecraft", "--longjump", "--block-min", "2",
        "--block-max", "3", "--episodes-per-bin", "2", "--seed", "1",
        "--out", str(out),
    )
    assert code == EXIT_OK
    rows = out.read_text().splitlines()
    assert rows[1].startswith("2,2,") and rows[2].startswith("3,3,")


def test_eval_longjump_jobs_byte_identical(tmp_path):
    solo, multi = tmp_path / "solo.csv", tmp_path / "multi.csv"
    base = ["eval", "--domain", "minecraft", "--longjump", "--policy", "random",
            "--block-min", "1", "--block-max", "6", "--episodes-per-bin", "3", "--seed", "4"]
    assert run_cli(*base, "--jobs", "1", "--out", str(solo))[0] == EXIT_OK
    assert run_cli(*base, "--jobs", "2", "--out", str(multi))[0] == EXIT_OK
    assert solo.read_bytes() == multi.read_bytes()


# --- scan-check ---------------------------------------------------------------------


def test_scan_check_passes_and_writes_tables(tmp_path):
    out_dir = tmp_path / "scan"
    code, out, _ = run_cli(
        "scan-check", "--trials", "60", "--max-len", "6", "--grad-trials", "15",
        "--seed", "3", "--out-dir", str(out_dir),
    )
    assert code == EXIT_OK
    assert "PASS" in out
    columns = (out_dir / "columns.csv").read_text().splitlines()
    gradients = (out_dir / "gradients.csv").read_text().splitlines()
    assert columns[0] == "trial,length,max_abs_diff,norm_err,residual_err"
    assert len(columns) == 61
    assert gradients[0] == "trial,length,max_rel_err"
    assert len(gradients) == 16


def test_scan_check_max_len_is_bounded_before_any_trial(tmp_path):
    # the jacobians are O(L^2): an unbounded --max-len ends in a MemoryError
    out_dir = tmp_path / "scan"
    code, out, err = run_cli(
        "scan-check", "--max-len", "1001", "--trials", "1", "--grad-trials", "3",
        "--out-dir", str(out_dir),
    )
    assert code == EXIT_USAGE
    assert "--max-len" in err and out == ""
    assert not out_dir.exists()
    code, out, _ = run_cli("scan-check", "--max-len", "1000", "--trials", "1",
                           "--grad-trials", "0")
    assert code == EXIT_OK and "PASS" in out


def test_scan_check_printed_formula_mode():
    code, out, _ = run_cli(
        "scan-check", "--trials", "40", "--max-len", "5", "--mode", "printed-formula"
    )
    assert code == EXIT_OK
    assert "skipped" in out


# sha256 of `scan-check --trials 200 --grad-trials 40 --seed 11 --out-dir out`
# output (stdout, then each table), recorded before the kernel was batched:
# faster kernels must give the same bytes.
PINNED_SCAN_CHECKS = [
    ("stop-process", {
        "stdout": "64334b29c743d57a2f02780d4a8d7bc94fda15d54c2acb6b2a917050e3d4f6ce",
        "columns.csv": "007ed4e6598375e2d293687728252ad3c5d5397bd2904d840130b530ba7db483",
        "gradients.csv": "7a2dabb7bd88c4df664a0b082256908d550ac6dbc7566c41a55a54f7b2c0f1b9",
    }),
    ("printed-formula", {
        "stdout": "6596e3ecf1f27253e96dd8fb2bafc28091b4b6a49aa49db10b16ad1c5f8bd23f",
        "columns.csv": "aa431c326915b939bad343d1447a058c3a80cf162fd390cbf842775a5e8f4f5b",
    }),
]


@pytest.mark.parametrize("mode, sha256", PINNED_SCAN_CHECKS, ids=[m for m, _ in PINNED_SCAN_CHECKS])
def test_scan_check_bytes_are_pinned(tmp_path, monkeypatch, mode, sha256):
    monkeypatch.chdir(tmp_path)  # stdout names the relative --out-dir
    code, out, _ = run_cli(
        "scan-check", "--trials", "200", "--grad-trials", "40", "--seed", "11",
        "--mode", mode, "--out-dir", "out",
    )
    assert code == EXIT_OK
    digests = {"stdout": hashlib.sha256(out.encode("utf-8")).hexdigest()}
    for table in sorted(p.name for p in (tmp_path / "out").iterdir()):
        digests[table] = hashlib.sha256((tmp_path / "out" / table).read_bytes()).hexdigest()
    assert digests == sha256


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--domain", "starcraft", "--count", "5", "--seed", "3", "--out", "{out}"),
        ("run", "--domain", "minecraft", "--policy", "random", "--max-len", "4",
         "--episodes", "6", "--seed", "4", "--failure-buffer", "--out", "{out}"),
        ("run", "--domain", "starcraft", "--max-len", "4", "--episodes", "2", "--seed", "5",
         "--out", "{out}"),
        ("eval", "--domain", "starcraft", "--policy", "random", "--bins", "1-2",
         "--episodes-per-bin", "2", "--out", "{out}"),
        ("eval", "--domain", "minecraft", "--longjump", "--block-max", "3",
         "--episodes-per-bin", "2", "--out", "{out}"),
        ("replay", "--trace", "{trace}"),
        ("scan-check", "--trials", "30", "--grad-trials", "5", "--max-len", "6",
         "--out-dir", "{out}"),
        ("scan-check", "--mode", "printed-formula", "--trials", "30", "--max-len", "6"),
    ],
    ids=["gen", "run-random", "run-starcraft", "eval", "eval-longjump", "replay",
         "scan-check", "scan-check-printed"],
)
def test_commands_draw_nothing_through_numpys_generator(tmp_path, monkeypatch, argv):
    # every stream reads through rngtools.Draws, which computes numpy's draws from
    # the raw Philox words; numpy's Generator methods may change between releases
    trace, out = tmp_path / "trace.jsonl", tmp_path / "out"
    if "{trace}" in argv:
        _write_mixed_trace(trace)
    argv = [arg.format(out=out, trace=trace) for arg in argv]

    def outputs():
        result = run_cli(*argv)
        if out.is_dir():
            written = {f.name: f.read_bytes() for f in out.iterdir()}
            for f in out.iterdir():
                f.unlink()
            return result, written
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return result, written

    plain = outputs()
    assert plain[0][0] == EXIT_OK

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy Generator was made")

    monkeypatch.setattr(np.random, "Generator", refuse)
    assert outputs() == plain


def test_cli_import_leaves_the_process_pool_unloaded(tmp_path):
    """``--jobs`` forks its workers itself, so neither a CLI start nor a call with
    workers pays for importing ``multiprocessing`` and its process pool."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    pool = "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    argv = ["eval", "--domain", "starcraft", "--policy", "random", "--bins", "1-5",
            "--episodes-per-bin", "8", "--jobs", "2", "--out", str(tmp_path / "eval.csv")]
    probe = f"import sys, flowgrid.cli; {pool}; assert flowgrid.cli.main({argv!r}) == 0; {pool}"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n[]\n"


def test_pointer_import_loads_the_kernel_alone():
    """The package init imports nothing, so the kernel loads without the worlds and the
    harness."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    probe = ("import sys, flowgrid.pointer; "
             "print(sorted(name for name in sys.modules if name.split('.')[0] == 'flowgrid'))")
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['flowgrid', 'flowgrid.pointer', 'flowgrid.rngtools']\n"


# --- config file --------------------------------------------------------------------


def test_config_supplies_defaults(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"count": 7, "seed": 123, "max_len": 4}))
    out = tmp_path / "gen.jsonl"
    code, _, _ = run_cli(
        "--config", str(config), "gen", "--domain", "minecraft", "--out", str(out)
    )
    assert code == EXIT_OK
    rows = out.read_text().splitlines()
    assert len(rows) == 7
    for row in rows:
        assert len(json.loads(row)["encoded"]) <= 4


def test_cli_flags_override_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"count": 7}))
    out = tmp_path / "gen.jsonl"
    code, _, _ = run_cli(
        "--config", str(config), "gen", "--domain", "minecraft",
        "--count", "2", "--out", str(out),
    )
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 2


def test_unreadable_config_is_io_error(tmp_path):
    code, _, _ = run_cli("--config", str(tmp_path / "none.json"), "gen",
                         "--domain", "minecraft")
    assert code == EXIT_IO
    broken = tmp_path / "broken.json"
    # not JSON, not UTF-8, nested too deep, an integer past the digit limit
    for content in (b"{nope", b"\xff\xfe", TOO_DEEP.encode(),
                    f'{{"count": {TOO_LONG_INT}}}'.encode()):
        broken.write_bytes(content)
        code, _, err = run_cli("--config", str(broken), "gen", "--domain", "minecraft")
        assert code == EXIT_IO
        assert err.startswith(f"error: cannot read config {broken}: ")
        assert len(err.splitlines()) == 1  # a message, not a traceback


# values that only a config file supplies and that a command refuses once it
# reads them with the others (a spec, a policy, bins); each names its options
CONFIG_ONLY_REFUSALS = {
    "max-len-above-cap": ({"max_len": 101}, ["gen", "--domain", "starcraft", "--out"]),
    "lengths-swapped": ({"min_len": 5, "max_len": 3}, ["gen", "--domain", "starcraft", "--out"]),
    "multi-too-short": ({"flow": "multi", "max_len": 5}, ["gen", "--domain", "minecraft", "--out"]),
    "depth-on-minecraft": ({"max_depth": 3, "domain": "minecraft"}, ["run", "--out"]),
    "scripted-on-starcraft": ({"policy": "scripted:x.json", "domain": "starcraft"},
                              ["run", "--out"]),
    "unknown-policy": ({"policy": "clairvoyant"}, ["run", "--domain", "minecraft", "--out"]),
    "bin-from-zero": ({"bins": "0-3"}, ["eval", "--domain", "minecraft", "--out"]),
    "empty-bins": ({"bins": ""}, ["eval", "--domain", "minecraft", "--out"]),
}


@pytest.mark.parametrize(
    "config, argv",
    [
        *CONFIG_ONLY_REFUSALS.values(),
        ({"no_digests": "false"}, ["run", "--domain", "minecraft", "--out"]),
        ({"failure_buffer": "false"}, ["run", "--domain", "minecraft", "--out"]),
        ({"episodes": 2.5}, ["run", "--domain", "minecraft", "--out"]),
        ({"episodes": True}, ["run", "--domain", "minecraft", "--out"]),
        ({"mode": "bogus"}, ["scan-check", "--out-dir"]),
        ({"flow": "bogus"}, ["gen", "--domain", "minecraft", "--out"]),
        ({"func": 1}, ["gen", "--domain", "minecraft", "--out"]),
        ({"given": ["min_len"]}, ["eval", "--domain", "minecraft", "--out"]),
        ([1, 2], ["gen", "--domain", "minecraft", "--out"]),
        ({"episodes": "two"}, ["run", "--domain", "minecraft", "--out"]),
        ({"buffer_beta": "half"}, ["run", "--domain", "minecraft", "--out"]),
        ({"buffer_beta": True}, ["run", "--domain", "minecraft", "--out"]),
        ({"buffer_scale": 10**400}, ["run", "--domain", "minecraft", "--out"]),
    ],
    ids=[*CONFIG_ONLY_REFUSALS, "string-flag", "string-buffer-flag", "float-int", "bool-int",
         "mode-choice", "flow-choice", "func", "given", "not-object", "unparsed-int",
         "unparsed-float", "bool-float", "int-too-large-for-float"],
)
def test_bad_config_is_io_error_naming_the_file(tmp_path, config, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code, stdout, err = run_cli("--config", str(path), *argv, str(out))
    assert code == EXIT_IO
    assert str(path) in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("config, argv", CONFIG_ONLY_REFUSALS.values(),
                         ids=list(CONFIG_ONLY_REFUSALS))
def test_config_only_refusals_given_as_flags_are_usage_errors(tmp_path, config, argv):
    flags = [arg for key, value in config.items()
             for arg in ("--" + key.replace("_", "-"), str(value))]
    out = tmp_path / "out"
    code, stdout, err = run_cli(*argv[:-1], *flags, "--out", str(out))
    assert (code, stdout) == (EXIT_USAGE, ""), err
    assert "config" not in err
    assert not out.exists()


@pytest.mark.parametrize("config, argv", [
    ({"max_len": 3}, ["run", "--domain", "minecraft", "--max-depth", "3"]),
    ({"policy": "random"}, ["run", "--domain", "minecraft", "--policy", "clairvoyant"]),
    ({"jobs": 2}, ["run", "--domain", "minecraft", "--failure-buffer"]),
    ({"max_depth": 2}, ["eval", "--domain", "minecraft", "--longjump"]),
], ids=["max-depth", "policy", "failure-buffer", "longjump"])
def test_a_refusal_of_a_flag_with_a_config_value_is_a_usage_error(tmp_path, config, argv):
    # every option, a store_true flag included, counts as given on the command line
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, stdout, err = run_cli("--config", str(path), *argv, "--out", str(tmp_path / "out"))
    assert (code, stdout) == (EXIT_USAGE, ""), err
    assert str(path) not in err


def test_config_supplies_a_required_option(tmp_path):
    # the config value serves as the default of --domain and --trace; a flag still wins
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"domain": "minecraft"}))
    code, out, err = run_cli("--config", str(config), "gen", "--count", "1")
    assert code == EXIT_OK, err
    assert json.loads(out)["domain"] == "minecraft"
    code, out, _ = run_cli("--config", str(config), "gen", "--count", "1",
                           "--domain", "starcraft")
    assert code == EXIT_OK and json.loads(out)["domain"] == "starcraft"
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli("--config", str(config), "run", "--episodes", "2",
                         "--out", str(trace))
    assert code == EXIT_OK
    config.write_text(json.dumps({"trace": str(trace)}))
    code, _, err = run_cli("--config", str(config), "replay", "--quiet")
    assert code == EXIT_OK
    assert err == "replay ok: 2 episode(s) verified\n"


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"domain": "chess"}, ["gen", "--count", "1"]),
        ({"domain": None}, ["gen", "--count", "1"]),
        ({"trace": None}, ["replay", "--quiet"]),
    ],
    ids=["domain-choice", "domain-null", "trace-null"],
)
def test_bad_config_value_of_a_required_option_is_io_error(tmp_path, config, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, stdout, err = run_cli("--config", str(path), *argv)
    assert code == EXIT_IO
    assert str(path) in err
    assert stdout == ""


@pytest.mark.parametrize(
    "key, value, argv",
    [
        ("buffer_beta", "nan", ["run", "--domain", "minecraft", "--failure-buffer"]),
        ("buffer_scale", -1.0, ["run", "--domain", "minecraft", "--failure-buffer"]),
        ("episodes", 0, ["run", "--domain", "minecraft"]),
        ("jobs", 0, ["run", "--domain", "minecraft"]),
        ("episodes_per_bin", 0, ["eval", "--domain", "minecraft"]),
        ("count", 0, ["gen", "--domain", "minecraft"]),
        ("trials", 0, ["scan-check"]),
        ("block_min", 0, ["eval", "--domain", "minecraft", "--longjump"]),
        ("block_max", 41, ["eval", "--domain", "minecraft", "--longjump"]),
    ],
)
def test_out_of_range_config_value_is_io_error_naming_the_file(tmp_path, key, value, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    code, stdout, err = run_cli("--config", str(path), *argv)
    assert (code, stdout) == (EXIT_IO, "")
    assert err.startswith(f"error: config {path} sets {key!r} to {value!r}: ")
    # the same value on the command line is the flag's fault
    code, _, err = run_cli(*argv, "--" + key.replace("_", "-"), str(value))
    assert code == EXIT_USAGE
    assert str(path) not in err


def test_config_int_for_a_float_option_runs_as_the_command_line_float(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"buffer_beta": 1, "buffer_scale": 2}))
    common = ("run", "--domain", "minecraft", "--policy", "random", "--max-len", "3",
              "--episodes", "20", "--failure-buffer", "--seed", "5", "--out")
    from_config, from_flags = tmp_path / "config.jsonl", tmp_path / "flags.jsonl"
    code, _, err = run_cli("--config", str(config), *common, str(from_config))
    assert code == EXIT_OK, err
    code, _, err = run_cli(*common, str(from_flags), "--buffer-beta", "1", "--buffer-scale", "2")
    assert code == EXIT_OK, err
    assert from_config.read_bytes() == from_flags.read_bytes()
    code, _, _ = run_cli(*common, str(from_flags))  # the defaults retry other seeds
    assert code == EXIT_OK
    assert from_config.read_bytes() != from_flags.read_bytes()


def test_config_values_of_each_kind_are_taken(tmp_path):
    # a bool for a flag, a string for a typed option, null for a None default
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"no_digests": True, "episodes": "2", "max_depth": None, "flow": "single"}))
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli("--config", str(config), "run", "--domain", "minecraft",
                         "--out", str(trace))
    assert code == EXIT_OK
    steps = [json.loads(line) for line in trace.read_text().splitlines()]
    assert sum(r["kind"] == "header" for r in steps) == 2
    assert all(r["digest"] is None for r in steps if r["kind"] == "step")


# --- README ---------------------------------------------------------------------------


def _readme_example(text, command):
    """``command``'s argv as README gives it, and the first fenced block after it."""
    words = command.split()
    at = re.search(r"\s+".join(map(re.escape, words)), text)
    assert at, f"README no longer gives {command!r}"
    blocks = re.finditer(r"^```\w*\n(.*?)^```$", text, re.S | re.M)
    return words, next(block[1] for block in blocks if block.start() > at.end())


def test_readme_examples_print_what_readme_quotes(tmp_path, monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    monkeypatch.chdir(tmp_path)  # scan-check writes under a relative --out-dir
    # README wraps the gen lines, so they are compared as JSON values
    argv, quoted = _readme_example(
        text, "gen --domain minecraft --count 2 --seed 7 --min-len 4 --max-len 6")
    code, stdout, err = run_cli(*argv)
    assert code == EXIT_OK, err
    values = json.loads("[" + quoted.replace("}\n{", "},{") + "]")
    assert [json.loads(line) for line in stdout.splitlines()] == values
    for command in (
        "run --domain minecraft --policy oracle --min-len 2 --max-len 3 --episodes 1 --seed 0",
        "scan-check --trials 1000 --max-len 25 --out-dir scan/",
    ):
        argv, quoted = _readme_example(text, command)
        code, stdout, err = run_cli(*argv)
        assert code == EXIT_OK, err
        assert stdout == quoted, command
    _, library = _readme_example(text, "## Library use")
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(library, "README.md", "exec"), {})
