"""Command-line behaviour: exit codes, files, determinism across jobs."""

import contextlib
import io
import json

import pytest

from flowgrid.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from flowgrid.instructions import decode, parse_text


def run_cli(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


# --- usage errors -------------------------------------------------------------------


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


def test_longjump_requires_minecraft():
    code, _, _ = run_cli("eval", "--domain", "starcraft", "--longjump")
    assert code == EXIT_USAGE


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


def test_run_jobs_byte_identical(tmp_path):
    solo, multi = tmp_path / "solo.jsonl", tmp_path / "multi.jsonl"
    base = ["run", "--domain", "minecraft", "--episodes", "6", "--seed", "13",
            "--max-len", "6"]
    assert run_cli(*base, "--jobs", "1", "--out", str(solo))[0] == EXIT_OK
    assert run_cli(*base, "--jobs", "3", "--out", str(multi))[0] == EXIT_OK
    assert solo.read_bytes() == multi.read_bytes()


def test_replay_missing_file_is_io_error(tmp_path):
    code, _, _ = run_cli("replay", "--trace", str(tmp_path / "absent.jsonl"))
    assert code == EXIT_IO


def test_replay_malformed_trace_is_io_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    code, _, _ = run_cli("replay", "--trace", str(bad))
    assert code == EXIT_IO


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
    "domain, key, value",
    [
        ("minecraft", "domain", _DELETE),
        ("minecraft", "flow", "bogus"),
        ("starcraft", "max_depth", 0),
        ("minecraft", "seed", None),
        ("starcraft", "seed", "0"),
    ],
    ids=["no-domain", "bad-flow", "zero-max-depth", "null-seed", "string-seed"],
)
def test_replay_bad_header_is_io_error(tmp_path, domain, key, value):
    trace, records = _recorded_records(tmp_path, domain)
    header = records[0] if key == "seed" else records[0]["spec"]
    if value is _DELETE:
        del header[key]
    else:
        header[key] = value
    _rewrite(trace, records)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_IO
    assert "malformed trace" in err


@pytest.mark.parametrize(
    "domain, field, value",
    [("minecraft", "verb", "dance"), ("starcraft", "kind", "select_dance")],
)
def test_replay_unknown_command_is_io_error(tmp_path, domain, field, value):
    trace, records = _recorded_records(tmp_path, domain)
    step = next(r for r in records if r["kind"] == "step")
    step["command"][field] = value
    _rewrite(trace, records)
    code, _, err = run_cli("replay", "--trace", str(trace), "--quiet")
    assert code == EXIT_IO
    assert "malformed trace" in err


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


def test_scan_check_printed_formula_mode():
    code, out, _ = run_cli(
        "scan-check", "--trials", "40", "--max-len", "5", "--mode", "printed-formula"
    )
    assert code == EXIT_OK
    assert "skipped" in out


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
    broken.write_text("{nope")
    code, _, _ = run_cli("--config", str(broken), "gen", "--domain", "minecraft")
    assert code == EXIT_IO
