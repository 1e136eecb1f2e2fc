"""The benchmark's workloads: the CLI calls each one makes, and their output checks.

A workload run is a closed loop: one client issues one CLI call at a time,
each in a fresh process.  A round is one call per chunk; chunk ``k`` of
workload seed ``s`` passes ``--seed s*1000+k`` to the CLI, so the same seed
always gives the same inputs.  Several chunks per round spread the cost of
the rare slow episodes over more inputs.

An operation is one episode, or one trial on ``scan-check``.  A call's
operations all fail when it exits non-zero or crashes, or when its output
fingerprint differs from the reference; an oracle episode that does not
succeed fails on its own.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Optional, Tuple

ORACLE_LENGTHS = ("--min-len", "10", "--max-len", "20")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Tuple[str, ...]  # CLI arguments; "{seed}" and "{file}" are filled per call
    ops: int  # operations per call
    chunks: int  # calls per round, each on its own input seed
    # calls whose captured stdout, concatenated, is the input "{file}";
    # without them "{file}" is where the call's output lands
    prep: Tuple[Tuple[str, ...], ...] = ()

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def threads(self) -> int:
        """Worker threads the call runs (its --jobs), 1 without the option."""
        argv = list(self.argv)
        return int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1

    @property
    def layout(self) -> str:
        """Every argument that shapes the outputs; fingerprints are bound to it."""
        return " | ".join(" ".join(argv) for argv in self.prep + (self.argv,))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-run",
            "minecraft oracle run with digests and a trace file; ~80% of the time is spawn "
            "(generation, static check, placement, gate), so spawn gains show here",
            ("run", "--domain", "minecraft", "--policy", "oracle", *ORACLE_LENGTHS,
             "--episodes", "600", "--seed", "{seed}", "--out", "{file}"),
            ops=600,
            chunks=8,
        ),
        Workload(
            "sc-run",
            "starcraft oracle run with disruptions, digests and a trace file; time goes to "
            "the drive loop (sc_plan, step_token, observe, digest) and trace writing",
            ("run", "--domain", "starcraft", "--policy", "oracle", *ORACLE_LENGTHS,
             "--episodes", "300", "--seed", "{seed}", "--out", "{file}"),
            ops=300,
            chunks=3,
        ),
        Workload(
            "sc-eval-j2",
            "starcraft random policy to timeout on two threads, no digests or trace; "
            "observation cost shows, digest and sc_plan do not; the only multi-worker load",
            ("eval", "--domain", "starcraft", "--policy", "random", "--bins", "1-10,11-20",
             "--jobs", "2", "--episodes-per-bin", "40", "--seed", "{seed}", "--out", "{file}"),
            ops=80,
            chunks=4,
        ),
        Workload(
            "replay",
            "replay --quiet of a mixed oracle trace of both domains written at set-up; "
            "reads traces, re-spawns, re-steps, checks digests and renders frames",
            ("replay", "--quiet", "--trace", "{file}"),
            ops=300,
            chunks=4,
            # two starcraft episodes per minecraft one: starcraft episodes have
            # ~15x the steps, so re-stepping, digest checks and rendering lead,
            # and minecraft's rare slow spawns sway the total less
            prep=(
                ("run", "--domain", "minecraft", "--policy", "oracle", *ORACLE_LENGTHS,
                 "--episodes", "100", "--seed", "{seed}", "--out", "-"),
                ("run", "--domain", "starcraft", "--policy", "oracle", *ORACLE_LENGTHS,
                 "--episodes", "200", "--seed", "{seed}", "--out", "-"),
            ),
        ),
        Workload(
            "scan-check",
            "scan-check in stop-process mode with gradient trials; the only load on the "
            "pointer kernel (scan_column, oracles, analytic and numeric jacobians)",
            ("scan-check", "--mode", "stop-process", "--trials", "3000",
             "--grad-trials", "300", "--seed", "{seed}"),
            ops=3300,
            chunks=2,
        ),
    )
}


def cli_seed(seed: int, chunk: int) -> int:
    return seed * 1000 + chunk


def fill(argv, seed: int, chunk: int, path: str) -> list:
    values = {"{seed}": str(cli_seed(seed, chunk)), "{file}": path}
    return [values.get(arg, arg) for arg in argv]


def fingerprint(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Verdict:
    ops: int
    failed: int
    steps: int  # step records in the trace written or replayed
    sha256: str
    reason: Optional[str] = None


def _trace_counts(data: bytes):
    """(episodes, ends, non-success ends, steps) of a JSONL trace."""
    headers = ends = lost = steps = 0
    for line in data.decode("utf-8").splitlines():
        record = json.loads(line) if line.strip() else {}
        kind = record.get("kind")
        if kind == "header":
            headers += 1
        elif kind == "step":
            steps += 1
        elif kind == "end":
            ends += 1
            lost += record.get("outcome") != "success"
    return headers, ends, lost, steps


def judge(workload: Workload, rc, stderr: str, data: bytes, reference: Optional[str]) -> Verdict:
    """Check one call.  ``data`` is the fingerprinted output (the input, for replay)."""
    ops = workload.ops
    sha = fingerprint(data)
    verdict = Verdict(ops, 0, 0, sha)
    if rc != 0:
        verdict.failed, verdict.reason = ops, f"exit code {rc}: {stderr.strip()[-300:]}"
        return verdict
    if reference is not None and sha != reference:
        verdict.failed, verdict.reason = ops, f"output fingerprint {sha[:12]} != {reference[:12]}"
        return verdict
    command = workload.command
    try:
        if command in ("run", "replay"):
            headers, ends, lost, verdict.steps = _trace_counts(data)
            if headers != ops or ends != ops:
                verdict.failed, verdict.reason = ops, f"{headers} headers, {ends} ends for {ops}"
            elif lost:
                verdict.failed, verdict.reason = lost, f"{lost} oracle episode(s) did not succeed"
            elif command == "replay" and f"replay ok: {ops} episode(s) verified" not in stderr:
                verdict.failed, verdict.reason = ops, "replay did not verify every episode"
        elif command == "eval":
            rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
            per_bin = [int(row["episodes"]) for row in rows]
            if len(per_bin) != 2 or sum(per_bin) != ops or len(set(per_bin)) != 1:
                verdict.failed, verdict.reason = ops, f"eval episodes per bin {per_bin}"
        elif data.decode("utf-8").splitlines()[-1:] != ["PASS"]:
            verdict.failed, verdict.reason = ops, "scan-check did not PASS"
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        verdict.failed, verdict.reason = ops, f"unreadable output: {exc}"
    return verdict
