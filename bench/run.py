"""flowgrid benchmark: five CLI workloads, end-to-end metrics, and a traced run per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record-fingerprints 0-10

Workloads are defined in ``bench/workloads.py``.  Each repetition is one
``flowgrid.cli.main`` call in a fresh process (``bench/child.py``), issued
one at a time.  The checkout's ``src`` is imported; the benchmark fails
without it.  Outputs go under ``.bench_out/<workload>/``.

``--trace 0`` measures with tracing off and reports the end-to-end metrics:

* ``ops_per_s``: operations (episodes, or trials on scan-check) per second
  of CLI call time, summed over chunks, each chunk's time being the median
  of its repetitions;
* ``setup_s``: median set-up sample; a sample is one fresh process's import
  of flowgrid plus the input it prepares (the replay trace, on replay);
* ``peak_rss_mb``: median peak resident memory of the repetition processes.

The machine this runs on is shared, and its speed drifts by tens of percent
over seconds to minutes.  So every process also times a fixed pure-Python
probe, on as many threads as the call uses, just before and after the call
(``child.py``), and each time above is scaled by ``PROBE_REF_S`` over that
process's probe time: the metrics read as on a machine where one probe
thread takes ``PROBE_REF_S``.  The probe does not touch flowgrid, so a change
to the program moves the metrics in full.  The unscaled rate is printed too.

``--trace 1`` alternates untraced and traced calls on chunk 0 and reports
the per-layer metrics of ``bench/spans.py`` plus ``trace.overhead``, the
median traced over the median untraced call time, unscaled.  Counts and ratios must repeat exactly between the
traced calls; a difference is a benchmark error.

Every call's output is checked (see ``workloads.judge``) against the
fingerprint recorded in ``bench/reference.json`` for that seed when there is
one, and against the first repetition of the same chunk in this run.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Exit code 2 means the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, fill, judge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
DEADLINE_S = 170.0
PROBE_REF_S = 0.05  # probe seconds per thread on the reference machine

END_TO_END = (("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
OVERHEAD = ("trace.overhead", "ratio")


class BenchmarkError(Exception):
    pass


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


class Session:
    """One workload run: a work directory, a deadline and the reference fingerprints."""

    def __init__(self, workload, seed: int, reference: dict):
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + DEADLINE_S
        self.workdir = ROOT / ".bench_out" / workload.name
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.jobs = 0
        layout = reference.get("layouts", {}).get(workload.name)
        if layout is not None and layout != workload.layout:
            raise BenchmarkError(
                f"{REFERENCE.name} fingerprints {workload.name} as {layout!r}, "
                f"not {workload.layout!r}; record them again"
            )
        stored = reference.get("fingerprints", {}).get(workload.name, {}).get(str(seed))
        self.expected = list(stored) if stored else [None] * workload.chunks

    def child(self, calls: list, trace: bool = False) -> dict:
        self.jobs += 1
        job_path = self.workdir / f"job{self.jobs}.json"
        report_path = self.workdir / f"report{self.jobs}.json"
        job = {"src": str(ROOT / "src"), "trace": trace, "calls": calls,
               "report": str(report_path)}
        job_path.write_text(json.dumps(job), encoding="utf-8")
        remaining = self.deadline - time.perf_counter()
        if remaining < 1.0:
            raise BenchmarkError(f"out of time after {self.jobs - 1} processes")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(job_path)],
                cwd=ROOT, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError("a repetition ran past the deadline") from None
        if proc.returncode != 0:
            raise BenchmarkError(f"child process failed ({proc.returncode}): "
                                 f"{proc.stderr.strip()[-1000:]}")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        job_path.unlink()
        report_path.unlink()
        return report

    def chunk_file(self, chunk: int) -> Path:
        return self.workdir / f"chunk{chunk}.out"

    def prepare(self, chunk: int):
        """Write the chunk's input; returns (exit code, set-up seconds)."""
        path = self.chunk_file(chunk)
        path.unlink(missing_ok=True)
        calls = [{"argv": fill(argv, self.seed, chunk, "-"), "stdout_path": str(path),
                  "probe_threads": 1}
                 for argv in self.workload.prep]
        report = self.child(calls)
        rc = next((c["rc"] for c in report["calls"] if c["rc"] != 0), 0)
        probe_s = statistics.mean(c["probe_s"] for c in report["calls"])
        return rc, report["total_s"] * PROBE_REF_S / probe_s

    def repeat(self, chunk: int, trace: bool = False, prep_rc: int = 0) -> dict:
        """One repetition of ``chunk``: the call, its verdict, its timings."""
        path = self.chunk_file(chunk)
        call = {"argv": fill(self.workload.argv, self.seed, chunk, str(path)),
                "probe_threads": self.workload.threads}
        if self.workload.command == "scan-check":
            path.unlink(missing_ok=True)
            call["stdout_path"] = str(path)
        if trace:
            call["spans_path"] = str(self.workdir / "spans.tsv")
        report = self.child([call], trace)
        result = report["calls"][0]
        rc = prep_rc if prep_rc != 0 else result["rc"]
        data = path.read_bytes() if path.exists() else b""
        verdict = judge(self.workload, rc, result["stderr"], data, self.expected[chunk])
        if self.expected[chunk] is None and verdict.failed == 0:
            self.expected[chunk] = verdict.sha256
        scale = PROBE_REF_S * self.workload.threads / result["probe_s"]
        return {"chunk": chunk, "verdict": verdict, "wall_s": result["wall_s"],
                "scaled_s": result["wall_s"] * scale, "setup_s": report["import_s"] * scale,
                "maxrss_mb": report["maxrss_mb"], "layers": result.get("layers")}


def _setup(session, chunks: int) -> tuple:
    """Prepare the first ``chunks`` inputs; returns (exit codes, set-up samples)."""
    if not session.workload.prep:
        return [0] * chunks, []
    prepared = [session.prepare(k) for k in range(chunks)]
    return [rc for rc, _ in prepared], [seconds for _, seconds in prepared]


def _call_time(reps: list, key: str) -> float:
    """Sum over chunks of the median call time of each chunk's repetitions."""
    return sum(
        statistics.median(rep[key] for rep in reps if rep["chunk"] == chunk)
        for chunk in {rep["chunk"] for rep in reps}
    )


def measure(session, seconds: float) -> tuple:
    """Round-robin over the chunks with tracing off for ``seconds``."""
    workload = session.workload
    prep_rcs, setup_samples = _setup(session, workload.chunks)
    reps = []
    start = time.perf_counter()
    while len(reps) < workload.chunks or time.perf_counter() - start < seconds:
        chunk = len(reps) % workload.chunks
        reps.append(session.repeat(chunk, prep_rc=prep_rcs[chunk]))
    if not setup_samples:
        setup_samples = [rep["setup_s"] for rep in reps]
    metrics = {
        "ops_per_s": workload.ops * workload.chunks / _call_time(reps, "scaled_s"),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(rep["maxrss_mb"] for rep in reps),
    }
    return reps, {name: (metrics[name], unit) for name, unit in END_TO_END}


def measure_layers(session, seconds: float) -> tuple:
    """Alternate untraced and traced calls on chunk 0; per-layer metrics."""
    prep_rcs, _ = _setup(session, 1)
    reps = []
    start = time.perf_counter()
    while len(reps) < 4 or time.perf_counter() - start < seconds:
        reps.append(session.repeat(0, trace=len(reps) % 2 == 1, prep_rc=prep_rcs[0]))
    traced = [rep for rep in reps if rep["layers"] is not None]
    plain = [rep for rep in reps if rep["layers"] is None]
    first = traced[0]["layers"]
    for rep in traced[1:]:
        differ = [name for name in first
                  if spans.is_deterministic(name) and rep["layers"][name] != first[name]]
        if differ:
            raise BenchmarkError(f"counts differ between traced runs: {', '.join(differ)}")
    metrics = {}
    for name, unit in spans.LAYER_METRICS:
        values = [rep["layers"][name] for rep in traced]
        metrics[name] = (values[0] if spans.is_deterministic(name)
                         else statistics.median(values), unit)
    # traced and untraced calls alternate, so both see the same machine speed
    overhead = _call_time(traced, "wall_s") / _call_time(plain, "wall_s")
    metrics[OVERHEAD[0]] = (overhead, OVERHEAD[1])
    return reps, metrics


def _report(workload, seed: int, reps: list, metrics: dict, trace: bool) -> dict:
    attempted = sum(rep["verdict"].ops for rep in reps)
    failed = sum(rep["verdict"].failed for rep in reps)
    print(f"{workload.name} seed={seed} trace={int(trace)}: {len(reps)} calls, "
          f"{attempted} operations, {failed} failed")
    for rep in reps:
        if rep["verdict"].reason:
            print(f"  chunk {rep['chunk']}: {rep['verdict'].reason}")
    for chunk in sorted({rep["chunk"] for rep in reps}):
        walls = " ".join(f"{rep['wall_s']:.4f}/{rep['scaled_s']:.4f}" for rep in reps
                         if rep["chunk"] == chunk and rep["layers"] is None)
        print(f"  chunk {chunk} call seconds (measured/scaled): {walls}")
    if not trace:
        ops_per_s = metrics["ops_per_s"][0]
        unscaled = workload.ops * workload.chunks / _call_time(reps, "wall_s")
        print(f"  unscaled ops_per_s = {unscaled:.6g} 1/s")
        steps = sum(rep["verdict"].steps for rep in reps)
        if workload.command == "scan-check":
            print(f"  trials_per_s = {ops_per_s:.6g} 1/s")
        else:
            print(f"  episodes_per_s = {ops_per_s:.6g} 1/s")
        if steps:
            print(f"  steps_per_s = {ops_per_s * steps / attempted:.6g} 1/s")
        print(f"  failed_frac = {failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def record_fingerprints(seeds) -> None:
    """Run every chunk of every workload once per seed and store the output fingerprints."""
    reference = load_reference()
    layouts = reference.setdefault("layouts", {})
    table = reference.setdefault("fingerprints", {})
    for workload in WORKLOADS.values():
        if layouts.get(workload.name) != workload.layout:
            table[workload.name] = {}
        layouts[workload.name] = workload.layout
        for seed in seeds:
            session = Session(workload, seed, {})
            prep_rcs, _ = _setup(session, workload.chunks)
            shas = []
            for chunk in range(workload.chunks):
                verdict = session.repeat(chunk, prep_rc=prep_rcs[chunk])["verdict"]
                if verdict.failed:
                    raise BenchmarkError(f"{workload.name} seed {seed}: {verdict.reason}")
                shas.append(verdict.sha256)
            table[workload.name][str(seed)] = shas
            print(f"{workload.name} seed={seed}: {' '.join(s[:12] for s in shas)}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


def _seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    reference = load_reference()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=reference.get("default_seed", 0))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", metavar="LO-HI", type=_seed_range,
                        help="store output fingerprints for these workload seeds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flowgrid" / "cli.py").is_file():
        print(f"error: no flowgrid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_fingerprints:
            record_fingerprints(args.record_fingerprints)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        workload = WORKLOADS[args.workload]
        session = Session(workload, args.seed, reference)
        run = measure_layers if args.trace else measure
        reps, metrics = run(session, args.seconds)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = _report(workload, args.seed, reps, metrics, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
