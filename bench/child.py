"""One repetition of a workload, in a fresh interpreter.

Usage: python3 bench/child.py JOB.json

The job names the checkout's ``src`` directory, the CLI calls to make and
whether to trace them.  The child imports flowgrid from that directory (and
from nowhere else), makes the calls through ``flowgrid.cli.main`` with
stdout and stderr captured, and writes a JSON report to the job's report
path: import time, each call's exit code and wall time, its own peak memory,
and for traced calls the per-layer metrics.  Around each call it times a
fixed pure-Python probe, which ``run.py`` uses to correct for the machine's
speed at that moment.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path


def _probe_task() -> None:
    counts = {}
    for i in range(100000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + len(str(i))
    json.dumps(sorted(counts.items()))


def _speed_probe(threads: int) -> float:
    """Seconds for a fixed pure-Python task, not involving flowgrid, on ``threads`` threads."""
    workers = [threading.Thread(target=_probe_task) for _ in range(threads)]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return time.perf_counter() - start


def _call(cli, call: dict, recorder) -> dict:
    out, err = io.StringIO(), io.StringIO()
    probe_before = _speed_probe(call["probe_threads"])
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if recorder is None:
                rc = cli.main(call["argv"])
            else:
                rc = recorder.call("cli", cli.main, (call["argv"],))
        except Exception:  # a crash is a failed call, reported to the parent
            rc = None
            traceback.print_exc()
    wall_s = time.perf_counter() - start
    probe_after = _speed_probe(call["probe_threads"])
    if call.get("stdout_path"):
        with open(call["stdout_path"], "a", encoding="utf-8", newline="") as handle:
            handle.write(out.getvalue())
    return {"rc": rc, "wall_s": wall_s, "probe_s": (probe_before + probe_after) / 2,
            "probe_total_s": probe_before + probe_after, "stderr": err.getvalue()[-2000:]}


def _write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id\tname\tstart\tend\tparent\tepisode\ttag\n")
        for span in spans:
            handle.write("\t".join(map(str, span)) + "\n")


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    started = time.perf_counter()
    sys.path.insert(0, str(src))
    from flowgrid import cli

    import_s = time.perf_counter() - started
    if Path(cli.__file__).resolve().parents[1] != src:
        print(f"flowgrid was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    recorder = None
    if job["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    calls = []
    for call in job["calls"]:
        result = _call(cli, call, recorder)
        if recorder is not None:
            result["layers"] = spans.layer_metrics(recorder.spans)
            if call.get("spans_path"):
                _write_spans(call["spans_path"], recorder.spans)
            recorder.spans = []
        calls.append(result)
    report = {
        "import_s": import_s,
        "total_s": time.perf_counter() - started - sum(c["probe_total_s"] for c in calls),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
    }
    Path(job["report"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
