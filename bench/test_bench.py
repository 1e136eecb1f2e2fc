"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, Workload, fingerprint, judge

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_every_metric_has_a_valid_name_and_a_unit():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
    names = [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))


def test_benchmark_json_matches_what_the_code_reports():
    declared = lambda key: [(m["name"], m["unit"]) for m in BENCHMARK[key]]
    assert declared("end_to_end") == list(run.END_TO_END)
    assert declared("per_layer") == list(spans.LAYER_METRICS) + [run.OVERHEAD]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def _span(sid, name, start, end, parent=0, tag=None):
    return (sid, name, float(start), float(end), parent, 0, tag)


def test_self_time_subtracts_the_union_of_children_from_two_threads():
    spans_ = [
        _span(1, "evaluate.evaluate", 0, 10),
        # two worker threads: overlapping children of span 1, union [1, 8]
        _span(2, "harness.run_episode", 1, 4, parent=1),
        _span(3, "harness.run_episode", 2, 8, parent=1),
        _span(4, "starcraft.observe", 2, 3, parent=2),
        # a child reaching past its parent is clipped to the parent's end
        _span(5, "starcraft.observe", 7, 9, parent=3),
    ]
    assert spans.self_times(spans_) == {1: 3.0, 2: 2.0, 3: 5.0, 4: 1.0, 5: 2.0}
    layers = spans.layer_metrics(spans_)
    assert layers["evaluate.evaluate.self_s"] == 3.0
    assert layers["harness.run_episode.self_s"] == 7.0
    assert layers["harness.run_episode.calls"] == 2
    assert layers["starcraft.observe.self_s"] == 3.0


def test_recorder_parents_executor_tasks_to_the_submitting_span():
    recorder = spans.Recorder()
    executor = recorder.traced_executor(ThreadPoolExecutor)
    inner_threads = set()

    def inner():
        inner_threads.add(threading.get_ident())
        recorder.call("harness.act", time.sleep, (0.01,))
        time.sleep(0.04)

    def outer():
        with executor(max_workers=2) as pool:
            for future in [pool.submit(recorder.call, "harness.run_episode", inner)
                           for _ in range(2)]:
                future.result()

    recorder.call("evaluate.evaluate", outer)
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[1], []).append(span)
    (root,) = by_name["evaluate.evaluate"]
    episodes = by_name["harness.run_episode"]
    assert threading.get_ident() not in inner_threads
    assert [span[4] for span in episodes] == [root[0], root[0]]
    # each episode span starts an episode; its child carries that episode id
    for act in by_name["harness.act"]:
        parent = next(span for span in episodes if span[0] == act[4])
        assert act[5] == parent[0] == parent[5]
    selfs = spans.self_times(recorder.spans)
    assert 0.0 <= selfs[root[0]] < (root[3] - root[2]) - 0.04
    for span in episodes:
        assert selfs[span[0]] == pytest.approx((span[3] - span[2]) - 0.01, abs=0.01)


def test_in_gate_fraction_follows_ancestors():
    layers = spans.layer_metrics([
        _span(1, "minecraft.gate", 0, 4, tag=True),
        _span(2, "minecraft.step", 1, 2, parent=1),
        _span(3, "minecraft.step", 5, 6),
        _span(4, "minecraft.step", 6, 7),
        _span(5, "minecraft.static_check", 7, 8, tag=False),
    ])
    assert layers["minecraft.step.in_gate_frac"] == pytest.approx(1 / 3)
    assert layers["minecraft.gate.accept_ratio"] == 1.0
    assert layers["minecraft.static_check.reject_ratio"] == 1.0
    assert all(name in layers for name, _ in spans.LAYER_METRICS)


def _trace(outcomes) -> bytes:
    lines = []
    for index, outcome in enumerate(outcomes):
        lines.append({"kind": "header", "episode": index})
        lines.append({"kind": "step", "t": 1})
        lines.append({"kind": "end", "episode": index, "outcome": outcome})
    return "".join(json.dumps(line) + "\n" for line in lines).encode()


RUN2 = Workload("run2", "two oracle episodes", ("run", "--out", "{file}"), ops=2, chunks=1)


def test_a_tampered_fingerprint_fails_every_operation_of_the_call():
    data = _trace(["success", "success"])
    good = judge(RUN2, 0, "", data, fingerprint(data))
    assert (good.failed, good.steps) == (0, 2)
    bad = judge(RUN2, 0, "", data, "0" * 64)
    assert bad.failed == RUN2.ops and "fingerprint" in bad.reason


def test_failed_oracle_episodes_and_exit_codes_count_as_failures():
    assert judge(RUN2, 0, "", _trace(["success", "timeout"]), None).failed == 1
    assert judge(RUN2, 2, "replay mismatch", _trace(["success"] * 2), None).failed == 2
    assert judge(RUN2, 0, "", _trace(["success"]), None).failed == 2


def test_tampered_reference_is_counted_in_failed_frac(capsys):
    workload = WORKLOADS["scan-check"]
    reference = {
        "layouts": {workload.name: workload.layout},
        "fingerprints": {workload.name: {"7": ["0" * 64] * workload.chunks}},
    }
    session = run.Session(workload, 7, reference)
    reps = [session.repeat(0)]
    result = run._report(workload, 7, reps, {"ops_per_s": (1.0, "1/s")}, trace=False)
    assert result["attempted"] == workload.ops
    assert result["failed"] == workload.ops
    assert result["correct"] is False
    assert "failed_frac = 1" in capsys.readouterr().out


def test_stale_reference_layout_is_a_benchmark_error():
    workload = WORKLOADS["scan-check"]
    with pytest.raises(run.BenchmarkError):
        run.Session(workload, 0, {"layouts": {workload.name: "scan-check --trials 1"}})
