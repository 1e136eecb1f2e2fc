"""Acceptance checklist.

Fourteen numbered checks, one printed PASS/FAIL line each (emitted outside
pytest's capture so the lines always show).  Tolerances and sample sizes
are pinned here on purpose; loosening them is not a fix.
"""

import contextlib
import io
import time

import numpy as np

from flowgrid import minecraft, pointer
from flowgrid.cli import main as cli_main
from flowgrid.errors import SpawnInfeasible
from flowgrid.evaluate import DEFAULT_BINS, evaluate, longjump_sweep
from flowgrid.generators import gen_minecraft, gen_starcraft
from flowgrid.harness import EpisodeSpec, FailureBuffer, run_episode
from flowgrid.instructions import flow_kinds, validate
from flowgrid import rngtools
from flowgrid.rngtools import derived_seed, substream
from flowgrid.starcraft import enumerate_command_space, legal_train_commands
from flowgrid.starcraft import spawn as spawn_starcraft

ORACLE_TOL = 1e-12
GRADIENT_TOL = 1e-4


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _sigma_batch(rng, length, count):
    sigmas = rng.random((count, 2 * length))
    # sprinkle exact saturation to stress the products
    hard = rng.random((count, 2 * length)) < 0.02
    sigmas[hard] = np.where(rng.random(hard.sum()) < 0.5, 0.0, 1.0)
    return sigmas


def test_c01_c02_scan_oracle_normalization(capsys):
    rng = substream(101, "acceptance", "scan")
    start = time.perf_counter()
    max_diff = 0.0
    max_norm = 0.0
    max_resid = 0.0
    for length in (1, 2, 5, 10, 25, 50):
        for sigma in _sigma_batch(rng, length, 1000):
            probs, residual = pointer.scan_column(sigma)
            expect_p, expect_r = pointer.brute_force_oracle(sigma)
            max_diff = max(max_diff, float(np.abs(probs - expect_p).max()))
            max_diff = max(max_diff, abs(residual - expect_r))
            max_norm = max(max_norm, abs(probs.sum() + residual - 1.0))
            max_resid = max(max_resid, abs(residual - float(np.prod(1.0 - sigma))))
    elapsed = time.perf_counter() - start
    _report(
        capsys,
        1,
        max_diff < ORACLE_TOL and elapsed < 10.0,
        f"scan vs oracle max diff {max_diff:.2e} over 6000 columns in {elapsed:.2f}s",
    )
    _report(
        capsys,
        2,
        max_norm < ORACLE_TOL and max_resid < ORACLE_TOL,
        f"normalization err {max_norm:.2e}, residual-product err {max_resid:.2e}",
    )


def test_c03_gradient_check(capsys):
    rng = rngtools.draws(103, "acceptance", "grad")
    sweep = pointer.gradient_sweep(rng, trials=100, max_len=25)
    _report(
        capsys,
        3,
        sweep["max_rel_err"] < GRADIENT_TOL,
        f"jacobian vs finite differences max rel err {sweep['max_rel_err']:.2e}",
    )


def test_c04_translation_invariance(capsys):
    rng = substream(104, "acceptance", "shift")
    reach = 5
    rows = pointer.deltas(reach)
    program_len = 41
    center = 20
    mismatches = 0
    for _ in range(100):
        window = rng.uniform(-6.0, 6.0, size=2 * reach)
        noise = rng.uniform(-6.0, 6.0, size=program_len)
        reference = None
        for shift in range(-5, 6):
            position = center + shift
            features = noise.copy()
            for row, delta in enumerate(rows):
                features[position + delta] = window[row]
            logits = np.array([features[position + d] for d in rows])
            probs, residual = pointer.scan_column(pointer.sigmoid(logits))
            landing = position + rows[int(np.argmax(probs))]
            relative = (probs.tobytes(), residual, landing - position)
            if reference is None:
                reference = relative
            elif relative != reference:
                mismatches += 1
    _report(
        capsys,
        4,
        mismatches == 0,
        f"{mismatches} of 100 patterns changed under shifts -5..5 (bitwise)",
    )


def test_c05_long_jump_mass(capsys):
    reach = 50
    worst = 1.0
    for target in range(1, reach + 1):
        logits = np.full(2 * reach, -10.0)
        logits[pointer.row_of_delta(reach, target)] = 10.0
        probs, _ = pointer.scan_column(pointer.sigmoid(logits))
        worst = min(worst, float(probs[pointer.row_of_delta(reach, target)]))
    _report(capsys, 5, worst > 0.99, f"min P(+m) over m=1..50 is {worst:.4f}")


def test_c06_minecraft_oracle_all_bins(capsys):
    start = time.perf_counter()
    spec = EpisodeSpec("minecraft", 1, 10)
    results = evaluate(spec, "oracle", list(DEFAULT_BINS), episodes_per_bin=500,
                       base_seed=106)
    elapsed = time.perf_counter() - start
    rates = {f"{r.lo}-{r.hi}": r.success_rate for r in results}
    ok = all(rate == 1.0 for rate in rates.values()) and elapsed < 120.0
    _report(capsys, 6, ok, f"500-episode bins {rates} in {elapsed:.1f}s")


def test_c07_starcraft_oracle(capsys):
    clean = EpisodeSpec("starcraft", 1, 25, disruptions=False)
    wins = 0
    for j in range(500):
        trace = run_episode(clean, "oracle", derived_seed(107, f"c{j}"),
                            record_digests=False)
        wins += trace["end"]["outcome"] == "success"
    noisy = EpisodeSpec("starcraft", 1, 25, disruptions=True)
    outcomes = {}
    noops = 0
    for j in range(500):
        trace = run_episode(noisy, "oracle", derived_seed(107, f"n{j}"),
                            record_digests=False)
        outcomes[trace["end"]["outcome"]] = outcomes.get(trace["end"]["outcome"], 0) + 1
        noops += sum(1 for step in trace["steps"] if step["noop"])
    timeout_rate = outcomes.get("timeout", 0) / 500
    ok = (
        wins == 500
        and noops == 0
        and outcomes.get("out_of_order", 0) == 0
        and timeout_rate < 0.20
    )
    _report(
        capsys,
        7,
        ok,
        f"clean {wins}/500, disrupted outcomes {outcomes}, "
        f"noops {noops}, timeout rate {timeout_rate:.3f}",
    )


def test_c08_disruption_rates(capsys):
    rng = rngtools.draws(108, "acceptance", "rates")
    tree, instruction = gen_starcraft(rng, 8)
    world = spawn_starcraft(rng, tree, instruction, disruption_rng=rngtools.draws(108, "rolls"))
    draws = 100_000
    attacks = ambushes = 0
    for _ in range(draws):
        report = world.roll_disruptions()
        attacks += report.attack
        ambushes += report.ambush
    band = 4.0 * (0.1 * 0.9 / draws) ** 0.5
    a_rate, m_rate = attacks / draws, ambushes / draws
    ok = abs(a_rate - 0.1) < band and abs(m_rate - 0.1) < band
    _report(
        capsys,
        8, ok,
        f"attack {a_rate:.4f}, ambush {m_rate:.4f} vs 0.1 +/- {band:.4f} (4 sigma)",
    )


def test_c09_action_space_audit(capsys):
    counts = enumerate_command_space()
    rng = rngtools.draws(109, "acceptance", "audit")
    tree, instruction = gen_starcraft(rng, 10)
    world = spawn_starcraft(rng, tree, instruction)
    trainable = legal_train_commands(world)
    ok = (
        counts["build"] == 1512
        and counts["goto"] == 108
        and counts["train"] == 576
        and trainable <= 576
    )
    _report(
        capsys,
        9, ok,
        f"build {counts['build']}, goto {counts['goto']}, "
        f"train {counts['train']} (situated {trainable} <= 576)",
    )


def test_c10_grammar_conformance(capsys):
    rng = rngtools.draws(110, "acceptance", "grammar")
    bad = 0
    for _ in range(10_000):
        if not validate(gen_minecraft(rng, (1, 10))).ok:
            bad += 1
    multi_bad = sum(
        len(flow_kinds(ins)) < 2 or not validate(ins).ok
        for ins in (gen_minecraft(rng, (6, 12), "multi") for _ in range(2000))
    )
    single_bad = sum(
        len(flow_kinds(ins)) > 1 or not validate(ins).ok
        for ins in (gen_minecraft(rng, (1, 12), "single") for _ in range(2000))
    )
    ok = bad == 0 and multi_bad == 0 and single_bad == 0
    _report(
        capsys,
        10, ok,
        f"10000 samples: {bad} invalid; multi filter misses {multi_bad}/2000, "
        f"single filter misses {single_bad}/2000",
    )


def test_c11_spawning_rules(capsys):
    rng = rngtools.draws(111, "acceptance", "spawn")
    violations = 0
    infeasible = 0
    for call in range(10_000):
        instruction = gen_minecraft(rng, (1, 8))
        try:
            world = minecraft.spawn(rng, instruction, seed=call)
        except SpawnInfeasible as exc:
            infeasible += 1
            if len(exc.attempts) > 51:  # initial try plus 50 resamples
                violations += 1
            continue
        attempts = world.spawn_attempts
        if len(attempts) > 51:  # initial try plus 50 resamples
            violations += 1
        for attempt in attempts:
            if attempt.stage != "static_reject" and (
                attempt.water_placed != (attempt.n <= 30)
            ):
                violations += 1
        open_before_walls = (
            set(world.entities) | world.water | {world.worker}
        )
        for (r, c) in world.walls:
            if r % 2 or c % 2 or (r, c) in open_before_walls:
                violations += 1
        accepted = attempts[-1]
        if bool(world.water) != (accepted.water_placed and not accepted.water_removed):
            violations += 1
    _report(
        capsys,
        11,
        violations == 0,
        f"10000 spawn calls ({infeasible} infeasible): {violations} rule violations",
    )


def test_c12_failure_buffer_law(capsys):
    buffer = FailureBuffer(beta=0.5, scale=1.0)
    buffer.update(seed=7, success=False)  # non-empty buffer
    buffer.success_average = 0.8  # pinned moving average
    rng = rngtools.draws(112, "acceptance", "buffer")
    draws = 100_000
    retries = sum(buffer.sample(rng) is not None for _ in range(draws))
    rate = retries / draws
    band = 4.0 * (0.8 * 0.2 / draws) ** 0.5
    _report(
        capsys,
        12,
        abs(rate - 0.8) < band,
        f"retry rate {rate:.4f} vs 0.8 +/- {band:.4f} (4 sigma)",
    )


def _cli_bytes(tmp_path, name, argv):
    out = tmp_path / name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv + ["--out", str(out)])
    assert code == 0, f"{argv} exited {code}"
    return out.read_bytes()


def test_c13_byte_identical_determinism(capsys, tmp_path):
    mismatches = []

    gen_argv = ["gen", "--domain", "starcraft", "--count", "25", "--seed", "31"]
    if _cli_bytes(tmp_path, "g1", gen_argv) != _cli_bytes(tmp_path, "g2", gen_argv):
        mismatches.append("gen")

    run_argv = ["run", "--domain", "minecraft", "--episodes", "8", "--seed", "31"]
    first = _cli_bytes(tmp_path, "r1", run_argv + ["--jobs", "1"])
    if first != _cli_bytes(tmp_path, "r2", run_argv + ["--jobs", "1"]):
        mismatches.append("run")
    if first != _cli_bytes(tmp_path, "r3", run_argv + ["--jobs", "3"]):
        mismatches.append("run --jobs")

    eval_argv = ["eval", "--domain", "starcraft", "--bins", "1-6",
                 "--episodes-per-bin", "6", "--seed", "31"]
    first = _cli_bytes(tmp_path, "e1", eval_argv + ["--jobs", "1"])
    if first != _cli_bytes(tmp_path, "e2", eval_argv + ["--jobs", "1"]):
        mismatches.append("eval")
    if first != _cli_bytes(tmp_path, "e3", eval_argv + ["--jobs", "2"]):
        mismatches.append("eval --jobs")

    for trial in ("s1", "s2"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(
                ["scan-check", "--trials", "50", "--max-len", "10",
                 "--grad-trials", "10", "--seed", "31",
                 "--out-dir", str(tmp_path / trial)]
            )
        assert code == 0
    for table in ("columns.csv", "gradients.csv"):
        if (tmp_path / "s1" / table).read_bytes() != (tmp_path / "s2" / table).read_bytes():
            mismatches.append(f"scan-check {table}")

    _report(
        capsys,
        13,
        not mismatches,
        "gen/run/eval/scan-check byte-identical across reruns and --jobs"
        if not mismatches
        else f"mismatched outputs: {mismatches}",
    )


def test_c14_longjump_sweep(capsys):
    results = longjump_sweep("oracle", range(1, 41), episodes_each=5, base_seed=114)
    failing = [r.lo for r in results if r.success_rate != 1.0]
    _report(
        capsys,
        14,
        not failing,
        f"oracle success 1.0 for all block lengths 1-40 (5 episodes each)"
        if not failing
        else f"blocks below 1.0: {failing}",
    )
