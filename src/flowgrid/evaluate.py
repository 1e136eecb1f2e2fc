"""Binned policy evaluation with reproducible per-episode seeds."""

from __future__ import annotations

import csv
import math
# unused since episodes run through harness.map_episodes, but bench/spans.py
# still patches this name (see the benchmark follow-up in ROADMAP.md)
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace
from typing import IO, List, Optional, Sequence, Tuple, Union

# unused since eval plays episodes without step records, but bench/spans.py
# still patches this name too
from .harness import run_episode  # noqa: F401
from .harness import (
    EpisodeSpec,
    PolicySpec,
    map_episodes,
    parse_policy,
    play_world,
    spawn_episode_world,
)
from .instructions import MINECRAFT
from .generators import gen_longjump
from .minecraft import spawn_longjump
from .rngtools import derived_seed, substream

DEFAULT_BINS: Tuple[Tuple[int, int], ...] = tuple(
    (lo, lo + 9) for lo in range(1, 51, 10)
)

CSV_FIELDS = (
    "bin_lo",
    "bin_hi",
    "episodes",
    "success_rate",
    "stderr",
    "timeouts",
    "out_of_order",
)


@dataclass(frozen=True)
class BinResult:
    lo: int
    hi: int
    episodes: int
    success_rate: Optional[float]
    stderr: Optional[float]
    timeouts: int
    out_of_order: int

    def row(self) -> dict:
        fmt = lambda x: "" if x is None else f"{x:.6f}"
        return {
            "bin_lo": self.lo,
            "bin_hi": self.hi,
            "episodes": self.episodes,
            "success_rate": fmt(self.success_rate),
            "stderr": fmt(self.stderr),
            "timeouts": self.timeouts,
            "out_of_order": self.out_of_order,
        }


def _summarize(lo: int, hi: int, outcomes: Sequence[Tuple[str, int]]) -> BinResult:
    n = len(outcomes)
    if n == 0:
        return BinResult(lo, hi, 0, None, None, 0, 0)
    wins = sum(reward for _, reward in outcomes)
    rate = wins / n
    stderr = math.sqrt(rate * (1.0 - rate) / n)
    return BinResult(
        lo,
        hi,
        n,
        rate,
        stderr,
        sum(1 for cause, _ in outcomes if cause == "timeout"),
        sum(1 for cause, _ in outcomes if cause == "out_of_order"),
    )


def _binned(fn, tasks: list, bins: Sequence[Tuple[int, int]], per_bin: int, jobs: int):
    """Run ``per_bin`` consecutive tasks per bin and summarise each bin."""
    outcomes = list(map_episodes(fn, tasks, jobs))
    return [
        _summarize(lo, hi, outcomes[index * per_bin:(index + 1) * per_bin])
        for index, (lo, hi) in enumerate(bins)
    ]


def _episode_outcome(task) -> Tuple[str, int]:
    spec, policy, seed = task
    world = spawn_episode_world(spec, seed)
    play_world(world, policy.build(seed))
    return world.cause, world.reward


def evaluate(
    spec: EpisodeSpec,
    policy: Union[str, PolicySpec],
    bins: Sequence[Tuple[int, int]] = DEFAULT_BINS,
    episodes_per_bin: int = 100,
    base_seed: int = 0,
    jobs: int = 1,
) -> List[BinResult]:
    """Success statistics per instruction-length bin.

    ``policy`` is a PolicySpec or a policy name.  Episode seeds derive
    from (base_seed, bin index, episode index), so results do not depend
    on scheduling; jobs > 1 runs the episodes of all bins on that many
    worker processes.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    policy = parse_policy(policy, spec.domain)
    tasks = [
        (
            replace(spec, min_len=lo, max_len=hi),
            policy,
            derived_seed(base_seed, f"bin{bin_index}", f"ep{episode_index}"),
        )
        for bin_index, (lo, hi) in enumerate(bins)
        for episode_index in range(episodes_per_bin)
    ]
    return _binned(_episode_outcome, tasks, bins, episodes_per_bin, jobs)


def write_csv(handle: IO, results: Sequence[BinResult]) -> None:
    writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for result in results:
        writer.writerow(result.row())


def _longjump_outcome(task) -> Tuple[str, int]:
    policy, block_len, seed = task
    gen_rng = substream(seed, "generation")
    spawn_rng = substream(seed, "spawning")
    instruction = gen_longjump(gen_rng, block_len)
    world = spawn_longjump(spawn_rng, instruction, seed=seed)
    play_world(world, policy.build(seed))
    return world.cause, world.reward


def longjump_sweep(
    policy: Union[str, PolicySpec],
    block_lens: Sequence[int] = tuple(range(1, 41)),
    episodes_each: int = 20,
    base_seed: int = 0,
    jobs: int = 1,
) -> List[BinResult]:
    """Success rate on two-branch skip instructions versus block length.

    Each episode is a single conditional over a block of repeated
    subtasks whose guard is false, so the only correct behaviour is one
    long forward jump.  Policies with a bounded pointer range fall off
    beyond their reach.  ``policy`` is a PolicySpec or a policy name.
    jobs > 1 runs the episodes on worker processes.
    """
    if any(not 1 <= block_len <= 40 for block_len in block_lens):
        raise ValueError("block lengths must lie in 1..40")
    policy = parse_policy(policy, MINECRAFT)
    tasks = [
        (policy, block_len, derived_seed(base_seed, f"jump{block_len}", f"ep{episode_index}"))
        for block_len in block_lens
        for episode_index in range(episodes_each)
    ]
    bins = [(block_len, block_len) for block_len in block_lens]
    return _binned(_longjump_outcome, tasks, bins, episodes_each, jobs)
