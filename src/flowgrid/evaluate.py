"""Binned policy evaluation with reproducible per-episode seeds."""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, replace
from typing import IO, List, Optional, Sequence, Tuple, Union

from .generators import LONGJUMP_FRAME_LINES, LONGJUMP_MAX_BLOCK
from .harness import (
    EpisodeSpec,
    PolicySpec,
    map_episodes,
    parse_policy,
    play_world,
    spawn_episode_world,
)
from .instructions import MINECRAFT
from .rngtools import derived_seed

# unused: eval runs no thread pool, builds no step records and makes no
# substreams itself, but bench/spans.py still patches these names
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from .harness import run_episode  # noqa: F401
from .rngtools import substream  # noqa: F401

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


def _binned(policy: PolicySpec, bins: list, per_bin: int, base_seed: int, jobs: int):
    """Summarise ``per_bin`` episodes of each ((lo, hi), spec, seed tag) in ``bins``."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    tasks = [(spec, policy, derived_seed(base_seed, tag, f"ep{i}"))
             for _, spec, tag in bins for i in range(per_bin)]
    outcomes = list(map_episodes(_episode_outcome, tasks, jobs))
    return [_summarize(lo, hi, outcomes[k * per_bin:(k + 1) * per_bin])
            for k, ((lo, hi), _, _) in enumerate(bins)]


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
    policy = parse_policy(policy, spec.domain)
    labelled = [((lo, hi), replace(spec, min_len=lo, max_len=hi), f"bin{k}")
                for k, (lo, hi) in enumerate(bins)]
    return _binned(policy, labelled, episodes_per_bin, base_seed, jobs)


def write_csv(handle: IO, results: Sequence[BinResult]) -> None:
    """CSV_FIELDS, then each BinResult's fields in order: the rates to six
    places, and a bin without episodes leaves them empty (csv writes None so)."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for result in results:
        writer.writerow(f"{v:.6f}" if isinstance(v, float) else v for v in astuple(result))


def longjump_sweep(
    policy: Union[str, PolicySpec],
    block_lens: Sequence[int] = tuple(range(1, LONGJUMP_MAX_BLOCK + 1)),
    episodes_each: int = 20,
    base_seed: int = 0,
    jobs: int = 1,
) -> List[BinResult]:
    """Success rate on two-branch skip instructions versus block length.

    Each episode is a single conditional over a block of repeated
    subtasks whose guard is false, so the only correct behaviour is one
    long forward jump.  Policies with a bounded pointer range fall off
    beyond their reach.  ``policy`` is a PolicySpec or a policy name.
    jobs > 1 runs the episodes on worker processes.  The episodes are
    those of ``flow="longjump"`` specs, which ``run`` and ``replay`` play too.
    """
    policy = parse_policy(policy, MINECRAFT)
    frame = LONGJUMP_FRAME_LINES
    labelled = [((b, b), EpisodeSpec(MINECRAFT, b + frame, b + frame, flow="longjump"), f"jump{b}")
                for b in block_lens]
    return _binned(policy, labelled, episodes_each, base_seed, jobs)
