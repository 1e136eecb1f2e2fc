"""Command-line entry point.

Subcommands: gen (sample instructions), run (play episodes to a JSONL
trace), eval (binned success rates to CSV), replay (re-simulate a trace
and verify it), scan-check (numeric kernel self-test).

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 input/output error.  FLOWGRID_LOG sets the logging level.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import logging
import os
import sys
from typing import List, Optional, Sequence, Tuple

from . import evaluate as evaluate_mod
from . import pointer
from .errors import (FlowgridError, GenerationError, PolicyParamsError, ReplayMismatch,
                     TraceFormatError, clipped)
from .generators import FLOW_FILTERS, LONGJUMP_MAX_BLOCK
from .harness import (
    EpisodeSpec,
    FailureBuffer,
    PolicySpec,
    _dumps,
    generate_instructions,
    map_episodes,
    parse_policy,
    read_trace_records,
    replay_episode,
    run_episode,
    split_episodes,
    write_traces,
)
from .instructions import MINECRAFT, STARCRAFT
from .rngtools import derived_seed, draws

# unused: scan-check reads through draws, but bench/spans.py still patches this name
from .rngtools import substream  # noqa: F401

log = logging.getLogger("flowgrid")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class UsageError(Exception):
    """A bad flag value; ``dests`` names the options whose values the check read."""

    def __init__(self, message: str, *dests: str):
        super().__init__(message)
        self.dests = dests


class _Given(argparse.Action):
    """Also add the option's dest to ``namespace.given``: the command line set it."""

    def __call__(self, parser, namespace, values, option_string=None):
        super().__call__(parser, namespace, values, option_string)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.dest}


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems raise instead of exiting with code 2, and the
    store actions (None is the default one) also record each flag in ``given``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for name, action in ((None, argparse._StoreAction), ("store", argparse._StoreAction),
                             ("store_true", argparse._StoreTrueAction)):
            self.register("action", name, type("Given", (_Given, action), {}))

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _setup_logging() -> None:
    name = os.environ.get("FLOWGRID_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


@contextlib.contextmanager
def _open_out(path: Optional[str]):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _parse_bins(text: str) -> List[Tuple[int, int]]:
    bins = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "-" in part:
                lo_s, hi_s = part.split("-", 1)
                lo, hi = int(lo_s), int(hi_s)
            else:
                lo = hi = int(part)
        except ValueError:
            raise UsageError(f"bad bin {clipped(part)}: need lo-hi or one length", "bins") from None
        _require(1 <= lo <= hi, f"bad bin {clipped(part)}: need 1 <= lo <= hi", "bins")
        bins.append((lo, hi))
    return bins


# what a spec or generation refusal names: each spec option but --domain, which picks the rules
_GEN_SPEC = ("min_len", "max_len", "flow", "max_depth")
_RUN_SPEC = _GEN_SPEC + ("no_disruptions",)
_EVAL_SPEC = ("bins", "flow", "max_depth", "no_disruptions")


def _episode_spec(args, dests: Tuple[str, ...], **extra) -> EpisodeSpec:
    fields = dict(domain=args.domain, min_len=args.min_len, max_len=args.max_len,
                  flow=args.flow, max_depth=args.max_depth)
    with _refused(ValueError, *dests):
        return EpisodeSpec(**{**fields, **extra})


# --- subcommands ------------------------------------------------------------------


def _require(condition: bool, message: str, *dests: str) -> None:
    if not condition:
        raise UsageError(message, *dests)


@contextlib.contextmanager
def _refused(error: type, *dests: str):
    """Turn an ``error`` raised inside into a usage error that names ``dests``."""
    try:
        yield
    except error as exc:
        raise UsageError(str(exc), *dests) from None


def _parse_policy(name: str, domain: str) -> PolicySpec:
    """Check --policy and read its params once, before any output.

    An unknown name or a policy the domain cannot run is a usage error; a
    bad ``scripted:`` params file raises PolicyParamsError (exit 3).
    """
    with _refused(ValueError, "policy"):
        return parse_policy(name, domain)


def cmd_gen(args) -> int:
    _require(args.count >= 1, "--count must be at least 1", "count")
    spec = _episode_spec(args, _GEN_SPEC)
    rng = draws(args.seed, "generation")
    rows = []
    for index in range(args.count):
        with _refused(GenerationError, *_GEN_SPEC):
            tree, instruction = next(generate_instructions(spec, rng))
        row = {
            "domain": args.domain,
            "index": index,
            "text": instruction.text(),
            "encoded": instruction.encoded(),
        }
        if tree is not None:
            row["tree"] = tree.as_dict()
        rows.append(row)
    with _open_out(args.out) as handle:
        for row in rows:
            handle.write(_dumps(row) + "\n")
    log.info("generated %d %s instructions", args.count, args.domain)
    return EXIT_OK


def cmd_run(args) -> int:
    _require(args.episodes >= 1, "--episodes must be at least 1", "episodes")
    _require(args.jobs >= 1, "--jobs must be at least 1", "jobs")
    _require(not (args.failure_buffer and args.jobs > 1),
             "--failure-buffer requires sequential execution (--jobs 1)", "failure_buffer", "jobs")
    given = getattr(args, "given", frozenset())  # as in eval, a config may set these flags
    _require(args.failure_buffer or not given & {"buffer_beta", "buffer_scale"},
             "--buffer-beta/--buffer-scale apply only with --failure-buffer")
    spec = _episode_spec(args, _RUN_SPEC, disruptions=not args.no_disruptions)
    policy = _parse_policy(args.policy, spec.domain)
    buffer = None
    if args.failure_buffer:
        with _refused(ValueError, "buffer_beta", "buffer_scale"):
            buffer = FailureBuffer(beta=args.buffer_beta, scale=args.buffer_scale)
        buffer_rng = draws(args.seed, "buffer")

    def play(index):
        """Episode ``index`` on the failure buffer's seed, if it offers one, else on one
        derived from --seed.  --failure-buffer needs --jobs 1, played in-process in order."""
        seed = None if buffer is None else buffer.sample(buffer_rng)
        if seed is None:
            seed = derived_seed(args.seed, f"ep{index}")
        else:
            log.debug("episode %d retries buffered seed %d", index, seed)
        episode = run_episode(spec, policy, seed, record_digests=not args.no_digests)
        if buffer is not None:
            buffer.update(seed, episode["end"]["outcome"] == "success")
        return episode

    successes = []

    def tallied():
        for episode in map_episodes(play, range(args.episodes), args.jobs):
            successes.append(episode["end"]["outcome"] == "success")
            yield episode

    # each trace is written as it arrives; none is held until the end, but the
    # first is played before --out is opened, so a refused spec leaves it as it was
    episodes = tallied()
    with _refused(GenerationError, *_RUN_SPEC):
        first = next(episodes)
        with _open_out(args.out) as handle:
            write_traces(handle, itertools.chain((first,), episodes))
    wins = sum(successes)
    print(f"episodes={len(successes)} successes={wins} rate={wins / len(successes):.4f}",
          file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    _require(args.episodes_per_bin >= 1, "--episodes-per-bin must be at least 1",
             "episodes_per_bin")
    _require(args.jobs >= 1, "--jobs must be at least 1", "jobs")
    # bins or block lengths set the lengths, and each mode refuses the other's
    # flags; only flags from the command line are in ``given``, so a config
    # shared with run/gen or with the other mode may still set them
    given = getattr(args, "given", frozenset())
    _require(
        not given & {"min_len", "max_len"},
        "eval takes instruction lengths from --bins (e.g. --bins 1-10,11-20) "
        "or --block-min/--block-max, not --min-len/--max-len",
    )
    if args.longjump:
        _require(args.domain == MINECRAFT, "--longjump applies to the minecraft domain",
                 "longjump")
        _require(not given & {"bins", "flow"}, "--longjump takes neither --bins nor --flow")
        # the sweep builds its own minecraft specs, which would drop these
        _require(args.max_depth is None and not args.no_disruptions,
                 "--longjump takes neither --max-depth nor --no-disruptions",
                 "longjump", "max_depth", "no_disruptions")
        _require(
            1 <= args.block_min <= args.block_max <= LONGJUMP_MAX_BLOCK,
            f"need 1 <= --block-min <= --block-max <= {LONGJUMP_MAX_BLOCK}",
            "block_min", "block_max",
        )
        policy = _parse_policy(args.policy, MINECRAFT)
        blocks = range(args.block_min, args.block_max + 1)
        # a long-jump spec draws its instruction and world at the first try
        results = evaluate_mod.longjump_sweep(
            policy, blocks, args.episodes_per_bin, args.seed, args.jobs
        )
    else:
        _require(not given & {"block_min", "block_max"},
                 "--block-min/--block-max apply only with --longjump")
        # an empty --bins is a bad bin, not a request for the default bins
        bins = (list(evaluate_mod.DEFAULT_BINS) if args.bins is None
                else _parse_bins(args.bins))
        # each bin's spec is checked here, before any episode runs
        specs = [
            _episode_spec(args, _EVAL_SPEC, min_len=lo, max_len=hi, disruptions=not args.no_disruptions)
            for lo, hi in bins
        ]
        policy = _parse_policy(args.policy, args.domain)
        with _refused(GenerationError, *_EVAL_SPEC):
            results = evaluate_mod.evaluate(
                specs[0], policy, bins, args.episodes_per_bin, args.seed, args.jobs
            )
    with _open_out(args.out) as handle:
        evaluate_mod.write_csv(handle, results)
    return EXIT_OK


def cmd_replay(args) -> int:
    replayed, previous = 0, None
    with open(args.trace, "r", encoding="utf-8") as handle:  # main reports an OSError
        for episode in split_episodes(read_trace_records(handle)):
            number = episode["header"].get("episode")
            if number is None:  # split_episodes refuses a null
                raise TraceFormatError(f"header after {replayed} episode(s) has no episode number")
            if number != 0 and number - 1 != previous:  # 0 starts a run; runs may be joined
                after = "the trace's start" if previous is None else f"episode {previous}"
                raise ReplayMismatch(f"episode {number} follows {after}; a run counts from 0 up")
            previous = number
            for world in replay_episode(episode, check_digests=not args.no_check_digests):
                if not args.quiet:
                    print(world.render())
                    print()
            log.info("episode %d replayed: %s", replayed, episode["header"]["seed"])
            replayed += 1
    if not replayed:
        print(f"error: trace {args.trace} holds no episodes", file=sys.stderr)
        return EXIT_IO
    print(f"replay ok: {replayed} episode(s) verified", file=sys.stderr)
    return EXIT_OK


def _write_dict_rows(path: str, fields: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def cmd_scan_check(args) -> int:
    _require(args.trials >= 1, "--trials must be at least 1", "trials")
    _require(args.max_len >= 1, "--max-len must be at least 1", "max_len")
    # each gradient trial builds two (2L, 2L) jacobians; L=1000 peaks near 280 MB
    _require(args.max_len <= 1000, "--max-len must be at most 1000", "max_len")
    _require(args.grad_trials >= 0, "--grad-trials must be non-negative", "grad_trials")
    rng = draws(args.seed, "scan-check")
    oracle = pointer.oracle_sweep(rng, args.trials, args.max_len, args.mode)
    report = [
        f"mode={args.mode} trials={args.trials} max_len={args.max_len}",
        f"oracle max abs diff      : {oracle['max_abs_diff']:.3e} (tolerance {pointer.ORACLE_TOL:.0e})",
        f"normalization max error  : {oracle['max_norm_err']:.3e}",
    ]
    ok = (
        oracle["max_abs_diff"] < pointer.ORACLE_TOL
        and oracle["max_norm_err"] < pointer.ORACLE_TOL
    )
    gradient = None
    if args.mode == pointer.STOP_PROCESS:
        report.append(f"residual max error       : {oracle['max_residual_err']:.3e}")
        ok = ok and oracle["max_residual_err"] < pointer.ORACLE_TOL
        gradient = pointer.gradient_sweep(rng, args.grad_trials, args.max_len)
        report.append(
            f"gradient max rel err     : {gradient['max_rel_err']:.3e} (tolerance {pointer.GRADIENT_TOL:.0e})"
        )
        ok = ok and gradient["max_rel_err"] < pointer.GRADIENT_TOL
    else:
        report.append("gradient check           : skipped (analytic form covers stop-process only)")

    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
        columns_path = os.path.join(args.out_dir, "columns.csv")
        _write_dict_rows(
            columns_path,
            ("trial", "length", "max_abs_diff", "norm_err", "residual_err"),
            oracle["rows"],
        )
        report.append(f"wrote {columns_path}")
        if gradient is not None:
            gradients_path = os.path.join(args.out_dir, "gradients.csv")
            _write_dict_rows(
                gradients_path, ("trial", "length", "max_rel_err"), gradient["rows"]
            )
            report.append(f"wrote {gradients_path}")

    report.append("PASS" if ok else "FAIL")
    print("\n".join(report))
    return EXIT_OK if ok else EXIT_VERIFY


# --- parser -----------------------------------------------------------------------


def _add_instruction_opts(sub):
    sub.add_argument("--domain", choices=(MINECRAFT, STARCRAFT), required=True,
                     help="instruction domain")
    sub.add_argument("--min-len", type=int, default=1)
    sub.add_argument("--max-len", type=int, default=10)
    sub.add_argument("--flow", choices=FLOW_FILTERS, default="any",
                     help="minecraft control-flow filter")
    sub.add_argument("--max-depth", type=int, default=None,
                     help="starcraft technology-tree depth cap")


def build_parser(defaults: Optional[dict] = None) -> argparse.ArgumentParser:
    parser = _Parser(prog="flowgrid", description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None,
                        help="JSON file of option defaults (dest names as keys)")
    commands = parser.add_subparsers(dest="command", metavar="command")

    gen = commands.add_parser("gen", help="sample instructions to JSONL")
    _add_instruction_opts(gen)
    gen.add_argument("--count", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="-")
    gen.set_defaults(func=cmd_gen)

    # the options that run and eval share
    play = _Parser(add_help=False)
    play.add_argument("--seed", type=int, default=0)
    play.add_argument("--policy", default="oracle", help="oracle | random | scripted:<params.json>")
    play.add_argument("--jobs", type=int, default=1)
    play.add_argument("--no-disruptions", action="store_true")
    play.add_argument("--out", default="-")

    run = commands.add_parser("run", parents=[play], help="play episodes, write a JSONL trace")
    _add_instruction_opts(run)
    run.add_argument("--episodes", type=int, default=10)
    run.add_argument("--no-digests", action="store_true",
                     help="omit per-step world digests from the trace")
    run.add_argument("--failure-buffer", action="store_true",
                     help="retry failed seeds (sequential only)")
    run.add_argument("--buffer-beta", type=float, default=0.01)
    run.add_argument("--buffer-scale", type=float, default=1.0)
    run.set_defaults(func=cmd_run)

    ev = commands.add_parser("eval", parents=[play], help="binned success rates to CSV")
    _add_instruction_opts(ev)
    ev.add_argument("--episodes-per-bin", type=int, default=100)
    ev.add_argument("--bins", default=None,
                    help='comma list of lo-hi length ranges, e.g. "1-10,11-20"')
    ev.add_argument("--longjump", action="store_true",
                    help="sweep two-branch skip instructions by block length")
    ev.add_argument("--block-min", type=int, default=1)
    ev.add_argument("--block-max", type=int, default=40)
    ev.set_defaults(func=cmd_eval)

    rp = commands.add_parser("replay", help="re-simulate and verify a trace")
    rp.add_argument("--trace", required=True)
    rp.add_argument("--no-check-digests", action="store_true")
    rp.add_argument("--quiet", action="store_true", help="suppress frame output")
    rp.set_defaults(func=cmd_replay)

    sc = commands.add_parser("scan-check", help="verify the movement kernel")
    sc.add_argument("--trials", type=int, default=1000)
    sc.add_argument("--max-len", type=int, default=25)
    sc.add_argument("--grad-trials", type=int, default=100)
    sc.add_argument("--mode", choices=pointer.MODES, default=pointer.STOP_PROCESS)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--out-dir", default=None,
                    help="directory for columns.csv / gradients.csv")
    sc.set_defaults(func=cmd_scan_check)

    if defaults:
        subs = (gen, run, ev, rp, sc)
        _check_config(defaults, [action for sub in subs for action in sub._actions])
        # Subcommands parse into their own namespace, so the overrides must
        # land on every subparser, not just the root.
        parser.set_defaults(**defaults)
        for sub in subs:
            sub.set_defaults(**defaults)
            for action in sub._actions:  # a config value stands in for a required flag
                if action.dest in defaults:
                    action.required = False
    return parser


def _check_config(defaults: dict, actions) -> None:
    """Raise ValueError unless each key of ``defaults`` is the dest of options
    in ``actions`` and its value suits each of them: one of its choices, a
    bool for a flag, else a string that its type parses (as the command line
    would), an int for a float option, a value of its type, or null where
    null is the default of an option that is not required.
    """
    for key, value in defaults.items():
        options = [a for a in actions if a.dest == key and a.default is not argparse.SUPPRESS]
        if not options:
            raise ValueError(f"{clipped(key)} names no option")
        for action in options:
            if action.choices is not None:
                ok = value in action.choices
            elif action.nargs == 0:  # store_true
                ok = type(value) is bool
            elif type(value) is str or (type(value) is int and action.type is float):
                try:  # as the command line would parse it
                    (action.type or str)(value)
                except (OverflowError, ValueError):  # OverflowError: an int too large for a float
                    ok = False
                else:
                    ok = True
            else:  # a required option's null default means "not given"
                ok = type(value) in (action.type, type(action.default)) and not (
                    value is None and action.required)
            if not ok:
                raise ValueError(f"{clipped(key)} cannot be {clipped(value)}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    defaults, given = {}, frozenset()
    try:
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config", default=None)
        known, _ = pre.parse_known_args(argv)
        if known.config:
            try:
                with open(known.config, "r", encoding="utf-8") as handle:
                    defaults = json.load(handle)
            # ValueError: not JSON, not UTF-8, an over-long integer; RecursionError: nested too deep
            except (OSError, ValueError, RecursionError) as exc:
                print(f"error: cannot read config {known.config}: {exc}", file=sys.stderr)
                return EXIT_IO
        try:
            if not isinstance(defaults, dict):
                raise ValueError("not a JSON object")
            parser = build_parser(defaults)
        except ValueError as exc:  # from _check_config
            print(f"error: config {known.config}: {exc}", file=sys.stderr)
            return EXIT_IO
        args = parser.parse_args(argv)
        given = getattr(args, "given", frozenset())
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except UsageError as exc:
        # a check that read only config values, none from the command line, blames the file
        if not given.intersection(exc.dests) and defaults.keys() & set(exc.dests):
            values = ", ".join(f"{clipped(d)} to {clipped(defaults[d])}"
                               for d in exc.dests if d in defaults)
            print(f"error: config {known.config} sets {values}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TraceFormatError as exc:
        print(f"error: malformed trace {args.trace}: {exc}", file=sys.stderr)  # from replay
        return EXIT_IO
    except PolicyParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ReplayMismatch as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except FlowgridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
