"""Deterministic instruction-following environments and a pointer kernel.

Two 6x6 gridworld domains — resource gathering driven by control-flow
programs, and build-order execution over a hidden technology tree —
plus generators, a ground-truth interpreter, an episode harness with
traces and replay, and a standalone numeric kernel for scan-ordered
pointer movement.
"""

from .errors import (
    DecodeError,
    FlowgridError,
    GenerationError,
    ReplayMismatch,
    SpawnInfeasible,
    StructuralError,
    TraceExhausted,
    TraceFormatError,
)
from .generators import gen_build_tree, gen_longjump, gen_minecraft, gen_starcraft
from .harness import (
    EpisodeSpec,
    FailureBuffer,
    OracleMinecraftPolicy,
    OracleStarcraftPolicy,
    Policy,
    RandomMinecraftPolicy,
    RandomStarcraftPolicy,
    ScriptedPointerPolicy,
    run_episode,
)
from .instructions import (
    BuildTree,
    CfLine,
    Instruction,
    ScLine,
    decode,
    parse_text,
    validate,
)
from .interpreter import cf_step, required_sequence, sc_decode, sc_plan
from .minecraft import Command, MinecraftWorld
from .minecraft import spawn as spawn_minecraft
from .rngtools import derived_seed, substream
from .starcraft import ActionToken, StarcraftWorld
from .starcraft import spawn as spawn_starcraft

__version__ = "0.1.0"

__all__ = [
    "ActionToken",
    "BuildTree",
    "CfLine",
    "Command",
    "DecodeError",
    "EpisodeSpec",
    "FailureBuffer",
    "FlowgridError",
    "GenerationError",
    "Instruction",
    "MinecraftWorld",
    "OracleMinecraftPolicy",
    "OracleStarcraftPolicy",
    "Policy",
    "RandomMinecraftPolicy",
    "RandomStarcraftPolicy",
    "ReplayMismatch",
    "ScLine",
    "ScriptedPointerPolicy",
    "SpawnInfeasible",
    "StarcraftWorld",
    "StructuralError",
    "TraceExhausted",
    "TraceFormatError",
    "cf_step",
    "decode",
    "derived_seed",
    "gen_build_tree",
    "gen_longjump",
    "gen_minecraft",
    "gen_starcraft",
    "parse_text",
    "required_sequence",
    "run_episode",
    "sc_decode",
    "sc_plan",
    "spawn_minecraft",
    "spawn_starcraft",
    "substream",
    "validate",
]
