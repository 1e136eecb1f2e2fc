"""Exception types shared across the suite."""


class FlowgridError(Exception):
    """Base class for all library errors."""


class DecodeError(FlowgridError):
    """An integer or text payload does not describe a valid instruction."""


class GenerationError(FlowgridError):
    """A procedural generator exhausted its rejection budget."""


class SpawnInfeasible(FlowgridError):
    """World placement failed repeatedly for the given instruction.

    Callers are expected to regenerate the instruction and try again;
    ``harness.spawn_episode_world`` raises it once every instruction it
    drew has failed.
    """

    def __init__(self, message, attempts=None):
        super().__init__(message)
        self.attempts = attempts or []


class StructuralError(FlowgridError):
    """Control-flow resolution exceeded its budget (e.g. a vacuous loop)."""


class TraceExhausted(FlowgridError):
    """A scripted condition-outcome trace ran out before resolution finished."""


class EpisodeDone(FlowgridError):
    """step() was called on a world whose episode already terminated."""


class PolicyParamsError(FlowgridError):
    """A scripted policy's params file is unreadable or holds bad values."""


class TraceFormatError(FlowgridError):
    """A recorded trace file is corrupt or unreadable."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class ReplayMismatch(FlowgridError):
    """Replayed state digests diverged from the recorded trace."""
