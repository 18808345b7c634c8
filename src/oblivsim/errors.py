"""Exception types shared across the simulator.

Everything raised on purpose derives from SimError so callers can catch
one base type. Fault-injection paths must only ever surface these.
"""


class SimError(Exception):
    """Base class for all simulator errors."""


class AlignmentError(SimError):
    """Disk offset not aligned to the block size."""


class BoundsError(SimError):
    """Disk offset outside the image."""


class SizeError(SimError):
    """Buffer or frame length does not match the required size."""


class WouldBlock(SimError):
    """Non-blocking read found no data."""


class ParameterError(SimError):
    """Unknown identifier or out-of-range argument."""


class ModeError(SimError):
    """Operation not valid for the configured protection mode."""


class IntegrityError(SimError):
    """Authentication tag or hash check failed."""


class ReplayError(SimError):
    """Stale but previously valid data was presented again."""


class StaleCounterError(SimError):
    """Frame counter fell behind the replay window entirely."""


class HandshakeError(SimError):
    """Session establishment failed or keys do not match."""


class PolicyError(SimError):
    """Action refused by a trust rule (e.g. provisioning from a later peer)."""


class BackpressureError(SimError):
    """A shaped link's send queue is full; the frame was not queued."""


class SpaceError(SimError):
    """Not enough free blocks."""


class DescriptorError(SimError):
    """Unknown or unsuitable file id."""


class RangeError(SimError):
    """Offset or length outside the file."""


class ShuffleImpossibleError(SimError):
    """Fewer free blocks than the largest file to shuffle has."""


class InsufficientDataError(SimError):
    """Statistical test was given too few samples."""


class TraceConfigMismatch(SimError):
    """Traces recorded under different configurations cannot be compared."""


class RoundBudgetExhausted(SimError):
    """The run reached its round target while an operation was in flight."""
