"""Exception types shared across the simulator."""


class CbsimError(Exception):
    """Base class for all simulator errors."""


class ConfigurationError(CbsimError, ValueError):
    """Invalid or unsupported configuration values."""


class UsageError(CbsimError, ValueError):
    """A call's arguments break its contract: an inactive (BS, user,
    subchannel) triple, arrays of the wrong shape, a per-solve list of the
    wrong length, Gamma modes out of their block order, or initial beams
    over the power budget."""


class DegenerateChannelError(CbsimError, RuntimeError):
    """A channel vector is zero (or numerically indistinguishable from zero).

    Probability-zero event under the fading model; raised instead of silently
    regenerating so RNG misuse surfaces.
    """


class InvalidStateError(CbsimError, RuntimeError):
    """Internal numerical state violates an invariant (e.g. noise <= 0)."""


class BracketError(CbsimError, RuntimeError):
    """The dual-variable bisection bracket failed to contain a feasible point."""
