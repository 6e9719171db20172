"""Exception types raised across the package."""


class BorelSteinError(Exception):
    """Base class for all library errors."""


class NegativeMass(BorelSteinError):
    """A probability vector contains a negative entry."""


class NotNormalized(BorelSteinError):
    """Input masses do not sum to 1 within the accepted tolerance."""


class WeightOutOfRange(BorelSteinError):
    """Mixture weight outside [0, 1]."""


class EmptySample(BorelSteinError):
    """An empirical law was requested from zero samples."""


class InvalidIndex(BorelSteinError):
    """Support index outside {1, 2, ...}."""


class WindowOverflow(BorelSteinError):
    """Requested truncation window exceeds the configured cap."""


class UnresolvedTail(BorelSteinError):
    """Input tail mass too large for the requested operation's accuracy."""


class MeanMismatch(BorelSteinError):
    """A law violates the mean hypothesis required by the bound."""


class LambdaOutOfRange(BorelSteinError):
    """Arrival rate outside the range where the formula is meaningful."""


class DeltaOutOfRange(BorelSteinError):
    """Slack parameter leaves no positive exponential decay rate."""
