"""Exception types shared across the package.

Everything raised on purpose derives from MaxGainError so callers can catch
library failures with one except clause. The ValueError/RuntimeError mixins
keep ordinary python idioms working.
"""


class MaxGainError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MaxGainError, ValueError):
    """An array has the wrong shape, rank, or a degenerate dimension."""


class InvalidValueError(MaxGainError, ValueError):
    """A value is outside its domain (NaN, inf, bad norm order, ...)."""


class ConfigError(MaxGainError, ValueError):
    """An experiment or CLI configuration is malformed or inconsistent."""


class FormatError(MaxGainError, ValueError):
    """A file being parsed does not match its documented format."""


class EmptySampleError(MaxGainError, ValueError):
    """An operation needs more data points than it was given."""


class DegenerateSampleError(MaxGainError, ValueError):
    """A sample is statistically unusable (e.g. zero variance of differences)."""


class CacheError(MaxGainError, RuntimeError):
    """Step caches do not match the network or mode they are used with."""


class AdjointMismatchError(MaxGainError, ValueError):
    """A claimed adjoint map fails the inner-product identity on probes."""


class DivergenceError(MaxGainError, RuntimeError):
    """Training produced a non-finite loss, measured gain or gradient.

    Attributes:
        step: global step index at which the failure was detected.
        ledger: partial training ledger accumulated up to that point (may be None).
    """

    def __init__(self, message, step=None, ledger=None):
        super().__init__(message)
        self.step = step
        self.ledger = ledger
