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
    """A network produced non-finite logits, loss, measured gain or gradient.

    softmax_cross_entropy raises it for non-finite logits or loss, in training
    and evaluation alike; a training step also for a gain or gradient, and
    per_layer_gains for an eval-mode gain. The callers above it prefix or
    suffix where it happened: the step and epoch, the split of an eval pass,
    the sweep gamma or the fold.

    Attributes:
        step: global step index at which the failure was detected (None
            outside fit's steps, as for a pass after training).
        ledger: partial training ledger accumulated up to that point (may be None).
    """

    def __init__(self, message, step=None, ledger=None):
        super().__init__(message)
        self.step = step
        self.ledger = ledger
