"""Exception types shared across the package, and the two helpers that add
context to them.

Everything raised on purpose derives from MaxGainError so callers can catch
library failures with one except clause. The ValueError/RuntimeError mixins
keep ordinary python idioms working. `where` says where a divergence
happened; `naming` turns a domain error met while building something into
an error that names it.
"""

from contextlib import contextmanager


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
    per_layer_gains for an eval-mode gain. The callers above it add where it
    happened through `where`: the step and epoch, the split of an eval pass,
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


@contextmanager
def where(prefix="", suffix="", step=None, ledger=None):
    """A divergence raised inside says where: its message gets prefix and
    suffix, and it carries step and ledger, each if given, in place of its own."""
    try:
        yield
    except DivergenceError as err:
        raise DivergenceError(f"{prefix}{err}{suffix}", err.step if step is None else step,
                              err.ledger if ledger is None else ledger) from None


@contextmanager
def naming(error, what):
    """A domain error (InvalidValueError, ShapeError) raised inside becomes an
    `error` (ConfigError, FormatError) saying "bad <what>: <message>"."""
    try:
        yield
    except (InvalidValueError, ShapeError) as err:
        raise error(f"bad {what}: {err}") from None
