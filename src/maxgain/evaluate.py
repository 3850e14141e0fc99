"""Eval-mode passes over a split (loss and accuracy, per-layer gains), gain
reports, and the paired t-test.

Every eval-mode forward of the library runs here, in slices of _EVAL_BATCH
instances.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import tsv
from .errors import (ConfigError, DegenerateSampleError, DivergenceError, EmptySampleError, InvalidValueError,
                     ShapeError, naming, where)
from .gain import GainStats, gain_stats, instance_gains
from .layers import chain_shape, forward, no_gain, softmax_cross_entropy
from .tensor import DTYPE, check_finite

# Instances per eval-mode forward pass.
_EVAL_BATCH = 256


# --- Student t machinery -------------------------------------------------
#
# The two-sided p-value comes from the regularized incomplete beta function
# I_x(a, b), evaluated with the classic continued-fraction expansion (modified
# Lentz recurrence, as in the cephes incbet routine). For a t statistic with
# nu degrees of freedom: p = I_{nu / (nu + t^2)}(nu/2, 1/2).

_CF_MAX_ITER = 500
_CF_EPS = 1e-16
_CF_TINY = 1e-300


def _clamp(v):
    """v, or _CF_TINY in place of a magnitude below it (a zero denominator)."""
    return _CF_TINY if abs(v) < _CF_TINY else v


def _beta_cf(a, b, x):
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _clamp(1.0 - qab * x / qap)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # the even and odd coefficients of step m, each one Lentz update
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _clamp(1.0 + aa * d)
            c = _clamp(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise InvalidValueError(f"incomplete beta did not converge for a={a} b={b} x={x}")


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b) for a, b > 0 and x in [0, 1], accurate to ~1e-14."""
    if a <= 0.0 or b <= 0.0:
        raise InvalidValueError(f"beta parameters must be positive, got a={a} b={b}")
    if not 0.0 <= x <= 1.0:
        raise InvalidValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (a * math.log(x) + b * math.log1p(-x)
                - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    front = math.exp(ln_front)
    # the continued fraction converges fastest below the distribution mode
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


class TTestResult(NamedTuple):
    t: float
    df: int
    p: float


def paired_t_test(a, b):
    """Two-sided paired t-test between per-fold scores a and b.

    t = mean(d) / (sd(d) / sqrt(k)) with d = a - b and the ddof=1 standard
    deviation; df = k - 1. Identical score vectors have zero variance and are
    rejected rather than reported as p=0.
    """
    a = np.asarray(a, dtype=DTYPE)
    b = np.asarray(b, dtype=DTYPE)
    if a.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"need two equal-length score vectors, got {a.shape} and {b.shape}")
    k = a.shape[0]
    if k < 2:
        raise EmptySampleError(f"paired t-test needs at least 2 pairs, got {k}")
    check_finite(a, "scores a")
    check_finite(b, "scores b")
    d = a - b
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        raise DegenerateSampleError("zero variance of differences")
    t = float(np.mean(d)) / (sd / math.sqrt(k))
    df = k - 1
    p = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return TTestResult(t=t, df=df, p=p)


# --- eval-mode passes and gain reports -------------------------------------


def _eval_batches(net, x, what, gain):
    """(instance slice, logits, caches) of each eval-mode forward over x,
    measured by gain (no_gain for none), one _EVAL_BATCH slice at a time; an
    empty x is an EmptySampleError naming what."""
    if x.shape[0] == 0:
        raise EmptySampleError(f"{what} needs at least one instance")
    for i in range(0, x.shape[0], _EVAL_BATCH):
        rows = slice(i, i + _EVAL_BATCH)
        yield (rows, *forward(net, x[rows], "eval", gain=gain))


# Overflow warnings stay silent: the loss reports non-finite logits.
@np.errstate(all="ignore")
def eval_metrics(net, x, y):
    """Mean cross-entropy loss and accuracy of the eval-mode network.

    Non-finite logits or loss raise the loss's DivergenceError.
    """
    loss_sum = 0.0
    correct = 0
    for rows, logits, _ in _eval_batches(net, x, "eval_metrics", no_gain):
        yb = y[rows]
        loss, _ = softmax_cross_entropy(logits, yb)
        loss_sum += loss * yb.shape[0]
        correct += int(np.sum(np.argmax(logits, axis=1) == yb))
    return loss_sum / x.shape[0], correct / x.shape[0]


# Overflow warnings stay silent: a non-finite gain raises DivergenceError.
@np.errstate(all="ignore")
def per_layer_gains(net, x, p):
    """Per-instance gains of every learned layer on a split, eval mode.

    Returns one array of len(x) gains per learned layer, in
    Network.learned_layers() order, measured by each eval batch's forward
    pass as the layer runs. A non-finite gain (an input whose norm
    overflows, say) raises DivergenceError naming the first such layer.
    """
    if not net.learned_layers():
        raise EmptySampleError("network has no learned layers")
    batches = [caches.gains for _, _, caches in
               _eval_batches(net, x, "per_layer_gains", lambda gx, gz: instance_gains(gx, gz, p))]
    gains = [np.concatenate(g) for g in zip(*batches)]
    for j, g in enumerate(gains):
        if not np.isfinite(g).all():
            raise DivergenceError(f"non-finite gain of layer {j}")
    return gains


@dataclass(frozen=True)
class GainReportRow:
    layer_index: int
    split: str
    stats: GainStats


@dataclass(frozen=True)
class GainReport:
    rows: tuple

    def to_text(self):
        return tsv([("layer_index", "split", "n", "min", "lq", "median", "uq", "max")] + [
            (r.layer_index, r.split, r.stats.n, r.stats.min, r.stats.lower_quartile, r.stats.median,
             r.stats.upper_quartile, r.stats.max) for r in self.rows])


def gain_report(net, train, test, p):
    """Five-number gain summaries per learned layer for both splits. A split
    whose instances the network cannot take is a ConfigError naming it,
    raised before any pass; a non-finite gain raises DivergenceError naming
    its layer and split."""
    splits = [(name, ds) for name, ds in (("train", train), ("test", test)) if ds is not None]
    for split_name, ds in splits:
        with naming(ConfigError, f"{split_name} split"):
            chain_shape(net.stages, ds.x.shape[1:])
    rows = []
    for split_name, ds in splits:
        with where(suffix=f" on the {split_name} split"):
            gains = per_layer_gains(net, ds.x, p)
        for j, g in enumerate(gains):
            rows.append(GainReportRow(layer_index=j, split=split_name, stats=gain_stats(g)))
    if not rows:
        raise EmptySampleError("gain report needs at least one split")
    rows.sort(key=lambda r: (r.layer_index, r.split))
    return GainReport(rows=tuple(rows))

