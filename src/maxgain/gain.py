"""Empirical gain measurement and operator-norm machinery.

The gain of a learned layer on an instance x is ||Wx||_p / ||x||_p where Wx is
the layer's bias-free linear action, measured here from the (x, Wx) caches a
forward pass records. The operator norms it is compared with are declared by
the stage classes in closed form, and the Lipschitz bound, their product,
takes the instance shape its caller gives; power iteration stays here as a
tool to cross-check them.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AdjointMismatchError, CacheError, EmptySampleError, ShapeError
from .layers import stages_operator_norm
from .tensor import DTYPE, check_norm_order, make_rng


# Entries batch_norms squares (or takes abs of) at a time: as many whole
# instances as fit, but at least one. Each chunk's pass stays in cache, and
# no call allocates a temporary of the whole batch's size.
_NORM_CHUNK = 1 << 15


def batch_norms(arr, p):
    """Per-instance p-norms of a batch, over everything past axis 0.

    Each instance's entries are summed in the order they are stored: the
    instance axes are taken by decreasing stride, and one elementwise pass
    (abs, or the square for p=2) writes a chunk of instances into a compact
    C-order array whose rows are then reduced. A channels-last view, such
    as a conv's gain input, is read once and never copied in logical order.
    On C-contiguous input this is the row sum of the flattened batch; on
    other layouts it differs from that only in rounding. An instance's norm
    is the same alone as in a batch of any size.
    """
    check_norm_order(p)
    arr = np.asarray(arr, dtype=DTYPE)
    if not arr.flags.c_contiguous:  # else storage order is the logical one
        arr = arr.transpose(0, *sorted(range(1, arr.ndim), key=lambda a: -abs(arr.strides[a])))
    entry = np.square if p == 2 else np.abs
    reduce = np.maximum.reduce if p == math.inf else np.add.reduce
    k = max(1, _NORM_CHUNK // max(1, math.prod(arr.shape[1:])))
    norms = np.empty(len(arr), dtype=DTYPE)
    for i in range(0, len(arr), k):
        chunk = entry(arr[i:i + k], order="C")
        reduce(chunk.reshape(len(chunk), -1), axis=1, out=norms[i:i + k])
    return np.sqrt(norms, out=norms) if p == 2 else norms


def instance_gains(xs, zs, p):
    """Per-instance gains ||z_i||_p / ||x_i||_p, with 0 where ||x_i||_p = 0."""
    nx = batch_norms(xs, p)
    return np.divide(batch_norms(zs, p), nx, out=np.zeros_like(nx), where=nx > 0.0)


def batch_max_gain(xs, zs, p):
    """Largest per-instance gain over cached (input, linear output) pairs.

    xs and zs are the X/Z caches one learned layer recorded during a forward
    pass; the linear outputs are not recomputed here.
    """
    xs = np.asarray(xs, dtype=DTYPE)
    zs = np.asarray(zs, dtype=DTYPE)
    if xs.shape[0] != zs.shape[0]:
        raise CacheError(f"cache length mismatch: {xs.shape[0]} inputs vs {zs.shape[0]} outputs")
    if xs.shape[0] == 0:
        raise EmptySampleError("empty step caches")
    return float(instance_gains(xs, zs, p).max())


class PowerIterationResult(NamedTuple):
    value: float
    iterations: int


def spectral_norm_power_iteration(linear_map, adjoint_map, input_dim,
                                  iters=100, tol=1e-9, rng=None,
                                  check_adjoint=True):
    """Largest singular value of an implicitly given linear map.

    Power iteration on A^T A from a random seeded start vector. The pair
    (linear_map, adjoint_map) is probabilistically verified against
    <Ax, y> = <x, A^T y> before iterating; a mismatch beyond 1e-8 relative
    raises AdjointMismatchError. A zero map returns 0.

    Args:
        linear_map: flat float64 vector of length input_dim -> output vector.
        adjoint_map: output vector -> flat vector of length input_dim.
        iters: iteration cap.
        tol: stop once the relative change of the estimate falls below this.
    """
    input_dim = int(input_dim)
    if input_dim < 1:
        raise ShapeError(f"input_dim must be >= 1, got {input_dim}")
    if rng is None:
        rng = make_rng(0)
    if check_adjoint:
        for _ in range(3):
            x = rng.normal(size=input_dim)
            ax = np.asarray(linear_map(x), dtype=DTYPE).reshape(-1)
            y = rng.normal(size=ax.shape[0])
            lhs = float(ax @ y)
            rhs = float(x @ np.asarray(adjoint_map(y), dtype=DTYPE).reshape(-1))
            if abs(lhs - rhs) > 1e-8 * max(1.0, abs(lhs), abs(rhs)):
                raise AdjointMismatchError(
                    f"<Ax, y> = {lhs!r} but <x, A^T y> = {rhs!r}")
    v = rng.normal(size=input_dim)
    v /= math.sqrt(float(v @ v))
    sigma = 0.0
    for it in range(1, iters + 1):
        u = np.asarray(linear_map(v), dtype=DTYPE).reshape(-1)
        s = math.sqrt(float(u @ u))
        if s == 0.0:
            return PowerIterationResult(0.0, it)
        w = np.asarray(adjoint_map(u), dtype=DTYPE).reshape(-1)
        nw = math.sqrt(float(w @ w))
        if nw == 0.0:
            return PowerIterationResult(s, it)
        v = w / nw
        if abs(s - sigma) <= tol * max(s, 1e-300):
            return PowerIterationResult(s, it)
        sigma = s
    return PowerIterationResult(sigma, iters)


def layer_operator_norm(layer, p, input_shape):
    """l_p operator norm, p in {1, 2, inf}, of a stage's eval-mode map on
    instances of shape input_shape, which the stage must take: the closed
    form the stage declares."""
    check_norm_order(p)
    return stages_operator_norm([layer], p, input_shape)


def lipschitz_upper_bound(net, p, input_shape):
    """Upper bound on the Lipschitz constant of the network's eval-mode
    function on instances of shape input_shape (no batch axis): the product
    of its stages' operator norms.
    """
    check_norm_order(p)
    return stages_operator_norm(net.stages, p, input_shape)


@dataclass(frozen=True)
class GainStats:
    """Five-number summary of a gain sample."""

    min: float
    lower_quartile: float
    median: float
    upper_quartile: float
    max: float
    n: int


def _quantile(sorted_values, phi):
    # linear interpolation between order statistics (the type-7 rule)
    n = sorted_values.shape[0]
    h = (n - 1) * phi
    lo = int(math.floor(h))
    hi = min(lo + 1, n - 1)
    frac = h - lo
    return float(sorted_values[lo] + frac * (sorted_values[hi] - sorted_values[lo]))


def gain_stats(values):
    """Five-number summary (min, quartiles, max) of a sequence of gains."""
    values = np.asarray(values, dtype=DTYPE)
    if values.ndim != 1:
        values = values.reshape(-1)
    if values.size == 0:
        raise EmptySampleError("gain_stats needs at least one value")
    s = np.sort(values)
    return GainStats(
        min=float(s[0]),
        lower_quartile=_quantile(s, 0.25),
        median=_quantile(s, 0.5),
        upper_quartile=_quantile(s, 0.75),
        max=float(s[-1]),
        n=int(s.shape[0]),
    )
