"""Array helpers: dtype policy, checks, exact matrix operator norms, weight init, RNG.

All numerics in the package run in 64-bit floats. Arrays are numpy ndarrays;
reductions delegate to numpy's kernels, whose accumulation order is fixed for
a given platform, so repeated runs with the same inputs are bit-identical.
"""

import math

import numpy as np

from .errors import InvalidValueError, ShapeError

DTYPE = np.float64

# Norm orders accepted throughout the package.
NORM_ORDERS = (1, 2, math.inf)


def as_tensor(data, name="tensor"):
    """Coerce to a C-contiguous float64 array and reject non-finite values."""
    arr = np.ascontiguousarray(data, dtype=DTYPE)
    check_finite(arr, name)
    return arr


def check_finite(arr, name="tensor"):
    if not np.isfinite(arr).all():
        raise InvalidValueError(f"{name} contains non-finite values")


def check_norm_order(p):
    if p not in NORM_ORDERS:
        raise InvalidValueError(f"norm order must be 1, 2 or inf, got {p!r}")


def operator_norm_exact(w, p):
    """Exact operator norm of a dense matrix for p=1 (max absolute column sum)
    or p=inf (max absolute row sum).

    Every sum runs over a contiguous row so it reduces exactly like a plain
    1-d numpy sum of the extracted vector; the result is then bitwise equal
    to maximizing ||W v||_p over the corresponding extreme vectors v.
    """
    w = np.ascontiguousarray(w, dtype=DTYPE)
    if w.ndim != 2 or w.shape[0] == 0 or w.shape[1] == 0:
        raise ShapeError(f"need a non-degenerate matrix, got shape {w.shape}")
    if p == 1:
        return float(np.max(np.ascontiguousarray(np.abs(w).T).sum(axis=1)))
    if p == math.inf:
        return float(np.max(np.abs(w).sum(axis=1)))
    raise InvalidValueError(f"exact operator norm needs p in {{1, inf}}, got {p!r}")


def _fan_in_out(shape):
    """Fan-in / fan-out for a weight shape.

    (out, in) for dense weights; (out_ch, in_ch, kh, kw) for conv kernels,
    where the receptive field multiplies into both fans.
    """
    if len(shape) == 2:
        out_dim, in_dim = shape
        return in_dim, out_dim
    if len(shape) == 4:
        out_ch, in_ch, kh, kw = shape
        return in_ch * kh * kw, out_ch * kh * kw
    raise ShapeError(f"cannot infer fans for weight shape {shape}")


def init_weights(shape, scheme, rng):
    """Draw an initial weight array of the given shape.

    Schemes:
        he-normal:      N(0, 2 / fan_in)
        glorot-uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))
    """
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ShapeError(f"weight shape must be positive, got {shape}")
    fan_in, fan_out = _fan_in_out(shape)
    if scheme == "he-normal":
        std = math.sqrt(2.0 / fan_in)
        return rng.normal(0.0, std, size=shape).astype(DTYPE)
    if scheme == "glorot-uniform":
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape).astype(DTYPE)
    raise InvalidValueError(f"unknown init scheme {scheme!r}")


def make_rng(seed):
    """Seeded PCG64 generator; same seed gives the same stream on any platform."""
    seed = int(seed)
    if seed < 0:
        raise InvalidValueError("seed must be a non-negative integer")
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rngs(seed, n):
    """Derive n independent child generators from one seed, deterministically."""
    children = np.random.SeedSequence(int(seed)).spawn(n)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]
