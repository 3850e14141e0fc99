"""Network stages with explicit forward/backward passes.

Stages are plain objects holding float64 parameter arrays. Every stage,
residual blocks included, has forward(x, mode, rng=None) -> (y, cache) and
backward(grad_y, cache, input_grad=True) -> (grad_x, param_grads). With
input_grad False no caller reads grad_x, and a learned stage skips it and
returns None: the network backward tells its first stage so, and returns
parameter gradients only, so it never computes the gradient with respect to
its input batch. In train mode a stage's cache holds only what its own
backward reads; in eval mode it holds no array.
A learned stage's cache also carries its gain pair ("gain"): the input batch X
and the bias-free linear outputs Z that the gain machinery consumes. The
network forward moves every pair into StepCaches, so a stage cache that
reaches backward never holds one.

Each stage class describes itself once, for config JSON, checkpoints and
every walk over a network (STAGE_TYPES lists the classes):

- kind: its name in config JSON and checkpoints;
- hyper: its hyperparameters, a parse_fields table;
- param_names and state: the learned arrays and the other arrays a
  checkpoint stores, the constructor's leading arguments in that order
  (then the parts; hyper by keyword), learned ones copied (training
  updates them in place);
- weight_param: the array a gain constraint rescales; only learned layers declare one;
- min_batch: the fewest instances a train-mode batch may hold;
- parts: attributes holding nested stage lists (None is empty), run as
  branches whose outputs add; cache and param_grads map each part to a list;
- operator_norm(p, in_shape): the l_p operator norm of its eval-mode map on
  in_shape instances, in closed form (for a conv at p=2, an upper bound);
- config_keys and initial(scheme, rng, *sizes): the config fields that size
  a new stage (a parse_fields table), and the constructor arguments made
  from them (by default the values themselves, as a residual block's parts);
- out_shape(in_shape): the instance shape it maps an instance shape to.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CacheError, DivergenceError, InvalidValueError, ShapeError
from .tensor import DTYPE, as_tensor, init_weights, operator_norm_exact

MODES = ("train", "eval")


def _check_mode(mode):
    if mode not in MODES:
        raise InvalidValueError(f"mode must be 'train' or 'eval', got {mode!r}")


def _check_batch(x, rank, what):
    if x.ndim != rank:
        raise ShapeError(f"{what} expects a rank-{rank} batch, got shape {x.shape}")
    if x.shape[0] == 0:
        raise ShapeError(f"{what} got an empty batch")


def integer(value):
    """int(value), refusing a fractional number, a bool or a non-integer string."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def real(value):
    """float(value) of a number or a numeric string (files hold text),
    refusing a bool and a non-finite result."""
    if isinstance(value, bool) or not np.isfinite(float(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def reals(values):
    """A float64 array of numbers or numeric strings, parsed in one
    vectorised call with float()'s grammar, refusing a non-finite entry."""
    arr = np.array(values, dtype=DTYPE)
    if not np.all(np.isfinite(arr)):
        raise ValueError("expected finite numbers")
    return arr


def at_least(low, typ):
    """A field type: typ(value), refusing a result below low."""
    def check(value):
        if typ(value) < low:
            raise ValueError(f"expected at least {low}, got {value!r}")
        return typ(value)
    return check


# The default of a field that has none, and a required integer field (a size
# or a count).
REQUIRED = object()
SIZE = (at_least(1, integer), REQUIRED)


def of_type(typ):
    """A field type that takes a value of type typ as it is."""
    def check(value):
        if not isinstance(value, typ):
            raise TypeError(f"expected a {typ.__name__}, got {value!r}")
        return value
    return check


def one_of(*choices):
    """A field type that takes one of the given values."""
    def check(value):
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(map(repr, choices))}, got {value!r}")
        return value
    return check


def parse_fields(what, fields, given, error, other_keys=()):
    """Mapping `given` (checkpoint strings or JSON values) converted by the
    table `fields`, name -> (type, default); defaults, and nulls where the
    default is None, stay as they are. A non-mapping, a key in neither fields
    nor other_keys, a value its type rejects or a missing REQUIRED field
    raises `error` naming `what` and the key."""
    if not isinstance(given, dict):
        raise error(f"{what} must be a mapping, got {given!r}")
    for key in given:
        if key not in fields and key not in other_keys:
            raise error(f"unknown key {key!r} in {what}")
    out = {}
    for name, (typ, default) in fields.items():
        value = given.get(name, default)
        if value is REQUIRED:
            raise error(f"{what} is missing required key {name!r}")
        out[name] = value if value is default else parse_value(what, name, typ, value, error)
    return out


def parse_value(what, name, typ, value, error):
    """typ(value) for field type typ; a value it rejects raises `error`
    naming `what` and `name`."""
    try:
        return typ(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise error(f"bad {name!r} in {what}: {err}") from None


class Stage:
    """Declaration defaults: no hyperparameters, no arrays, not learned, no
    parts, config values passed to the constructor as they are, instances
    keep their shape, and operator norm 1."""

    hyper = {}
    param_names = ()
    state = ()
    weight_param = None
    min_batch = 1
    parts = ()
    config_keys = {}

    @staticmethod
    def initial(scheme, rng, *sizes):
        return sizes

    def out_shape(self, in_shape):
        return tuple(in_shape)

    def operator_norm(self, p, in_shape):
        return 1.0


class Dense(Stage):
    """Affine map y = x W^T + b with W of shape (out, in)."""

    kind = "dense"
    param_names = ("w", "b")
    weight_param = "w"
    config_keys = {"in": SIZE, "out": SIZE}

    @staticmethod
    def initial(scheme, rng, n_in, n_out):
        return init_weights((n_out, n_in), scheme, rng), np.zeros(n_out)

    def __init__(self, w, b):
        w = as_tensor(w, "dense weights").copy()
        b = as_tensor(b, "dense bias").copy()
        if w.ndim != 2:
            raise ShapeError(f"dense weights must be rank 2, got {w.shape}")
        if b.shape != (w.shape[0],):
            raise ShapeError(f"dense bias shape {b.shape} does not match weights {w.shape}")
        self.w = w
        self.b = b

    @property
    def in_features(self):
        return self.w.shape[1]

    @property
    def out_features(self):
        return self.w.shape[0]

    def out_shape(self, in_shape):
        if tuple(in_shape) != (self.in_features,):
            raise ShapeError(f"dense expects shape ({self.in_features},), got {tuple(in_shape)}")
        return (self.out_features,)

    def operator_norm(self, p, in_shape):
        return float(np.linalg.norm(self.w, 2)) if p == 2 else operator_norm_exact(self.w, p)

    def forward(self, x, mode, rng=None):
        _check_batch(x, 2, "dense")
        self.out_shape(x.shape[1:])
        z = x @ self.w.T
        y = z + self.b
        return y, {"gain": (x, z), "x": x} if mode == "train" else {"gain": (x, z)}

    def backward(self, grad_y, cache, input_grad=True):
        grads = {"w": grad_y.T @ cache["x"], "b": grad_y.sum(axis=0)}
        return (grad_y @ self.w if input_grad else None), grads


# Output positions per Conv2d block of images: one 32x32 image, or four
# 16x16 ones. A block's tap rows and per-tap products then stay in cache
# instead of making a full-batch pass through memory for every tap.
_BLOCK_POSITIONS = 1024


def _blocks(n, oh, ow):
    """(nb, slices): images per block, as many as fit _BLOCK_POSITIONS output
    positions but at least one, and the slices of nb images covering a batch
    of n (the last may be short)."""
    nb = min(n, max(1, _BLOCK_POSITIONS // (oh * ow)))
    return nb, [slice(b, b + nb) for b in range(0, n, nb)]


class Conv2d(Stage):
    """2-d convolution (cross-correlation) with stride and zero padding.

    kernel has shape (out_ch, in_ch, kh, kw); bias is per output channel.
    The linear map is computed as one GEMM per kernel tap (i, j) on a
    zero-padded channels-last copy of the input, in cache-sized blocks of
    images, so no unfolded im2col buffer is ever built and each block's tap
    rows and products stay in cache; backward and the adjoint reuse the
    same taps and blocks.
    """

    kind = "conv"
    hyper = {"stride": (integer, 1), "pad": (integer, 0)}
    param_names = ("kernel", "b")
    weight_param = "kernel"
    config_keys = {"in": SIZE, "out": SIZE, "kernel": SIZE}

    @staticmethod
    def initial(scheme, rng, n_in, n_out, k):
        return init_weights((n_out, n_in, k, k), scheme, rng), np.zeros(n_out)

    def __init__(self, kernel, b, stride=1, pad=0):
        kernel = as_tensor(kernel, "conv kernel").copy()
        b = as_tensor(b, "conv bias").copy()
        if kernel.ndim != 4:
            raise ShapeError(f"conv kernel must be rank 4, got {kernel.shape}")
        if b.shape != (kernel.shape[0],):
            raise ShapeError(f"conv bias shape {b.shape} does not match kernel {kernel.shape}")
        if stride < 1 or pad < 0:
            raise InvalidValueError(f"bad conv geometry: stride={stride} pad={pad}")
        self.kernel = kernel
        self.b = b
        self.stride = int(stride)
        self.pad = int(pad)

    def out_shape(self, in_shape):
        """Instance output shape (out_ch, oh, ow) for an instance shape (C, H, W)."""
        oc, ic, kh, kw = self.kernel.shape
        if len(in_shape) != 3 or in_shape[0] != ic:
            raise ShapeError(f"conv expects ({ic}, H, W) instances, got {tuple(in_shape)}")
        h, w = in_shape[1], in_shape[2]
        oh = (h + 2 * self.pad - kh) // self.stride + 1
        ow = (w + 2 * self.pad - kw) // self.stride + 1
        if oh <= 0 or ow <= 0:
            raise ShapeError(f"kernel ({kh}x{kw}) does not fit input ({h}x{w}) with pad {self.pad}")
        return oc, oh, ow

    def operator_norm(self, p, in_shape):
        """p in {1, inf}: exact, as the largest column sum |A|^T 1 or row sum
        |A| 1 of |A|, the conv with kernel |K|. p=2: an upper bound. On a
        periodic grid of the padded size the conv is circular, with no
        wrap-around reaching a kept output, so its norm is at most the largest
        singular value of the kernel's DFT over all frequencies (Sedghi, Gupta
        & Long, arXiv 1805.10408). The real FFT keeps one frequency of each
        conjugate pair, whose singular values agree."""
        out = self.out_shape(in_shape)
        if p == 2:
            grid = (in_shape[1] + 2 * self.pad, in_shape[2] + 2 * self.pad)
            spectrum = np.fft.rfft2(self.kernel, s=grid).transpose(2, 3, 0, 1)
            return float(np.linalg.svd(spectrum, compute_uv=False).max())
        abs_conv = Conv2d(np.abs(self.kernel), self.b, self.stride, self.pad)
        if p == 1:
            return float(abs_conv.apply_linear_adjoint(np.ones(out), in_shape).max())
        return float(abs_conv.apply_linear(np.ones(in_shape)).max())

    def _taps(self, buf, oh, ow):
        """(i, j, view) per kernel tap: the (N, oh, ow, C) positions of a
        padded channels-last buffer that tap (i, j) reads from (or writes to)."""
        kh, kw = self.kernel.shape[2:]
        s = self.stride
        for i in range(kh):
            for j in range(kw):
                yield i, j, buf[:, i:i + s * oh:s, j:j + s * ow:s, :]

    def _tap_rows(self, xt, rows):
        """(i, j, rows) per kernel tap: the (m*oh*ow, C) input rows tap (i, j)
        reads from the m-image padded block xt, copied into rows[:m]."""
        rows = rows[:xt.shape[0]]
        for i, j, tap in self._taps(xt, *rows.shape[1:3]):
            np.copyto(rows, tap)
            yield i, j, rows.reshape(-1, rows.shape[3])

    def _linear(self, x):
        """Bias-free output (N, out_ch, oh, ow) and the padded channels-last input."""
        oc, oh, ow = self.out_shape(x.shape[1:])
        n, c, h, w = x.shape
        p = self.pad
        xt = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=DTYPE)
        xt[:, p:p + h, p:p + w, :] = x.transpose(0, 2, 3, 1)
        z = np.zeros((n, oh, ow, oc), dtype=DTYPE)
        nb, blocks = _blocks(n, oh, ow)
        rows = np.empty((nb, oh, ow, c), dtype=DTYPE)
        prod = np.empty((nb * oh * ow, oc), dtype=DTYPE)
        for blk in blocks:
            zb = z[blk].reshape(-1, oc)
            pb = prod[:len(zb)]
            for i, j, r in self._tap_rows(xt[blk], rows):
                zb += np.matmul(r, self.kernel[:, :, i, j].T, out=pb)
        return z.transpose(0, 3, 1, 2), xt

    def _interior(self, buf):
        """The (N, C, H, W) view of a padded channels-last buffer without its padding."""
        p = self.pad
        return buf[:, p:buf.shape[1] - p, p:buf.shape[2] - p, :].transpose(0, 3, 1, 2)

    def _grad_input(self, g, x_shape):
        """Adjoint of the linear map: scatter-add g, the (N, oh, ow, out_ch)
        output gradient, back onto the input grid tap by tap, block by block,
        and crop the padding."""
        n, c, h, w = x_shape
        oh, ow, oc = g.shape[1:]
        p = self.pad
        gxt = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=DTYPE)
        nb, blocks = _blocks(n, oh, ow)
        prod = np.empty((nb * oh * ow, c), dtype=DTYPE)
        for blk in blocks:
            gb = g[blk].reshape(-1, oc)
            pb = prod[:len(gb)]
            for i, j, tap in self._taps(gxt[blk], oh, ow):
                tap += np.matmul(gb, self.kernel[:, :, i, j], out=pb).reshape(tap.shape)
        return self._interior(gxt)

    def forward(self, x, mode, rng=None):
        """The gain input is a view of the padded copy xt that backward reads,
        so the stage keeps no second copy of x."""
        _check_batch(x, 4, "conv")
        z, xt = self._linear(x)
        y = z + self.b[None, :, None, None]
        gain = (self._interior(xt), z)
        return y, {"gain": gain, "xt": xt} if mode == "train" else {"gain": gain}

    def backward(self, grad_y, cache, input_grad=True):
        xt = cache["xt"]
        n, oc, oh, ow = grad_y.shape
        g = grad_y.transpose(0, 2, 3, 1)
        nb, blocks = _blocks(n, oh, ow)
        rows = np.empty((nb, oh, ow, xt.shape[3]), dtype=DTYPE)
        grad_kernel = np.zeros_like(self.kernel)
        for blk in blocks:
            gb = g[blk].reshape(-1, oc)
            for i, j, r in self._tap_rows(xt[blk], rows):
                grad_kernel[:, :, i, j] += gb.T @ r
        grad_b = grad_y.sum(axis=(0, 2, 3))
        grad_x = self._grad_input(g, self._interior(xt).shape) if input_grad else None
        return grad_x, {"kernel": grad_kernel, "b": grad_b}

    def apply_linear(self, x):
        z, _ = self._linear(x[None])
        return z[0]

    def apply_linear_adjoint(self, y, input_shape):
        out = self.out_shape(input_shape)
        if y.shape != out:
            raise ShapeError(f"adjoint input must be a single {out} instance, got shape {y.shape}")
        return self._grad_input(y.transpose(1, 2, 0)[None], (1,) + tuple(input_shape))[0]


class BatchNorm(Stage):
    """Per-channel normalization with learned scale alpha and shift beta.

    Train mode normalizes with minibatch statistics (and the gradient flows
    through them); the recorded linear-output cache Z instead uses the running
    standard-deviation estimates, the same ones eval-mode predictions use, so
    gain measurements stay stable across minibatches. Running averages are
    updated before Z is recorded. Variance is the biased (1/N) estimate
    throughout. The running statistics start at mean 0 and variance 1 unless
    given.
    """

    kind = "batchnorm"
    hyper = {"momentum": (real, 0.9), "eps": (real, 1e-5)}
    param_names = ("alpha", "beta")
    state = ("running_mean", "running_var")
    weight_param = "alpha"
    min_batch = 2
    config_keys = {"channels": SIZE}

    @staticmethod
    def initial(scheme, rng, channels):
        return np.ones(channels), np.zeros(channels)

    def __init__(self, alpha, beta, running_mean=None, running_var=None, momentum=0.9, eps=1e-5):
        alpha = as_tensor(alpha, "batchnorm alpha").copy()
        beta = as_tensor(beta, "batchnorm beta").copy()
        mean = as_tensor(np.zeros_like(alpha) if running_mean is None else running_mean, "batchnorm running_mean")
        var = as_tensor(np.ones_like(alpha) if running_var is None else running_var, "batchnorm running_var")
        if alpha.ndim != 1 or not alpha.shape == beta.shape == mean.shape == var.shape:
            raise ShapeError(f"alpha, beta, running_mean and running_var must be rank-1 arrays of one "
                             f"shape, got {alpha.shape}, {beta.shape}, {mean.shape} and {var.shape}")
        if np.any(var < 0.0):
            raise InvalidValueError(f"running_var must not be negative, got {var.min()}")
        if not 0.0 <= momentum < 1.0:
            raise InvalidValueError(f"momentum must be in [0, 1), got {momentum}")
        if eps <= 0.0:
            raise InvalidValueError(f"eps must be positive, got {eps}")
        self.alpha = alpha
        self.beta = beta
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.running_mean = mean
        self.running_var = var

    @property
    def channels(self):
        return self.alpha.shape[0]

    def out_shape(self, in_shape):
        if len(in_shape) not in (1, 3) or in_shape[0] != self.channels:
            raise ShapeError(f"batchnorm expects ({self.channels},) or ({self.channels}, H, W) "
                             f"instances, got {tuple(in_shape)}")
        return tuple(in_shape)

    @property
    def scale(self):
        """Per-channel eval-mode scale alpha / sqrt(running_var + eps)."""
        return self.alpha / np.sqrt(self.running_var + self.eps)

    def operator_norm(self, p, in_shape):
        return float(np.max(np.abs(self.scale)))

    def forward(self, x, mode, rng=None):
        self.out_shape(x.shape[1:])
        _check_batch(x, x.ndim, "batchnorm")
        # per-channel statistics reduce over every axis but 1
        axes, bshape = (0, *range(2, x.ndim)), (1, -1) + (1,) * (x.ndim - 2)
        if mode == "train":
            if x.shape[0] < self.min_batch:
                raise ShapeError(f"train-mode batchnorm needs a batch of at least {self.min_batch}")
            # x.var's own steps, keeping the centred copy and its square:
            # xhat is then built in the first and y in the second
            mu = x.mean(axis=axes)
            xhat = x - mu.reshape(bshape)
            y = np.square(xhat)
            var = y.sum(axis=axes) / (x.size // self.channels)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat *= inv_std.reshape(bshape)
            np.multiply(self.alpha.reshape(bshape), xhat, out=y)
            y += self.beta.reshape(bshape)
            m = self.momentum
            self.running_mean = m * self.running_mean + (1.0 - m) * mu
            self.running_var = m * self.running_var + (1.0 - m) * var
            z = x * self.scale.reshape(bshape)
            return y, {"gain": (x, z), "inv_std": inv_std, "xhat": xhat}
        scale = self.scale
        z = x * scale.reshape(bshape)
        y = z + (self.beta - scale * self.running_mean).reshape(bshape)
        return y, {"gain": (x, z)}

    def backward(self, grad_y, cache, input_grad=True):
        xhat, inv_std = cache["xhat"], cache["inv_std"]
        axes, bshape = (0, *range(2, xhat.ndim)), (1, -1) + (1,) * (xhat.ndim - 2)
        m = xhat.size // self.channels
        prod = grad_y * xhat
        grads = {"alpha": prod.sum(axis=axes), "beta": grad_y.sum(axis=axes)}
        if not input_grad:
            return None, grads
        # gradient through the minibatch mean and variance, in place in gxhat:
        # inv_std / m * (m * gxhat - gsum - xhat * gdot)
        gxhat = grad_y * self.alpha.reshape(bshape)
        gsum = gxhat.sum(axis=axes).reshape(bshape)
        gdot = np.multiply(gxhat, xhat, out=prod).sum(axis=axes).reshape(bshape)
        gxhat *= m
        gxhat -= gsum
        gxhat -= np.multiply(xhat, gdot, out=prod)
        gxhat *= inv_std.reshape(bshape) / m
        return gxhat, grads


class Dropout(Stage):
    """Zeroes activations with the given probability while training.

    Standard (non-inverted) form: train mode applies the binary mask with no
    rescaling, eval mode multiplies by the keep probability (1 - rate).
    """

    kind = "dropout"
    hyper = {"rate": (real, REQUIRED)}

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise InvalidValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)

    def operator_norm(self, p, in_shape):
        return 1.0 - self.rate

    def forward(self, x, mode, rng=None):
        if mode == "train":
            if rng is None:
                raise InvalidValueError("train-mode dropout needs an rng")
            mask = rng.random(x.shape) >= self.rate
            return x * mask, {"mask": mask}
        return x * (1.0 - self.rate), {}

    def backward(self, grad_y, cache, input_grad=True):
        return grad_y * cache["mask"], None


class ReLU(Stage):
    kind = "relu"

    def forward(self, x, mode, rng=None):
        return np.maximum(x, 0.0), {"mask": x > 0.0} if mode == "train" else {}

    def backward(self, grad_y, cache, input_grad=True):
        return grad_y * cache["mask"], None


class MaxPool2d(Stage):
    """Max pooling over square windows; stride defaults to the window size.

    When a window holds tied maxima the gradient is routed to the first
    position in row-major window order (what argmax returns).
    """

    kind = "maxpool"
    hyper = {"kernel": (integer, REQUIRED), "stride": (integer, None)}

    def __init__(self, kernel, stride=None):
        if kernel < 1:
            raise InvalidValueError(f"pooling window must be >= 1, got {kernel}")
        self.kernel = int(kernel)
        self.stride = int(stride) if stride is not None else int(kernel)
        if self.stride < 1:
            raise InvalidValueError(f"pooling stride must be >= 1, got {self.stride}")

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeError(f"maxpool expects (C, H, W) instances, got {tuple(in_shape)}")
        c, h, w = in_shape
        oh = (h - self.kernel) // self.stride + 1
        ow = (w - self.kernel) // self.stride + 1
        if oh <= 0 or ow <= 0:
            raise ShapeError(f"pooling window {self.kernel} does not fit input ({h}x{w})")
        return c, oh, ow

    def operator_norm(self, p, in_shape):
        """m ** (1 / p), m the most windows one input lies in (it can move all
        their outputs): per axis ceil(kernel / stride) or the window count."""
        _, oh, ow = self.out_shape(in_shape)
        per_axis = -(-self.kernel // self.stride)
        return float(min(per_axis, oh) * min(per_axis, ow)) ** (1.0 / p)

    def _taps(self, a, oh, ow):
        """Per window tap, in row-major window order, the (N, C, oh, ow) view of a it covers."""
        k, s = self.kernel, self.stride
        return [a[:, :, i:i + s * oh:s, j:j + s * ow:s] for i in range(k) for j in range(k)]

    def forward(self, x, mode, rng=None):
        """A running maximum over the taps: no window is copied. Train mode
        also records the index of the tap that reached it, in the smallest
        unsigned dtype that holds kernel**2 - 1 (uint8 up to kernel 16).
        y and the index are stored in the axis order x is stored in, and so
        is the gradient backward returns: a conv's channels-last output gets
        a channels-last gradient, which the stages before it then read and
        reduce in their own arrays' order."""
        _check_batch(x, 4, "maxpool")
        taps = self._taps(x, *self.out_shape(x.shape[1:])[1:])
        y = taps[0].astype(DTYPE)
        idx = np.zeros_like(y, dtype=np.min_scalar_type(len(taps) - 1)) if mode == "train" else None
        for t in range(1, len(taps)):
            # taps[t] > y, or a NaN over a number: argmax's order, in which
            # the first maximum, or the first NaN, of each window wins
            hit = ~(taps[t] <= y) & (y == y)
            np.copyto(y, taps[t], where=hit)
            if idx is not None:
                np.copyto(idx, t, where=hit)
        return y, {"x_shape": x.shape, "idx": idx} if mode == "train" else {}

    def backward(self, grad_y, cache, input_grad=True):
        idx = cache["idx"]
        grad_x = np.zeros_like(idx, dtype=DTYPE, shape=cache["x_shape"])
        for t, tap in enumerate(self._taps(grad_x, *idx.shape[2:])):
            tap += np.where(idx == t, grad_y, 0.0)
        return grad_x, None


class Flatten(Stage):
    kind = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, mode, rng=None):
        _check_batch(x, x.ndim, "flatten")
        if x.ndim < 2:
            raise ShapeError(f"flatten expects a batch, got shape {x.shape}")
        return x.reshape(x.shape[0], -1), {"x_shape": x.shape}

    def backward(self, grad_y, cache, input_grad=True):
        return grad_y.reshape(cache["x_shape"]), None


class ResidualBlock(Stage):
    """Sum of a main stage sequence and a shortcut (identity when None).

    The block itself is not a learned layer; gain constraints see only the
    learned stages inside it, main path first, then the shortcut. Config JSON
    and checkpoints nest both stage lists.
    """

    kind = "residual"
    parts = ("main", "shortcut")
    config_keys = {"main": (of_type(list), REQUIRED), "shortcut": (of_type(list), None)}

    def __init__(self, main, shortcut=None):
        if not main:
            raise ShapeError("residual block needs a non-empty main path")
        self.main = list(main)
        self.shortcut = list(shortcut) if shortcut else None

    def out_shape(self, in_shape):
        out, short = (chain_shape(getattr(self, part) or (), in_shape) for part in self.parts)
        if out != short:
            raise ShapeError(f"residual branches disagree: main {out} vs shortcut {short}")
        return out

    def operator_norm(self, p, in_shape):
        return sum(stages_operator_norm(getattr(self, part) or (), p, in_shape)
                   for part in self.parts)

    def forward(self, x, mode, rng=None):
        self.out_shape(x.shape[1:])
        y_main, caches_main = _forward_stages(self.main, x, mode, rng)
        y_short, caches_short = _forward_stages(self.shortcut or (), x, mode, rng)
        return y_main + y_short, {"main": caches_main, "shortcut": caches_short}

    def backward(self, grad_y, cache, input_grad=True):
        grad_main, grads_main = _backward_stages(self.main, grad_y, cache["main"], input_grad)
        grad_short, grads_short = _backward_stages(self.shortcut or (), grad_y, cache["shortcut"], input_grad)
        grad_x = grad_main + grad_short if input_grad else None
        return grad_x, {"main": grads_main, "shortcut": grads_short}


STAGE_TYPES = {cls.kind: cls for cls in (
    Dense, Conv2d, BatchNorm, Dropout, ReLU, MaxPool2d, Flatten, ResidualBlock)}


def chain_shape(stages, shape):
    """The instance shape that stages, applied in turn, map shape to."""
    for st in stages:
        shape = st.out_shape(shape)
    return tuple(shape)


def stages_operator_norm(stages, p, shape):
    """Product of the stages' operator norms, each at the instance shape it
    receives: an upper bound on the Lipschitz constant of their composition."""
    bound = 1.0
    for st in stages:
        bound *= st.operator_norm(p, shape)
        shape = st.out_shape(shape)
    return bound


class Network:
    """An ordered stack of stages."""

    def __init__(self, stages):
        if not stages:
            raise ShapeError("network needs at least one stage")
        self.stages = list(stages)

    def learned_layers(self):
        """Learned stages in forward traversal order (residual: main, then shortcut)."""
        return [st for st, _ in _learned(self.stages)]


def _learned(stages, tree=None):
    """(stage, entry) per learned stage under stages, in learned_layers() order;
    entries come from tree if given, which mirrors stages (caches or param_grads)."""
    for i, st in enumerate(stages):
        entry = None if tree is None else tree[i]
        for part in st.parts:
            yield from _learned(getattr(st, part) or (), None if entry is None else entry[part])
        if st.weight_param is not None:
            yield st, entry


@dataclass
class StepCaches:
    """Everything one forward pass recorded.

    xs[j] / zs[j] are the input batch and bias-free linear output batch of the
    j-th learned layer, in Network.learned_layers() order: the gain pairs,
    which live only here. stage_caches mirrors the stage tree and feeds
    backward(); each holds only what its stage's backward reads, so backward
    needs neither list, and train_step sets both to None once it has measured
    the gains, before backward runs.
    """

    net_id: int
    mode: str
    batch_size: int
    stage_caches: list = field(default_factory=list)
    xs: list = field(default_factory=list)
    zs: list = field(default_factory=list)


def _forward_stages(stages, x, mode, rng):
    caches = []
    for st in stages:
        x, cache = st.forward(x, mode, rng)
        caches.append(cache)
    return x, caches


def _backward_stages(stages, grad, caches, input_grad):
    """(input gradient, per-stage param_grads in stage order). Only the
    first stage is told input_grad; every later one's input gradient is what
    the stage before it reads."""
    if len(caches) != len(stages):
        raise CacheError("stage caches do not cover every learned layer")
    grads = [None] * len(stages)
    for i in reversed(range(len(stages))):
        grad, grads[i] = stages[i].backward(grad, caches[i], input_grad=input_grad or i > 0)
    return grad, grads


def forward(net, x, mode, rng=None):
    """Run the network on a batch; returns (output, StepCaches).

    Train mode updates BatchNorm running statistics as a side effect and needs
    an rng whenever a Dropout stage is present. Each learned stage's gain pair
    moves from its stage cache into StepCaches.xs / zs.
    """
    _check_mode(mode)
    x = as_tensor(x, "network input")
    if x.shape[0] == 0:
        raise ShapeError("network got an empty batch")
    y, stage_caches = _forward_stages(net.stages, x, mode, rng)
    pairs = [cache.pop("gain") for _, cache in _learned(net.stages, stage_caches)]
    return y, StepCaches(id(net), mode, x.shape[0], stage_caches,
                         [gx for gx, _ in pairs], [gz for _, gz in pairs])


def backward(net, caches, loss_grad):
    """Backpropagate loss_grad through the network using one step's caches.

    Returns one dict per learned layer, in Network.learned_layers() order,
    mapping its param_names to their gradients; the gradient with respect
    to the network input is never computed. The caches must come from a
    train-mode forward pass on this very network; anything else raises
    CacheError.
    """
    if not isinstance(caches, StepCaches) or caches.net_id != id(net):
        raise CacheError("caches were not produced by this network")
    if caches.mode != "train":
        raise CacheError("backward needs caches from a train-mode forward pass")
    loss_grad = np.asarray(loss_grad, dtype=DTYPE)
    _, grads = _backward_stages(net.stages, loss_grad, caches.stage_caches, False)
    return [g for _, g in _learned(net.stages, grads)]


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch and its gradient wrt the logits.

    Returns (loss, grad) with grad = (softmax(logits) - onehot(labels)) / N.
    This is the one verdict on non-finite outputs, in training and evaluation
    alike: a non-finite logit, found before the labels are checked, or a
    non-finite loss (finite logits whose true class trails by more than the
    float range) raises DivergenceError.
    """
    try:
        logits = as_tensor(logits, "logits")
    except InvalidValueError:
        raise DivergenceError("non-finite logits") from None
    if logits.ndim != 2:
        raise ShapeError(f"logits must be rank 2, got shape {logits.shape}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    if labels.shape[0] == 0:
        raise ShapeError("empty batch")
    if not np.issubdtype(labels.dtype, np.integer):
        raise InvalidValueError("labels must be integers")
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise IndexError(f"labels must lie in [0, {c}), got range [{labels.min()}, {labels.max()}]")
    row_max = logits.max(axis=1, keepdims=True)
    grad = np.exp(logits - row_max)
    total = grad.sum(axis=1, keepdims=True)
    lse = (row_max + np.log(total))[:, 0]
    loss = float(np.mean(lse - logits[np.arange(n), labels]))
    if not math.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss}")
    grad /= total
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad
