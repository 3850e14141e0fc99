"""Network stages with explicit forward/backward passes.

Stages are plain objects holding float64 parameter arrays. Every stage,
residual blocks included, has forward(x, mode, rng=None, gain=no_gain) ->
(y, cache) and backward(grad_y, cache, input_grad=True) -> (grad_x,
param_grads). With input_grad False no caller reads grad_x, and a learned
stage skips it and returns None: the network backward tells its first stage
so, and returns parameter gradients only, so it never computes the gradient
with respect to its input batch. In train mode a stage's cache holds only
what its own backward reads, and backward takes it out, so a second
backward on the same cache raises CacheError; in eval mode it holds no array.
A conv after a batchnorm, or a relu of one, keeps a Rebuild over that
batchnorm's cache in place of its input. A stage may write into a
writeable grad_y; the caller's gradient, and one both residual branches
read, come read-only.
A learned stage hands gain(x, z) its input batch x and bias-free linear
outputs z as soon as it has run, then adds its bias into z in place, so no
z outlives it (a callback that keeps z must copy it); residual blocks pass
gain on. The network forward collects the results in StepCaches.

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
- parts: attributes holding nested stage lists, run as branches whose
  outputs add; cache and param_grads map each part to a list;
- operator_norm(p, in_shape): the l_p operator norm of its eval-mode map on
  in_shape instances, in closed form (for a conv at p=2, an upper bound);
- config_keys and initial(scheme, rng, *sizes): the config fields that size
  a new stage (a parse_fields table), and the constructor arguments made
  from them (by default the values themselves, as a residual block's parts);
- out_shape(in_shape): the instance shape it maps an instance shape to;
- rebuild(cache, source): after a train-mode forward, given source, the
  Rebuild of its input or None, the Rebuild of its output or None; a stage
  that keeps its input may keep source in its place.
"""

import math
from dataclasses import dataclass, replace

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
    keep their shape, operator norm 1, and no Rebuild of the output."""

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

    def rebuild(self, cache, source):
        return None


@dataclass(frozen=True, eq=False)
class Rebuild:
    """A batchnorm's train-mode output alpha * xhat + beta, then max(., 0)
    after a relu, remade from the xhat its cache keeps with the forward's own
    ufuncs, so it comes back bitwise. Indexing takes images; a conv reads it
    channels-last, as it keeps its input."""

    xhat: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    relu: bool = False

    @property
    def shape(self):
        n, c, h, w = self.xhat.shape
        return n, h, w, c

    def __getitem__(self, images):
        return replace(self, xhat=self.xhat[images])

    def fill(self, out):
        """Writes the images channels-last into out."""
        np.multiply(self.alpha, self.xhat.transpose(0, 2, 3, 1), out=out)
        out += self.beta
        if self.relu:
            np.maximum(out, 0.0, out=out)


def no_gain(x, z):
    """The gain callback that measures nothing, every stage's default."""


def _take(cache, key):
    """cache[key], taken out: backward uses a stage cache up, so a second backward raises."""
    if key not in cache:
        raise CacheError(f"stage cache holds no {key!r}: a backward pass used it up, or it is not from train mode")
    return cache.pop(key)


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

    def out_shape(self, in_shape):
        out, n_in = self.w.shape
        if tuple(in_shape) != (n_in,):
            raise ShapeError(f"dense expects shape ({n_in},), got {tuple(in_shape)}")
        return (out,)

    def operator_norm(self, p, in_shape):
        return float(np.linalg.norm(self.w, 2)) if p == 2 else operator_norm_exact(self.w, p)

    def forward(self, x, mode, rng=None, gain=no_gain):
        _check_batch(x, 2, "dense")
        self.out_shape(x.shape[1:])
        z = x @ self.w.T
        gain(x, z)
        return np.add(z, self.b, out=z), {"x": x} if mode == "train" else {}

    def backward(self, grad_y, cache, input_grad=True):
        grads = {"w": grad_y.T @ _take(cache, "x"), "b": grad_y.sum(axis=0)}
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
    The linear map is computed as one GEMM per kernel tap (i, j), in
    cache-sized blocks of images, each block zero-padded channels-last into
    one reused buffer: no padded or unfolded (im2col) copy of the batch is
    ever built, and each block's tap rows and products stay in cache;
    backward and the adjoint reuse the same taps and blocks. After a
    batchnorm, or a relu of one, the stage keeps that batchnorm's Rebuild
    instead of its input, and backward fills each padded block from it.
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

    def _padded(self, m, h, w, c):
        """A zeroed buffer of m channels-last (H, W, C) images and their padding."""
        return np.zeros((m, h + 2 * self.pad, w + 2 * self.pad, c), dtype=DTYPE)

    def _tap_rows(self, xb, xt, rows):
        """(i, j, rows) per kernel tap: the (m*oh*ow, C) input rows tap (i, j)
        reads from the m-image channels-last block xb (an array or a
        Rebuild), zero-padded into xt[:m] (whose border is never written)
        and copied into rows[:m]."""
        m, h, w, _ = xb.shape
        xt, rows, p = xt[:m], rows[:m], self.pad
        inner = xt[:, p:p + h, p:p + w, :]
        if isinstance(xb, Rebuild):
            xb.fill(inner)
        else:
            inner[...] = xb
        for i, j, tap in self._taps(xt, *rows.shape[1:3]):
            np.copyto(rows, tap)
            yield i, j, rows.reshape(-1, rows.shape[3])

    def _linear(self, x):
        """Bias-free output (N, out_ch, oh, ow), padding one block of images
        at a time; x is read through its channels-last view."""
        oc, oh, ow = self.out_shape(x.shape[1:])
        n, c, h, w = x.shape
        xc = x.transpose(0, 2, 3, 1)
        z = np.zeros((n, oh, ow, oc), dtype=DTYPE)
        nb, blocks = _blocks(n, oh, ow)
        xt, rows = self._padded(nb, h, w, c), np.empty((nb, oh, ow, c), dtype=DTYPE)
        prod = np.empty((nb * oh * ow, oc), dtype=DTYPE)
        for blk in blocks:
            zb = z[blk].reshape(-1, oc)
            pb = prod[:len(zb)]
            for i, j, r in self._tap_rows(xc[blk], xt, rows):
                zb += np.matmul(r, self.kernel[:, :, i, j].T, out=pb)
        return z.transpose(0, 3, 1, 2)

    def _grad_input(self, g, x_shape):
        """Adjoint of the linear map: scatter-add g, the (N, oh, ow, out_ch)
        output gradient, tap by tap into one zeroed padded buffer a block of
        images at a time, and copy each block's interior into a channels-last
        result; returns its (N, C, H, W) view for x_shape (N, H, W, C)."""
        n, h, w, c = x_shape
        oh, ow, oc = g.shape[1:]
        p = self.pad
        nb, blocks = _blocks(n, oh, ow)
        gxt, grad_x = self._padded(nb, h, w, c), np.empty(x_shape, dtype=DTYPE)
        prod = np.empty((nb * oh * ow, c), dtype=DTYPE)
        for blk in blocks:
            gb = g[blk].reshape(-1, oc)
            gt, pb = gxt[:len(gb) // (oh * ow)], prod[:len(gb)]
            gt.fill(0.0)
            for i, j, tap in self._taps(gt, oh, ow):
                tap += np.matmul(gb, self.kernel[:, :, i, j], out=pb).reshape(tap.shape)
            grad_x[blk] = gt[:, p:p + h, p:p + w, :]
        return grad_x.transpose(0, 3, 1, 2)

    def forward(self, x, mode, rng=None, gain=no_gain):
        """The stage keeps xc, x stored channels-last (until rebuild swaps in
        a Rebuild of x): x's own memory when x is stored so already (a
        conv's output, and what the elementwise stages after one return),
        else one unpadded copy. The gain input is
        xc's (N, C, H, W) view, so the stage keeps no second copy of x, and
        batch_norms sums every conv's gain input in the same storage order."""
        _check_batch(x, 4, "conv")
        xc = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
        x = xc.transpose(0, 3, 1, 2)
        z = self._linear(x)
        gain(x, z)
        return np.add(z, self.b[None, :, None, None], out=z), {"xc": xc} if mode == "train" else {}

    def rebuild(self, cache, source):
        """Keeps source, a Rebuild of the input, in place of xc."""
        if source is not None:
            cache["xc"] = source

    def backward(self, grad_y, cache, input_grad=True):
        xc = _take(cache, "xc")  # the channels-last input, or a Rebuild of it
        n, oc, oh, ow = grad_y.shape
        g = grad_y.transpose(0, 2, 3, 1)
        nb, blocks = _blocks(n, oh, ow)
        xt, rows = self._padded(nb, *xc.shape[1:]), np.empty((nb, oh, ow, xc.shape[3]), dtype=DTYPE)
        grad_kernel = np.zeros_like(self.kernel)
        for blk in blocks:
            gb = g[blk].reshape(-1, oc)
            for i, j, r in self._tap_rows(xc[blk], xt, rows):
                grad_kernel[:, :, i, j] += gb.T @ r
        x_shape = xc.shape
        del xc, xt, rows, r  # the input and tap buffers go before the input gradient is made
        grad_b = grad_y.sum(axis=(0, 2, 3))
        grad_x = self._grad_input(g, x_shape) if input_grad else None
        return grad_x, {"kernel": grad_kernel, "b": grad_b}

    def apply_linear(self, x):
        return self._linear(x[None])[0]

    def apply_linear_adjoint(self, y, input_shape):
        out = self.out_shape(input_shape)
        if y.shape != out:
            raise ShapeError(f"adjoint input must be a single {out} instance, got shape {y.shape}")
        c, h, w = input_shape
        return self._grad_input(y.transpose(1, 2, 0)[None], (1, h, w, c))[0]


class BatchNorm(Stage):
    """Per-channel normalization with learned scale alpha and shift beta.

    Train mode normalizes with minibatch statistics (and the gradient flows
    through them); the linear output z of its gain pair instead uses the
    running standard-deviation estimates, the same ones eval-mode predictions
    use, so gain measurements stay stable across minibatches. Running averages
    are updated before z is made. Variance is the biased (1/N) estimate
    throughout. The running statistics start at mean 0 and variance 1 unless
    given. A train-mode forward makes two input-sized arrays, the normalized
    input xhat and one buffer that holds x's square, then z, then y; its
    cache keeps xhat and the inverse deviations, not x. A conv after it, or
    after a relu of it, keeps a Rebuild over xhat in place of its input; that
    conv's backward runs before this one's, which uses xhat up.
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

    def forward(self, x, mode, rng=None, gain=no_gain):
        self.out_shape(x.shape[1:])
        _check_batch(x, x.ndim, "batchnorm")
        # per-channel statistics reduce over every axis but 1
        axes, bshape = (0, *range(2, x.ndim)), (1, -1) + (1,) * (x.ndim - 2)
        if mode == "train":
            if x.shape[0] < self.min_batch:
                raise ShapeError(f"train-mode batchnorm needs a batch of at least {self.min_batch}")
            # x.var's own steps, keeping the centred copy and its square:
            # xhat is then built in the first, and z and y in the second
            mu = x.mean(axis=axes)
            xhat = x - mu.reshape(bshape)
            buf = np.square(xhat)
            var = buf.sum(axis=axes) / (x.size // self.channels)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat *= inv_std.reshape(bshape)
            m = self.momentum
            self.running_mean = m * self.running_mean + (1.0 - m) * mu
            self.running_var = m * self.running_var + (1.0 - m) * var
            gain(x, np.multiply(x, self.scale.reshape(bshape), out=buf))
            y = np.multiply(self.alpha.reshape(bshape), xhat, out=buf)
            y += self.beta.reshape(bshape)
            return y, {"xhat": xhat, "inv_std": inv_std}
        scale = self.scale
        z = x * scale.reshape(bshape)
        gain(x, z)
        return np.add(z, (self.beta - scale * self.running_mean).reshape(bshape), out=z), {}

    def rebuild(self, cache, source):
        return Rebuild(cache["xhat"], self.alpha.copy(), self.beta.copy())

    def backward(self, grad_y, cache, input_grad=True):
        """One input-sized temporary t, which becomes grad_x; xhat is used up in place. A sum follows
        its operand's layout, so gdot's product goes in t only if xhat is laid out alike, as in a conv net."""
        xhat, inv_std = _take(cache, "xhat"), _take(cache, "inv_std")
        axes, bshape = (0, *range(2, xhat.ndim)), (1, -1) + (1,) * (xhat.ndim - 2)
        grads = {"alpha": (grad_y * xhat).sum(axis=axes), "beta": grad_y.sum(axis=axes)}
        if not input_grad:
            return None, grads
        # gradient through the minibatch mean and variance, built in t:
        # inv_std / m * (m * gxhat - gsum - xhat * gdot), gxhat = grad_y * alpha
        alpha, m = self.alpha.reshape(bshape), xhat.size // self.channels
        t = grad_y * alpha
        gsum = t.sum(axis=axes).reshape(bshape)
        gdot = np.multiply(xhat, t, out=t if t.strides == xhat.strides else None).sum(axis=axes).reshape(bshape)
        np.multiply(grad_y, alpha, out=t)
        t *= m
        t -= gsum
        t -= np.multiply(xhat, gdot, out=xhat)
        t *= inv_std.reshape(bshape) / m
        return t, grads


class Dropout(Stage):
    """Zeroes activations with the given probability while training.

    Standard (non-inverted) form: train mode applies the binary mask with no
    rescaling, eval mode multiplies by the keep probability (1 - rate).
    Backward writes the masked gradient into grad_y when the walk owns it.
    """

    kind = "dropout"
    hyper = {"rate": (real, REQUIRED)}

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise InvalidValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)

    def operator_norm(self, p, in_shape):
        return 1.0 - self.rate

    def forward(self, x, mode, rng=None, gain=no_gain):
        if mode == "train":
            if rng is None:
                raise InvalidValueError("train-mode dropout needs an rng")
            mask = rng.random(x.shape) >= self.rate
            return x * mask, {"mask": mask}
        return x * (1.0 - self.rate), {}

    def backward(self, grad_y, cache, input_grad=True):
        return _masked(grad_y, _take(cache, "mask")), None


class ReLU(Stage):
    """max(x, 0). It passes a Rebuild of its input on as one of its output,
    and backward writes into grad_y as dropout's does."""

    kind = "relu"

    def forward(self, x, mode, rng=None, gain=no_gain):
        return np.maximum(x, 0.0), {"mask": x > 0.0} if mode == "train" else {}

    def rebuild(self, cache, source):
        return None if source is None else replace(source, relu=True)

    def backward(self, grad_y, cache, input_grad=True):
        return _masked(grad_y, _take(cache, "mask")), None


def _masked(grad_y, mask):
    """grad_y * mask, written into grad_y when the walk owns it (it is
    writeable) and it is laid out as mask, so the product keeps the layout
    grad_y * mask would have."""
    owned = grad_y.flags.writeable and grad_y.strides == tuple(grad_y.itemsize * s for s in mask.strides)
    return np.multiply(grad_y, mask, out=grad_y if owned else None)


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

    def forward(self, x, mode, rng=None, gain=no_gain):
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
        idx = _take(cache, "idx")
        grad_x = np.zeros_like(idx, dtype=DTYPE, shape=_take(cache, "x_shape"))
        for t, tap in enumerate(self._taps(grad_x, *idx.shape[2:])):
            tap += np.where(idx == t, grad_y, 0.0)
        return grad_x, None


class Flatten(Stage):
    kind = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, mode, rng=None, gain=no_gain):
        _check_batch(x, x.ndim, "flatten")
        if x.ndim < 2:
            raise ShapeError(f"flatten expects a batch, got shape {x.shape}")
        return x.reshape(x.shape[0], -1), {"x_shape": x.shape} if mode == "train" else {}

    def backward(self, grad_y, cache, input_grad=True):
        return grad_y.reshape(_take(cache, "x_shape")), None


class ResidualBlock(Stage):
    """Sum of a main stage sequence and a shortcut (identity when empty).

    The block itself is not a learned layer; gain constraints see only the
    learned stages inside it, main path first, then the shortcut. Config JSON
    and checkpoints nest both stage lists. The forward adds the shortcut's
    output into the main path's where that changes no input and no layout;
    the first stage of each branch is handed the Rebuild of the block input.
    Backward hands both branches one read-only gradient.
    """

    kind = "residual"
    parts = ("main", "shortcut")
    config_keys = {"main": (of_type(list), REQUIRED), "shortcut": (of_type(list), None)}

    def __init__(self, main, shortcut=None):
        if not main:
            raise ShapeError("residual block needs a non-empty main path")
        self.main = list(main)
        self.shortcut = list(shortcut or ())

    def out_shape(self, in_shape):
        out, short = (chain_shape(getattr(self, part), in_shape) for part in self.parts)
        if out != short:
            raise ShapeError(f"residual branches disagree: main {out} vs shortcut {short}")
        return out

    def operator_norm(self, p, in_shape):
        return sum(stages_operator_norm(getattr(self, part), p, in_shape)
                   for part in self.parts)

    def forward(self, x, mode, rng=None, gain=no_gain):
        self.out_shape(x.shape[1:])
        y_main, caches_main = _forward_stages(self.main, x, mode, rng, gain)
        y_short, caches_short = _forward_stages(self.shortcut, x, mode, rng, gain)
        # into y_main only where it is memory of its own laid out as y_short,
        # so the sum is laid out as y_main + y_short would be
        own = not (np.may_share_memory(y_main, x) or np.may_share_memory(y_main, y_short))
        y = np.add(y_main, y_short, out=y_main if own and y_main.strides == y_short.strides else None)
        return y, {"main": caches_main, "shortcut": caches_short}

    def rebuild(self, cache, source):
        """Hands source to each branch's first stage, which its branch's walk told None."""
        for part in self.parts:
            if getattr(self, part):
                getattr(self, part)[0].rebuild(cache[part][0], source)

    def backward(self, grad_y, cache, input_grad=True):
        grad_y = _read_only(grad_y)
        grad_main, grads_main = _backward_stages(self.main, grad_y, _take(cache, "main"), input_grad)
        grad_short, grads_short = _backward_stages(self.shortcut, grad_y, _take(cache, "shortcut"), input_grad)
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
    entries come from tree if given, which mirrors stages (a backward's param_grads)."""
    for i, st in enumerate(stages):
        entry = None if tree is None else tree[i]
        for part in st.parts:
            yield from _learned(getattr(st, part), None if entry is None else entry[part])
        if st.weight_param is not None:
            yield st, entry


@dataclass
class StepCaches:
    """Everything one forward pass recorded.

    With gain, gains[j] is gain(x, z) of the j-th learned layer's gain pair,
    in learned_layers() order, measured as the stage ran, and xs and zs are
    None. Without gain, xs[j] / zs[j] are that pair's input batch and a copy
    of its bias-free linear output batch, and gains is None.
    stage_caches mirrors the stage tree, each holding only what its stage's
    backward reads and takes out, so a second backward raises.
    """

    net_id: int
    mode: str
    batch_size: int
    stage_caches: list
    xs: list
    zs: list
    gains: list


def _forward_stages(stages, x, mode, rng, gain):
    """(output, per-stage caches). In train mode each stage is told the
    Rebuild of its input, if any, once it has run."""
    caches, source = [], None
    for st in stages:
        x, cache = st.forward(x, mode, rng, gain)
        caches.append(cache)
        source = st.rebuild(cache, source) if mode == "train" else None
    return x, caches


def _read_only(grad):
    """A read-only view of grad: a gradient the walk does not own."""
    grad = grad.view()
    grad.flags.writeable = False
    return grad


def _backward_stages(stages, grad, caches, input_grad):
    """(input gradient, per-stage param_grads in stage order). Only the
    first stage is told input_grad; every later one's input gradient is what
    the stage before it reads. A writeable grad is the walk's own, for the
    stage to write into: each stage returns a new gradient or a view of the
    one it was handed, and the caller's or a shared one comes read-only."""
    if len(caches) != len(stages):
        raise CacheError("stage caches do not cover every learned layer")
    grads = [None] * len(stages)
    for i in reversed(range(len(stages))):
        grad, grads[i] = stages[i].backward(grad, caches[i], input_grad=input_grad or i > 0)
    return grad, grads


def forward(net, x, mode, rng=None, gain=None):
    """Run the network on a batch; returns (output, StepCaches).

    Train mode updates BatchNorm running statistics as a side effect and needs
    an rng whenever a Dropout stage is present. gain(x, z), if given, maps
    each learned layer's gain pair to its StepCaches.gains entry as the layer
    runs, so no z outlives its stage. Without gain, xs / zs get each pair, z
    copied in its own layout (so its norms sum alike) before its bias goes in.
    """
    if gain is None:
        y, caches = forward(net, x, mode, rng, lambda gx, gz: (gx, gz.copy(order="K")))
        pairs, caches.gains = caches.gains, None
        caches.xs, caches.zs = [gx for gx, _ in pairs], [gz for _, gz in pairs]
        return y, caches
    _check_mode(mode)
    x = as_tensor(x, "network input")
    if x.shape[0] == 0:
        raise ShapeError("network got an empty batch")
    entries = []
    y, stage_caches = _forward_stages(net.stages, x, mode, rng, lambda gx, gz: entries.append(gain(gx, gz)))
    return y, StepCaches(id(net), mode, x.shape[0], stage_caches, None, None, entries)


def backward(net, caches, loss_grad):
    """Backpropagate loss_grad through the network using one step's caches.

    Returns one dict per learned layer, in Network.learned_layers() order,
    mapping its param_names to their gradients; the gradient with respect
    to the network input is never computed. The caches must come from a
    train-mode forward pass on this very network, and are used up: anything
    else raises CacheError.
    """
    if not isinstance(caches, StepCaches) or caches.net_id != id(net):
        raise CacheError("caches were not produced by this network")
    if caches.mode != "train":
        raise CacheError("backward needs caches from a train-mode forward pass")
    loss_grad = np.asarray(loss_grad, dtype=DTYPE)
    _, grads = _backward_stages(net.stages, _read_only(loss_grad), caches.stage_caches, False)
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
