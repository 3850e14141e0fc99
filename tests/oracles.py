"""Independent reference implementations the tests compare against.

Everything here is written the dumb, obviously-correct way (explicit loops,
brute-force enumeration) so it cannot share a bug with the package code. The
exceptions: the one-instance probes of a learned layer (apply_linear, gain,
materialize_linear) call a conv's own apply_linear, one instance or basis
vector at a time, so tests can compare the package's batched measurements
with them; backward_with_input_grad runs the stages' own backward
passes, asking each for its input gradient; kept_input_forward and
kept_input_backward run each stage by itself, so every stage keeps its own
input and gets its own copy of its gradient; and conv2d_padded_oracle keeps
the conv's former full-batch padded formulation, GEMM for GEMM, to pin the
bits of the stage's own.
"""

import itertools

import mpmath
import numpy as np

from maxgain import (
    BatchNorm,
    Dense,
    ResidualBlock,
    StepReport,
    backward,
    batch_max_gain,
    forward,
    instance_gains,
    layers,
    softmax_cross_entropy,
)


def brute_force_operator_norm_p1(w):
    """max over signed basis vectors e of ||W e||_1 (exact for p=1)."""
    best = 0.0
    for j in range(w.shape[1]):
        for sign in (1.0, -1.0):
            e = np.zeros(w.shape[1])
            e[j] = sign
            best = max(best, np.abs(w @ e).sum())
    return best


def brute_force_operator_norm_pinf(w):
    """max over all +-1 sign vectors s of ||W s||_inf (exact for p=inf).

    W s is computed entry by entry as (w * s).sum(axis=1) rather than with
    BLAS, so each candidate is reduced with numpy's own row summation; the
    winning candidate is then bit-identical to the max absolute row sum.
    """
    n_cols = w.shape[1]
    assert n_cols <= 12, "sign enumeration explodes past 12 columns"
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=n_cols):
        s = np.array(signs)
        best = max(best, np.abs((w * s).sum(axis=1)).max())
    return best


def apply_linear(layer, x):
    """Bias-free linear action of a learned layer on one instance: W x for a
    dense layer, x times alpha / sqrt(running_var + eps) per channel for
    batchnorm, and a conv's own apply_linear."""
    x = np.asarray(x, dtype=np.float64)
    if isinstance(layer, Dense):
        return layer.w @ x
    if isinstance(layer, BatchNorm):
        scale = layer.alpha / np.sqrt(layer.running_var + layer.eps)
        return x * scale.reshape((-1,) + (1,) * (x.ndim - 1))
    return layer.apply_linear(x)


def keep_pair(x, z):
    """A gain callback that keeps the gain pair it is handed: x itself and z
    copied in its own layout, as the stage adds its bias into z once the
    callback returns. A network forward run with it holds each learned
    layer's pair in StepCaches.gains."""
    return x, z.copy(order="K")


def pair_forward(layer, x, mode):
    """(y, cache, (x, z)) of one forward of a learned stage: the gain pair is
    what the stage handed its gain callback, exactly once, kept by keep_pair."""
    seen = []
    y, cache = layer.forward(x, mode, gain=lambda gx, gz: seen.append(keep_pair(gx, gz)))
    (pair,) = seen
    return y, cache, pair


def gain(layer, x, p):
    """Gain of one learned layer on one instance; zero input has gain 0."""
    x = np.asarray(x, dtype=np.float64)
    return float(instance_gains(x[None], apply_linear(layer, x)[None], p)[0])


def materialize_linear(layer, input_shape):
    """Dense matrix of a learned layer's linear action on instances of
    input_shape (an int for a vector): column k is the flattened response to
    the k-th standard basis vector of the row-major flattened input."""
    shape = (input_shape,) if isinstance(input_shape, int) else tuple(input_shape)
    dim = int(np.prod(shape))
    columns = []
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        columns.append(apply_linear(layer, e.reshape(shape)).reshape(-1))
    return np.stack(columns, axis=1)


def _learned_grads(stages, grads):
    """The param_grads of the learned stages under stages, in
    learned_layers() order (a residual block's parts first)."""
    for stage, g in zip(stages, grads):
        for part in stage.parts:
            yield from _learned_grads(getattr(stage, part) or (), g[part])
        if stage.weight_param is not None:
            yield g


def read_only(a):
    """A read-only view of a, which no stage may write into."""
    a = np.asarray(a, dtype=np.float64).view()
    a.flags.writeable = False
    return a


def backward_with_input_grad(net, caches, loss_grad):
    """The network backward with every stage asked for its input gradient:
    (gradient with respect to the network input, one param_grads dict per
    learned layer in learned_layers() order). Like the network backward, it
    hands the last stage loss_grad read-only."""
    grad, grads = read_only(loss_grad), []
    for stage, cache in zip(reversed(net.stages), reversed(caches.stage_caches)):
        grad, g = stage.backward(grad, cache, input_grad=True)
        grads.insert(0, g)
    return grad, list(_learned_grads(net.stages, grads))


def kept_input_forward(stages, x, rng):
    """A train-mode forward of stages on x that calls each stage's own
    forward by itself, a residual block's branches included, and sums each
    block's branches into a new array: (output, caches mirroring stages),
    where every conv keeps its own input, since no walk tells it of a
    batchnorm it could rebuild that input from."""
    caches = []
    for stage in stages:
        if isinstance(stage, ResidualBlock):
            y_main, main = kept_input_forward(stage.main, x, rng)
            y_short, short = kept_input_forward(stage.shortcut, x, rng)
            x, cache = y_main + y_short, {"main": main, "shortcut": short}
        else:
            x, cache = stage.forward(x, "train", rng)
        caches.append(cache)
    return x, caches


def kept_input_backward(stages, caches, grad):
    """The backward of kept_input_forward's caches, asking every stage for
    its input gradient and handing each a copy of its gradient in the same
    layout, so no stage can write into a gradient another one reads:
    (input gradient, one param_grads dict per learned layer under stages in
    learned_layers() order)."""
    learned = []
    for stage, cache in zip(reversed(stages), reversed(caches)):
        if isinstance(stage, ResidualBlock):
            grad_main, main = kept_input_backward(stage.main, cache["main"], grad)
            grad_short, short = kept_input_backward(stage.shortcut, cache["shortcut"], grad)
            grad, learned = grad_main + grad_short, main + short + learned
        else:
            grad, g = stage.backward(grad.copy(order="K"), cache, input_grad=True)
            if stage.weight_param is not None:
                learned.insert(0, g)
    return grad, learned


def numeric_gradient(f, x, h=1e-5):
    """Central-difference gradient of scalar f at x, element by element."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def gradient_rel_error(analytic, numeric):
    """Max-norm relative disagreement between two gradients."""
    a = np.asarray(analytic).reshape(-1)
    n = np.asarray(numeric).reshape(-1)
    denom = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1e-8)
    return np.abs(a - n).max(initial=0.0) / denom


def paired_t_oracle(a, b):
    """Paired t statistic and two-sided p value at 50 decimal digits."""
    with mpmath.workdps(50):
        d = [mpmath.mpf(float(x)) - mpmath.mpf(float(y)) for x, y in zip(a, b)]
        k = len(d)
        mean = mpmath.fsum(d) / k
        var = mpmath.fsum((v - mean) ** 2 for v in d) / (k - 1)
        t = mean / mpmath.sqrt(var / k)
        df = k - 1
        x = df / (df + t * t)
        p = mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True)
        return float(t), float(p)


def quartiles_oracle(values):
    """(min, q1, median, q3, max) via numpy's linear-interpolation percentile."""
    v = np.asarray(values, dtype=np.float64)
    return (
        float(v.min()),
        float(np.percentile(v, 25, method="linear")),
        float(np.percentile(v, 50, method="linear")),
        float(np.percentile(v, 75, method="linear")),
        float(v.max()),
    )


def conv2d_oracle(x, kernel, stride, pad):
    """Cross-correlation by direct summation: every output position, input
    channel and kernel tap in nested loops, reading zero outside the input."""
    n, c, h, w = x.shape
    oc, _, kh, kw = kernel.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for b in range(n):
        for o in range(oc):
            for r in range(oh):
                for q in range(ow):
                    acc = 0.0
                    for ch in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                row = r * stride + i - pad
                                col = q * stride + j - pad
                                if 0 <= row < h and 0 <= col < w:
                                    acc += x[b, ch, row, col] * kernel[o, ch, i, j]
                    out[b, o, r, q] = acc
    return out


def conv2d_padded_oracle(layer, x, grad_y):
    """(z, grad_kernel, grad_x) of a Conv2d stage computed on a zero-padded
    channels-last copy of the whole batch: one GEMM per kernel tap over the
    image blocks of layers._blocks, grad_kernel summed block by block, and
    grad_x scatter-added tap by tap into a full-batch padded buffer whose
    padding is then cropped. The stage pads one block at a time instead; its
    outputs are bitwise these."""
    n, c, h, w = x.shape
    oc, _, kh, kw = layer.kernel.shape
    s, p = layer.stride, layer.pad
    _, oh, ow = layer.out_shape(x.shape[1:])
    xt = np.zeros((n, h + 2 * p, w + 2 * p, c))
    xt[:, p:p + h, p:p + w, :] = x.transpose(0, 2, 3, 1)
    g = grad_y.transpose(0, 2, 3, 1)
    z = np.zeros((n, oh, ow, oc))
    grad_kernel = np.zeros_like(layer.kernel)
    gxt = np.zeros_like(xt)
    for blk in layers._blocks(n, oh, ow)[1]:
        zb, gb = z[blk].reshape(-1, oc), g[blk].reshape(-1, oc)
        for i in range(kh):
            for j in range(kw):
                tap = (blk, slice(i, i + s * oh, s), slice(j, j + s * ow, s))
                rows = np.ascontiguousarray(xt[tap]).reshape(-1, c)
                zb += rows @ layer.kernel[:, :, i, j].T
                grad_kernel[:, :, i, j] += gb.T @ rows
                gxt[tap] += (gb @ layer.kernel[:, :, i, j]).reshape(-1, oh, ow, c)
    return z.transpose(0, 3, 1, 2), grad_kernel, gxt[:, p:p + h, p:p + w, :].transpose(0, 3, 1, 2)


def maxpool_oracle(x, kernel, stride, grad_y):
    """Max pooling by nested loops: (y, grad_x), where each window's value is
    its first maximum in row-major window order and grad_x adds each window's
    grad_y at that position."""
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    y = np.zeros((n, c, oh, ow), dtype=np.float64)
    grad_x = np.zeros(x.shape, dtype=np.float64)
    for b in range(n):
        for ch in range(c):
            for r in range(oh):
                for q in range(ow):
                    best = None
                    for i in range(kernel):
                        for j in range(kernel):
                            row, col = r * stride + i, q * stride + j
                            if best is None or x[b, ch, row, col] > x[b, ch, best[0], best[1]]:
                                best = (row, col)
                    y[b, ch, r, q] = x[b, ch, best[0], best[1]]
                    grad_x[b, ch, best[0], best[1]] += grad_y[b, ch, r, q]
    return y, grad_x


def augment_oracle(x, rng, flip=False, pad=0, crop=None):
    """augment one image at a time: mirror it with [..., ::-1], zero-pad it
    with np.pad, then slice its window out at its drawn (row, col) offset.
    The draws are augment's, in its order: the flips, then the offsets (only
    when pad or crop is set), each axis in its own range."""
    n, _, h, w = x.shape
    rows, cols = (h, w) if crop is None else (crop, crop)
    mirrored = rng.random(n) < 0.5 if flip else np.zeros(n, dtype=bool)
    offsets = np.zeros((n, 2), dtype=np.int64)
    if pad or crop is not None:
        offsets = rng.integers(0, [h + 2 * pad - rows + 1, w + 2 * pad - cols + 1], size=(n, 2))
    out = []
    for i in range(n):
        image = x[i][..., ::-1] if mirrored[i] else x[i]
        padded = np.pad(image, ((0, 0), (pad, pad), (pad, pad)))
        r, c = offsets[i]
        out.append(padded[:, r:r + rows, c:c + cols])
    return np.stack(out)


def batchnorm_train_oracle(layer, x):
    """One train-mode BatchNorm forward by the textbook formulas, leaving the
    layer alone: (y, xhat, inv_std, z, running_mean, running_var), with
    the running statistics the layer holds after the step and z = x times
    the eval-mode scale they give."""
    axes, bshape = (0, *range(2, x.ndim)), (1, -1) + (1,) * (x.ndim - 2)
    mu = x.mean(axis=axes)
    var = x.var(axis=axes)
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    xhat = (x - mu.reshape(bshape)) * inv_std.reshape(bshape)
    y = layer.alpha.reshape(bshape) * xhat + layer.beta.reshape(bshape)
    m = layer.momentum
    running_mean = m * layer.running_mean + (1.0 - m) * mu
    running_var = m * layer.running_var + (1.0 - m) * var
    z = x * (layer.alpha / np.sqrt(running_var + layer.eps)).reshape(bshape)
    return y, xhat, inv_std, z, running_mean, running_var


def batchnorm_backward_oracle(layer, xhat, inv_std, grad_y):
    """(grad_x, grad_alpha, grad_beta) of a train-mode BatchNorm by the
    textbook formulas, the gradient flowing through the batch statistics."""
    axes, bshape = (0, *range(2, xhat.ndim)), (1, -1) + (1,) * (xhat.ndim - 2)
    m = xhat.size // layer.channels
    grad_beta = grad_y.sum(axis=axes)
    grad_alpha = (grad_y * xhat).sum(axis=axes)
    gxhat = grad_y * layer.alpha.reshape(bshape)
    gsum = gxhat.sum(axis=axes).reshape(bshape)
    gdot = (gxhat * xhat).sum(axis=axes).reshape(bshape)
    grad_x = inv_std.reshape(bshape) / m * (m * gxhat - gsum - xhat * gdot)
    return grad_x, grad_alpha, grad_beta


class SgdNesterovOracle:
    """SGD with Nesterov momentum, one array at a time: each key keeps its
    own velocity, v = g on its first step and mu * v + g after, and the
    array becomes param - lr * (g + mu * v) as a new array."""

    def __init__(self, momentum):
        self.momentum = momentum
        self.velocity = {}

    def begin_step(self):
        pass

    def update(self, key, param, grad, lr):
        v = self.velocity.get(key)
        v = grad if v is None else self.momentum * v + grad
        self.velocity[key] = v
        return param - lr * (grad + self.momentum * v)


class AdamOracle:
    """Adam, one array at a time: each key keeps its own moments, which start
    at 0; begin_step advances the step count every key shares."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = 0

    def begin_step(self):
        self.t += 1

    def update(self, key, param, grad, lr):
        m = self.beta1 * self.m.get(key, 0.0) + (1.0 - self.beta1) * grad
        v = self.beta2 * self.v.get(key, 0.0) + (1.0 - self.beta2) * grad * grad
        self.m[key] = m
        self.v[key] = v
        mhat = m / (1.0 - self.beta1 ** self.t)
        vhat = v / (1.0 - self.beta2 ** self.t)
        return param - lr * mhat / (np.sqrt(vhat) + self.eps)


def train_step_oracle(net, x, y, optimizer, lr, maxgain=None, rng=None):
    """One training step with a per-array oracle optimizer: forward,
    backward, one update per learned array keyed (layer index, name), each
    result set on the layer as a new array, then each layer's gain measured
    from the gain pair its forward handed keep_pair and its weights divided
    by gamma_hat / gamma where that ratio exceeds 1."""
    logits, caches = forward(net, x, "train", rng=rng, gain=keep_pair)
    loss, loss_grad = softmax_cross_entropy(logits, y)
    grads = backward(net, caches, loss_grad)
    layers = net.learned_layers()
    optimizer.begin_step()
    for j, (layer, pgrads) in enumerate(zip(layers, grads)):
        for name in layer.param_names:
            setattr(layer, name, optimizer.update((j, name), getattr(layer, name), pgrads[name], lr))
    gamma_hats = scales = None
    if maxgain is not None:
        gamma_hats, scales = [], []
        for j, layer in enumerate(layers):
            gh = batch_max_gain(*caches.gains[j], maxgain.p)
            ratio = gh / maxgain.gamma
            if ratio > 1.0:
                setattr(layer, layer.weight_param, getattr(layer, layer.weight_param) / ratio)
            gamma_hats.append(gh)
            scales.append(1.0 / max(1.0, ratio))
    n_correct = int(np.sum(np.argmax(logits, axis=1) == np.asarray(y)))
    return StepReport(loss=loss, batch_size=x.shape[0], n_correct=n_correct,
                      gamma_hats=gamma_hats, scales=scales)
