"""Optimizers, the weight projection step, and the training loop.

The projection scales a learned layer's weight array by 1 / max(1, gamma_hat /
gamma) after the ordinary optimizer update, where gamma_hat is the largest
per-instance gain the layer showed on the step's minibatch, measured by the
forward pass as the layer runs, at the pre-update weights. Bias-like
parameters (dense/conv bias, BatchNorm beta) are never rescaled.

fit scores the test split after every epoch with evaluate.eval_metrics, so
its ledger's last test row is the final weights' test loss and accuracy.

Non-finite logits or loss are judged by layers.softmax_cross_entropy alone,
in a training step and an eval pass alike; train_step adds non-finite
measured gains and gradients. fit names the step, or the test pass after it,
and attaches the ledger to the DivergenceError.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import tsv
from .errors import ConfigError, DivergenceError, InvalidValueError, where
from .evaluate import eval_metrics
from .gain import batch_max_gain
from .layers import backward, forward, no_gain, softmax_cross_entropy
from .tensor import check_norm_order, spawn_rngs


@dataclass(frozen=True)
class MaxGainConfig:
    """Gain constraint: one target gamma for every learned layer, norm order p."""

    gamma: float
    p: object = 2

    def __post_init__(self):
        check_norm_order(self.p)
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise InvalidValueError(f"gamma must be positive and finite, got {self.gamma}")

    def gamma_for(self, j):
        """The target gamma of learned layer j, the one every layer shares."""
        return self.gamma


def projection_scale(gamma_hat, gamma):
    """The multiplier 1 / max(1, gamma_hat / gamma)."""
    return 1.0 / max(1.0, gamma_hat / gamma)


def project(w, gamma_hat, gamma):
    """w / (gamma_hat / gamma) when that ratio exceeds 1, else w itself (bitwise
    untouched). train_step passes the gain measured before the update and the
    updated weights, so the gain of what it returns is not bounded by gamma."""
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise InvalidValueError(f"gamma must be positive and finite, got {gamma}")
    if not (math.isfinite(gamma_hat) and gamma_hat >= 0.0):
        raise InvalidValueError(f"measured gain must be finite and >= 0, got {gamma_hat}")
    ratio = gamma_hat / gamma
    if ratio <= 1.0:
        return w
    return w / ratio


def _subtract(params, step):
    """Subtract from each array, in place, its segment of the flat step."""
    start = 0
    for p in params:
        p -= step[start:start + p.size].reshape(p.shape)
        start += p.size


class SgdNesterov:
    """SGD with Nesterov momentum.

    v <- mu * v + g;  step = g + mu * v;  param <- param - lr * step.
    mu = 0 reduces to plain SGD. update(params, grad, lr) steps the arrays
    params in place, grad being their gradients concatenated flat, as is v.
    """

    def __init__(self, momentum=0.9):
        if not 0.0 <= momentum < 1.0:
            raise InvalidValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.velocity = None

    def update(self, params, grad, lr):
        v = self.velocity
        self.velocity = grad.copy() if v is None else np.add(self.momentum * v, grad, out=v)
        _subtract(params, lr * (grad + self.momentum * self.velocity))


class Adam:
    """Adam with bias-corrected moment estimates, at the usual constants.

    update(params, grad, lr) as in SgdNesterov; m and v are flat like grad, t counts updates.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self):
        self.m = self.v = None
        self.t = 0

    def update(self, params, grad, lr):
        if self.t == 0:
            self.m, self.v = np.zeros_like(grad), np.zeros_like(grad)
        self.t += 1
        np.add(self.beta1 * self.m, (1.0 - self.beta1) * grad, out=self.m)
        np.add(self.beta2 * self.v, (1.0 - self.beta2) * grad * grad, out=self.v)
        mhat = self.m / (1.0 - self.beta1 ** self.t)
        vhat = self.v / (1.0 - self.beta2 ** self.t)
        _subtract(params, lr * mhat / (np.sqrt(vhat) + self.eps))


@dataclass(frozen=True)
class Schedule:
    """Base learning rate plus multiplicative drops at given epochs.

    Each (epoch, factor) pair multiplies the rate from that epoch (1-based)
    onward; factors for all epochs <= the current one compound.
    """

    base_lr: float
    drops: tuple = ()

    def __post_init__(self):
        if not (math.isfinite(self.base_lr) and self.base_lr >= 0.0):
            raise InvalidValueError(f"base_lr must be finite and >= 0, got {self.base_lr}")
        for e, f in self.drops:
            if int(e) < 1:
                raise InvalidValueError(f"drop epoch must be >= 1, got {e}")
            if not (math.isfinite(f) and f > 0.0):
                raise InvalidValueError(f"drop factor must be positive, got {f}")

    def lr_at(self, epoch):
        lr = self.base_lr
        for e, f in self.drops:
            if epoch >= e:
                lr *= f
        return lr


@dataclass
class StepReport:
    loss: float
    batch_size: int
    n_correct: int
    gamma_hats: list = None   # per learned layer, None when the constraint is off
    scales: list = None


def train_step(net, x, y, optimizer, lr, maxgain=None, rng=None):
    """One minibatch step: forward, backward, optimizer update, projection.

    The forward measures each learned layer's gamma_hat as it runs (at the
    pre-update weights), so no linear output outlives its stage; the loss
    judges the logits before gamma_hat is. Backward uses each stage's cache
    up; the projection is applied to the freshly updated weights.
    Returns a StepReport.
    """
    gain = no_gain if maxgain is None else lambda gx, gz: batch_max_gain(gx, gz, maxgain.p)
    logits, caches = forward(net, x, "train", rng=rng, gain=gain)
    loss, loss_grad = softmax_cross_entropy(logits, y)
    gamma_hats = None
    if maxgain is not None:
        gamma_hats = caches.gains
        for j, gh in enumerate(gamma_hats):
            if not math.isfinite(gh):
                raise DivergenceError(f"non-finite gain of layer {j}")
    grads = backward(net, caches, loss_grad)
    layers = net.learned_layers()
    names = [(j, name) for j, layer in enumerate(layers) for name in layer.param_names]
    flat = np.concatenate([grads[j][name].ravel() for j, name in names] or [np.empty(0)])
    if not np.isfinite(flat).all():
        j, name = next((j, name) for j, name in names if not np.isfinite(grads[j][name]).all())
        raise DivergenceError(f"non-finite gradient of layer {j} {name!r}")
    optimizer.update([getattr(layers[j], name) for j, name in names], flat, lr)
    scales = None
    if maxgain is not None:
        scales = []
        for layer, gh in zip(layers, gamma_hats):
            w = getattr(layer, layer.weight_param)
            projected = project(w, gh, maxgain.gamma)
            if projected is not w:
                np.copyto(w, projected)
            scales.append(projection_scale(gh, maxgain.gamma))
    n_correct = int(np.sum(np.argmax(logits, axis=1) == np.asarray(y)))
    return StepReport(loss=loss, batch_size=x.shape[0], n_correct=n_correct,
                      gamma_hats=gamma_hats, scales=scales)


@dataclass
class EpochRecord:
    epoch: int
    split: str
    loss: float
    accuracy: float
    gamma_hat_max: list = None  # per learned layer, max over the epoch's steps
    scale_min: list = None      # per learned layer, smallest applied multiplier


@dataclass
class TrainingLedger:
    """Per-epoch records plus their line-oriented text form.

    Train rows serialize as: epoch, split, loss, accuracy, then for every
    learned layer the epoch-max gamma_hat and the smallest projection scale.
    Test rows carry the four leading fields only. Tab separated, floats at 17
    significant digits, so identical runs produce identical bytes.
    """

    records: list = field(default_factory=list)

    def to_text(self):
        return tsv([r.epoch, r.split, r.loss, r.accuracy]
                   + [v for pair in zip(r.gamma_hat_max or (), r.scale_min or ()) for v in pair]
                   for r in self.records)


# Overflow warnings stay silent: the finiteness checks of train_step and the
# loss report a divergence with its step and epoch.
@np.errstate(all="ignore")
def fit(net, train, *, optimizer, schedule, epochs, batch_size=64,
        maxgain=None, seed=0, test=None, augment_fn=None):
    """Train the network and return the TrainingLedger.

    Shuffling, dropout, and augmentation draw from three independent streams
    derived from the seed, so the whole run is a pure function of (initial
    weights, data, seed, hyperparameters). augment_fn, when given, maps
    (x_batch, rng) to a transformed batch before each step. Non-finite
    logits, loss, measured gain or gradient, in a step or in the per-epoch
    test pass, raise DivergenceError carrying the global step index and the
    partial ledger; a test pass's ledger holds its epoch's train row.
    """
    if int(epochs) < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if int(batch_size) < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n = train.x.shape[0]
    smallest = n % int(batch_size) or int(batch_size)
    layers = net.learned_layers()
    need = max((st.min_batch for st in layers), default=1)
    if smallest < need:
        raise ConfigError(f"{n} training instances at batch_size {batch_size} leave a batch of "
                          f"{smallest}, but the model needs train batches of at least {need}")
    rng_shuffle, rng_dropout, rng_augment = spawn_rngs(seed, 3)
    n_layers = len(layers)
    ledger = TrainingLedger()
    global_step = 0
    for epoch in range(1, int(epochs) + 1):
        lr = schedule.lr_at(epoch)
        perm = rng_shuffle.permutation(n)
        loss_sum = 0.0
        correct = 0
        gh_max = [-math.inf] * n_layers
        for i in range(0, n, int(batch_size)):
            idx = perm[i:i + int(batch_size)]
            global_step += 1
            xb = train.x[idx]
            if augment_fn is not None:
                xb = augment_fn(xb, rng_augment)
            try:
                report = train_step(net, xb, train.y[idx], optimizer, lr,
                                    maxgain=maxgain, rng=rng_dropout)
            except DivergenceError as err:
                raise DivergenceError(f"{err} at step {global_step} (epoch {epoch})",
                                      step=global_step, ledger=ledger) from None
            loss_sum += report.loss * report.batch_size
            correct += report.n_correct
            if report.gamma_hats is not None:
                gh_max = [max(m, gh) for m, gh in zip(gh_max, report.gamma_hats)]
        record = EpochRecord(epoch=epoch, split="train",
                             loss=loss_sum / n, accuracy=correct / n)
        if maxgain is not None:
            # the scale falls as gamma_hat rises, so the epoch's smallest is that of its largest
            record.gamma_hat_max = gh_max
            record.scale_min = [projection_scale(gh, maxgain.gamma) for gh in gh_max]
        ledger.records.append(record)
        if test is not None:
            with where(suffix=f" on the test split after step {global_step} (epoch {epoch})",
                       step=global_step, ledger=ledger):
                test_loss, test_acc = eval_metrics(net, test.x, test.y)
            ledger.records.append(EpochRecord(
                epoch=epoch, split="test", loss=test_loss, accuracy=test_acc))
    return ledger
